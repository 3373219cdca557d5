"""Time one cold set-up of a workload: import exactq, then the workload's plan
builds. Prints the seconds as its last line. Run by run.py in a fresh process
for each sample, so every sample pays the import and finds the builder caches
empty:

    python3 perfbench/setup_probe.py verify-chain
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import workloads  # noqa: E402  (imports exactq)

workloads.SETUP[sys.argv[1]]()
print(time.perf_counter() - start)
