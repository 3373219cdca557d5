"""The benchmark harness's own smoke check (perfbench/smoke.py).

It runs every workload on tiny plans, untraced and traced. The traced runs
wrap names on `exactq.cli`, `exactq.verifier` and the builder modules, so a
change that renames one of them fails here.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    assert done.stdout.splitlines()[-1] == "smoke: ok"
