"""numpy is the only runtime dependency.

A fresh interpreter hides the optional and test-only packages (an entry of
None in `sys.modules` makes their import fail), then imports the package and
runs one `verify` and one `poly` command.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import exactq

HIDDEN = ("scipy", "sympy", "mpmath", "hypothesis", "pytest")
COMMANDS = (
    ["verify", "--family", "unb", "--n", "5", "--d", "1"],
    ["poly", "--family", "unbr", "--n", "3", "--d", "1"],
)
SCRIPT = f"""
import sys
for name in {HIDDEN!r}:
    sys.modules[name] = None
import exactq, exactq.batch, exactq.cli
codes = [exactq.cli.main(argv) for argv in {COMMANDS!r}]
sys.exit(0 if codes == [0, 0] else f"exit codes {{codes}}")
"""


def test_package_runs_without_optional_packages():
    src = str(Path(exactq.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr[-4000:]
