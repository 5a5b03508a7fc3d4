"""The benchmark's self-check runs every workload on a small unit and checks
its outputs; a library change that breaks a workload or its checks must
fail here, not first in a benchmark run."""

import subprocess
import sys
from pathlib import Path

SELFCHECK = Path(__file__).resolve().parents[1] / "perfbench" / "selfcheck.py"


def test_perfbench_selfcheck_passes():
    done = subprocess.run([sys.executable, str(SELFCHECK)], capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
