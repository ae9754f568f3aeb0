"""The benchmark's own quick check (``perfbench/selfcheck.py``) as a test:
the oracle self-tests, then every workload of ``perfbench/workloads.py``
at its tiny size in both trace modes, ``joint_ev`` included, which
``BENCHMARK.json`` leaves out. Each run must report a correct result and
every metric the benchmark names. About a minute on two cores.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selfcheck():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selfcheck passed" in proc.stdout
