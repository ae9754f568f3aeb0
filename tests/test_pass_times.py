"""``tools/pass_times.py``: the likelihood's entry points timed in two
checkouts at one parameter vector."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "pass_times.py"
# one round of one call per entry point, this checkout on both sides
TINY = [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--tiny", "--rounds", "1", "--calls", "1", "--repeats", "1"]


def test_one_checkout_times_its_tiny_cases():
    proc = subprocess.run(TINY, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["case/entry", "point", "parent", "ms", "change", "ms", "ratio"]
    times = {row.split()[0]: [float(v) for v in row.split()[1:]] for row in rows}
    # every workload fitted in-process, and rp_replicates fitted here
    # in-process: exact models time their pass as well
    for case in ("frailty_qmc", "nested3_aghq", "rp_replicates"):
        assert {f"{case}/{entry}" for entry in ("derivatives", "logl", "refresh")} <= times.keys()
    assert {"joint_ev/logl", "joint_ev/refresh"} <= times.keys() and "joint_ev/derivatives" not in times
    assert all(value > 0 for row in times.values() for value in row)


def test_cases_times_only_the_named_cases():
    proc = subprocess.run(TINY + ["--cases", "frailty_qmc,rp_replicates"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert {row.split()[0].split("/")[0] for row in rows} == {"frailty_qmc", "rp_replicates"}
    proc = subprocess.run(TINY + ["--cases", "frailty_qmc,no_such_case"], capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "unknown cases ['no_such_case']" in proc.stderr
