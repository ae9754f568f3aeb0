"""``tools/pass_times.py``: the likelihood's entry points timed in two
checkouts at one parameter vector."""

import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "pass_times.py"
# one round of one call per entry point, this checkout on both sides
TINY = [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--tiny", "--rounds", "1", "--calls", "1", "--repeats", "1"]


def test_one_checkout_times_its_tiny_cases():
    proc = subprocess.run(TINY, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["case/entry", "point", "parent", "ms", "q1", "q3", "change", "ms", "q1", "q3", "ratio"]
    times = {row.split()[0]: [float(v) for v in row.split()[1:]] for row in rows}
    # one round per side, although both sides are this checkout: each
    # side's quartiles are its one time
    assert all(row[0] == row[1] == row[2] and row[3] == row[4] == row[5] for row in times.values())
    # every workload fitted in-process, and rp_replicates fitted here
    # in-process: exact models time their pass as well, and every case a
    # refresh that re-adapts
    for case in ("frailty_qmc", "nested3_aghq", "rp_replicates"):
        assert {f"{case}/{entry}" for entry in ("derivatives", "logl", "refresh", "readapt")} <= times.keys()
    assert {"joint_ev/logl", "joint_ev/refresh", "joint_ev/readapt"} <= times.keys()
    assert "joint_ev/derivatives" not in times
    assert all(value > 0 for row in times.values() for value in row)


def test_readapt_alternates_between_two_vectors(monkeypatch):
    # each readapt call refreshes at the other vector: the timed one and
    # the one READAPT_STEP away in every coordinate, in turn
    monkeypatch.syspath_prepend(str(TOOL.parent))
    import pass_times

    seen = []

    class Evaluator:
        exact = False

        def refresh(self, theta):
            seen.append(theta.copy())

        def logl(self, theta):
            return 0.0

    monkeypatch.setattr(pass_times, "cases", lambda *args: {"case": ("spec", {}, {})})
    monkeypatch.setattr(pass_times, "evaluator", lambda *args: Evaluator())
    monkeypatch.setattr(pass_times.os, "sched_setaffinity", lambda *args: None)
    theta = np.array([0.5, -1.0])
    times = pass_times.time_side(ROOT, True, {"case": theta.tolist()}, calls=2, repeats=2, names=None)
    assert set(times) == {"case/logl", "case/refresh", "case/readapt"}
    # one refresh to adapt, 4 timed at the vector, then 4 that alternate
    assert len(seen) == 9 and all(np.array_equal(v, theta) for v in seen[:5])
    for i, v in enumerate(seen[5:]):
        np.testing.assert_array_equal(v, theta + pass_times.READAPT_STEP if i % 2 == 0 else theta)


def test_cases_times_only_the_named_cases():
    proc = subprocess.run(TINY + ["--cases", "frailty_qmc,rp_replicates"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert {row.split()[0].split("/")[0] for row in rows} == {"frailty_qmc", "rp_replicates"}
    proc = subprocess.run(TINY + ["--cases", "frailty_qmc,no_such_case"], capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "unknown cases ['no_such_case']" in proc.stderr


def test_quartiles_show_each_sides_spread(monkeypatch, capsys):
    # each side's median with its quartiles over the rounds, as
    # tools/bench_pairs.py takes them, and the ratio of the medians
    monkeypatch.syspath_prepend(str(TOOL.parent))
    import pass_times

    rounds = {"parent": iter([1.0, 2.0, 3.0, 4.0, 5.0]), "change": iter([0.9, 1.1, 1.0, 1.4, 0.8])}

    def run(checkout, argv):
        if "--optimum" in argv:
            return {}
        return {"case/logl": next(rounds[checkout.name]) * 1e-3}

    monkeypatch.setattr(pass_times, "run", run)
    assert pass_times.main([str(ROOT / "parent"), str(ROOT / "change"), "--rounds", "5"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    name, *values = row.split()
    assert name == "case/logl"
    np.testing.assert_allclose([float(v) for v in values], [3.0, 2.0, 4.0, 1.0, 0.9, 1.1, 1.0 / 3.0], atol=5e-4)
    assert pass_times.quartiles([2.5]) == (2.5, 2.5, 2.5)
