"""``tools/pass_times.py``: the likelihood's entry points timed in two
checkouts at one parameter vector."""

import itertools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "pass_times.py"
# one round of one call per entry point, this checkout on both sides
TINY = [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--tiny", "--rounds", "1", "--calls", "1", "--repeats", "1"]


def test_one_checkout_times_its_tiny_cases():
    proc = subprocess.run(TINY, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["case/entry", "point", "parent", "ms", "q1", "q3", "change", "ms", "q1", "q3", "ratio", "won"]
    times = {row.split()[0]: [float(v) for v in row.split()[1:-1]] for row in rows}
    # one round: the change won it or not
    assert {row.split()[-1] for row in rows} <= {"0", "1"}
    # one round per side, although both sides are this checkout: each
    # side's quartiles are its one time
    assert all(row[0] == row[1] == row[2] and row[3] == row[4] == row[5] for row in times.values())
    # every workload fitted in-process, and rp_replicates fitted here
    # in-process: exact models time their pass as well, and every case a
    # refresh that re-adapts
    for case in ("frailty_qmc", "nested3_aghq", "rp_replicates"):
        entries = ("derivatives", "logl", "refresh", "readapt", "iteration")
        assert {f"{case}/{entry}" for entry in entries} <= times.keys()
    assert {"joint_ev/logl", "joint_ev/refresh", "joint_ev/readapt", "joint_ev/iteration"} <= times.keys()
    assert "joint_ev/derivatives" not in times
    assert all(value > 0 for row in times.values() for value in row)


def test_readapt_alternates_between_two_vectors(monkeypatch):
    # each readapt call refreshes at the other vector: the timed one and
    # the one READAPT_STEP away in every coordinate, in turn
    monkeypatch.syspath_prepend(str(TOOL.parent))
    import pass_times

    seen = []

    logls = []

    class Evaluator:
        exact = False

        def refresh(self, theta):
            seen.append(theta.copy())

        def logl(self, theta):
            logls.append(theta.copy())
            return 0.0

    monkeypatch.setattr(pass_times, "cases", lambda *args: {"case": ("spec", {}, {})})
    monkeypatch.setattr(pass_times, "evaluator", lambda *args: Evaluator())
    monkeypatch.setattr(pass_times.os, "sched_setaffinity", lambda *args: None)
    theta = np.array([0.5, -1.0])
    times = pass_times.time_side(ROOT, True, {"case": theta.tolist()}, calls=2, repeats=2, names=None)
    assert set(times) == {"case/logl", "case/refresh", "case/readapt", "case/iteration"}
    # one refresh to adapt, 4 timed at the vector, then 4 that alternate,
    # then the 4 iterations' refreshes, which alternate as well
    assert len(seen) == 13 and all(np.array_equal(v, theta) for v in seen[:5])
    for i, v in enumerate(seen[5:]):
        np.testing.assert_array_equal(v, theta + pass_times.READAPT_STEP if i % 2 == 0 else theta)
    # the 4 timed logl calls alternate between the vector PROBE_STEP away
    # and the timed one, so that none reads the evaluation before it
    for i, v in enumerate(logls[:4]):
        np.testing.assert_array_equal(v, theta + pass_times.PROBE_STEP if i % 2 == 0 else theta)


@pytest.mark.parametrize("exact", [True, False])
def test_iteration_runs_an_adaptive_newton_iteration(exact, monkeypatch):
    # logl at the accepted point, the refresh there, then the pass (or
    # logl without exact derivatives), all at one vector, which alternates
    # between the vector READAPT_STEP away and the timed one
    monkeypatch.syspath_prepend(str(TOOL.parent))
    import pass_times

    calls = []

    class Evaluator:
        def __init__(self):
            self.exact = exact

        def __getattr__(self, name):
            return lambda theta: calls.append((name, theta.copy()))

    theta = np.array([0.5, -1.0])
    vectors = itertools.cycle((theta + pass_times.READAPT_STEP, theta))
    for _ in range(2):
        pass_times.iteration(Evaluator(), vectors, theta)
    last = "derivatives" if exact else "logl"
    assert [name for name, _ in calls] == ["logl", "refresh", last] * 2
    for i, (_, v) in enumerate(calls):
        np.testing.assert_array_equal(v, theta + pass_times.READAPT_STEP if i < 3 else theta)


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
    np.testing.assert_allclose([float(v) for v in values], [3.0, 2.0, 4.0, 1.0, 0.9, 1.1, 1.0 / 3.0, 5], atol=5e-4)
    assert pass_times.quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_won_counts_the_rounds_the_change_was_faster(monkeypatch, capsys):
    # per entry, the rounds whose change time is below the parent's time
    # in the same round; a tie counts for neither side
    monkeypatch.syspath_prepend(str(TOOL.parent))
    import pass_times

    rounds = {"parent": iter([1.0, 2.0, 3.0, 4.0]), "change": iter([0.5, 2.0, 3.5, 3.0])}

    def run(checkout, argv):
        if "--optimum" in argv:
            return {}
        return {"case/logl": next(rounds[checkout.name]) * 1e-3}

    monkeypatch.setattr(pass_times, "run", run)
    assert pass_times.main([str(ROOT / "parent"), str(ROOT / "change"), "--rounds", "4"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split()[-1] == "won" and row.split()[-1] == "2"
