"""``tools/same_fits.py``: every benchmark panel fitted in two checkouts
and compared bit for bit."""

import functools
import importlib.util
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_fits.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("same_fits", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_checkout_fits_its_tiny_panels_identically():
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--tiny"], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("all ") and "fits identical" in proc.stdout
    lines = load_tool().line_count(ROOT)
    assert proc.stdout.splitlines()[1] == f"src/hiermix lines: parent {lines}, change {lines} (+0)"


def test_line_count_matches_wc(tmp_path):
    package = tmp_path / "src" / "hiermix"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3")  # no newline at the end: wc -l counts 0
    (package / "notes.txt").write_text("not\ncounted\n")
    assert load_tool().line_count(tmp_path) == 2


def document(logl, estimates, iterations=5):
    """A command-line fit with a result document of the given
    log-likelihood, (estimate, standard error) rows and iterations."""
    rows = "".join(f"  b{i}: [{est!r}, {se!r}, 0.0, 1.0]\n" for i, (est, se) in enumerate(estimates))
    text = f"optimization:\n  iterations: {iterations}\n  loglik: {logl!r}\nestimates:\n{rows}"
    return SimpleNamespace(failed=None, doc=text.encode(), result=None)


def test_a_changed_byte_is_flagged(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # workloads.parse_document reads documents
    tool = load_tool()
    result = SimpleNamespace(
        theta=np.array([0.4, -0.8]),
        logl=-12.5,
        cov=np.eye(2),
        message="converged",
        iterations=5,
        profile={"likelihood_calls": 60, "derivative_passes": 0, "adaptation_sweeps": {}, "conditional_evaluations": 9},
    )
    fit = SimpleNamespace(failed=None, doc=b"", result=result)
    parent = {"a#0": tool.describe(fit), "b#0": tool.describe(document(-12.5, [(0.4, 0.1)]))}
    assert tool.differences(parent, dict(parent)) == []
    result.theta[1] = np.nextafter(result.theta[1], 0.0)
    change = {"a#0": tool.describe(fit), "b#0": tool.describe(document(-12.4, [(0.4, 0.1)]))}
    assert tool.differences(parent, change) == ["a#0: differs in theta", "b#0: differs in document, logl"]
    assert tool.differences(parent, {"a#0": parent["a#0"]}) == ["b#0: fitted on the parent side only"]


def fit_record(tool, theta, logl, se, iterations=5, calls=60, passes=0, sweeps=None, evaluations=900):
    """The record of a converged in-process fit; ``sweeps`` maps each
    adaptive level to its adaptation sweeps."""
    result = SimpleNamespace(
        theta=np.array(theta),
        logl=logl,
        cov=np.diag(np.square(se)),
        message="converged",
        iterations=iterations,
        profile={
            "likelihood_calls": calls,
            "derivative_passes": passes,
            "adaptation_sweeps": sweeps or {},
            "conditional_evaluations": evaluations,
        },
    )
    return tool.describe(SimpleNamespace(failed=None, doc=b"", result=result))


def test_a_changed_pass_count_is_flagged():
    # an exact-derivative fit makes no likelihood calls: only its pass
    # count shows a change in the steps it took
    tool = load_tool()
    parent = {"a#0": fit_record(tool, [0.4], -3.0, [0.5], calls=0, passes=6)}
    change = {"a#0": fit_record(tool, [0.4], -3.0, [0.5], calls=0, passes=7)}
    assert tool.differences(parent, change) == ["a#0: differs in derivative_passes"]
    assert tool.beyond_tolerance(parent, change) == []


def test_work_counts_print_and_more_sweeps_differ(monkeypatch, capsys):
    # fewer sweeps or evaluations print both sides' counts and differ in
    # nothing; a rise in sweeps on any level is also a difference
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tool = load_tool()
    record = functools.partial(fit_record, tool, [0.4], -3.0, [0.5])
    parent = {
        "a#0": record(sweeps={"trial": 17, "pat": 48}, evaluations=11550),
        "b#0": record(sweeps={"id": 24}, evaluations=25900),
        "c#0": tool.describe(document(-12.5, [(0.4, 0.1)])),
    }
    fewer = {**parent, "a#0": record(sweeps={"trial": 17, "pat": 42}, evaluations=8100)}
    assert tool.differences(parent, fewer) == []
    assert tool.deviations(parent, fewer) == [] and tool.beyond_tolerance(parent, fewer) == []
    assert tool.work(parent, fewer) == [
        "a#0: adaptation_sweeps {'trial': 17, 'pat': 48} -> {'trial': 17, 'pat': 42}, "
        "conditional_evaluations 11550 -> 8100"
    ]
    more = {**fewer, "b#0": record(sweeps={"id": 25}, evaluations=25900)}
    assert tool.differences(parent, more) == ["b#0: differs in adaptation_sweeps"]
    assert tool.work(parent, more)[1] == (
        "b#0: adaptation_sweeps {'id': 24} -> {'id': 25}, conditional_evaluations 25900 -> 25900"
    )
    for change, status in ((fewer, 0), (more, 1)):
        sides = iter([parent, change])
        monkeypatch.setattr(tool, "run_side", lambda checkout, tiny: next(sides))
        assert tool.main([str(ROOT), str(ROOT)]) == status
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == [tool.work(parent, fewer)[0], "all 3 fits identical (0 failed on both sides)"]
    assert out[3:6] == ["b#0: differs in adaptation_sweeps", *tool.work(parent, more)]


def test_more_conditional_evaluations_differ(monkeypatch, capsys):
    # an inner level integrated again after its adaptation has swept
    # leaves the sweeps and every result as they were: only the
    # conditional evaluations rise, and that is a difference
    tool = load_tool()
    record = functools.partial(fit_record, tool, [0.4], -3.0, [0.5])
    parent = {"a#0": record(sweeps={"id": 23, "sub": 96}, evaluations=48150)}
    change = {"a#0": record(sweeps={"id": 23, "sub": 96}, evaluations=58500)}
    assert tool.differences(parent, change) == ["a#0: differs in conditional_evaluations"]
    assert tool.differences(change, parent) == []
    both = {"a#0": record(sweeps={"id": 24, "sub": 96}, evaluations=58500)}
    assert tool.differences(parent, both) == ["a#0: differs in adaptation_sweeps, conditional_evaluations"]
    sides = iter([parent, change])
    monkeypatch.setattr(tool, "run_side", lambda checkout, tiny: next(sides))
    assert tool.main([str(ROOT), str(ROOT)]) == 1
    assert capsys.readouterr().out.splitlines()[:2] == [
        "a#0: differs in conditional_evaluations",
        "a#0: adaptation_sweeps {'id': 23, 'sub': 96} -> {'id': 23, 'sub': 96}, conditional_evaluations 48150 -> 58500",
    ]


def test_deviations_of_a_differing_fit(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tool = load_tool()
    record = functools.partial(fit_record, tool)
    parent = {"a#0": record([0.4, -0.8, 1.0], -1000.0, [0.1, 0.2, 0.0], 5), "b#0": record([1.0], -3.0, [0.5], 2)}
    parent["c#0"] = tool.describe(document(-12.5, [(0.4, 0.1), (2.0, 0.5)], 7))
    # a pinned slot (standard error 0) moves: its shift is not counted
    change = {
        "a#0": record([0.41, -0.8, 3.0], -1000.001, [0.1, 0.21, 0.0], 4),
        "b#0": parent["b#0"],
        "c#0": tool.describe(document(-12.5 * (1 + 4e-6), [(0.41, 0.1), (2.0, 0.5 * (1 + 2e-3))], 6)),
    }
    lines = tool.deviations(parent, change)
    assert lines == [
        "a#0: logl 1e-06 relative, theta 0.1 SE, SE 0.05 relative, iterations -1",
        "c#0: logl 4e-06 relative, estimates 0.1 SE, SE 0.002 relative, iterations -1",
    ]
    assert tool.differences(parent, change) == [
        "a#0: differs in cov, iterations, logl, theta",
        "c#0: differs in document, estimates, iterations, logl, se",
    ]
    # a document whose standard error is "." reads NaN, and counts no shift
    unverified = tool.describe(SimpleNamespace(failed=None, doc=document(-12.5, [(0.4, 0.1)]).doc.replace(b"0.1,", b".,"), result=None))
    moved = tool.describe(document(-12.5, [(0.9, 0.1)]))
    assert tool.deviations({"d#0": unverified}, {"d#0": moved}) == [
        "d#0: logl 0 relative, estimates 0 SE, SE 0 relative, iterations +0"
    ]


def test_tolerance_mode(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tool = load_tool()
    record = functools.partial(fit_record, tool)
    parent = {
        "a#0": record([0.4, -0.8], -1000.0, [0.1, 0.2]),
        "b#0": record([1.0], -3.0, [0.5]),
        "c#0": tool.describe(document(-12.5, [(0.4, 0.1)])),
    }
    # within the gates: rounding-level moves, and fewer likelihood calls;
    # a document's numbers, read from it, take the same gates
    close = {
        **parent,
        "a#0": record([0.4 + 9e-8, -0.8], -1000.0 * (1 + 9e-11), [0.1 * (1 + 9e-7), 0.2], calls=0),
        "c#0": tool.describe(document(-12.5 * (1 + 9e-11), [(0.4 + 9e-8, 0.1 * (1 + 9e-7))])),
    }
    assert tool.beyond_tolerance(parent, close) == []
    assert tool.differences(parent, close) == [
        "a#0: differs in cov, likelihood_calls, logl, theta",
        "c#0: differs in document, estimates, logl, se",
    ]
    beyond = {
        "a#0": record([0.4 + 2e-7, -0.8], -1000.0 * (1 + 2e-10), [0.1, 0.2 * (1 + 2e-6)]),
        "b#0": record([1.0], -3.0, [0.5], iterations=6),
        "c#0": tool.describe(document(-12.5 * (1 + 2e-10), [(0.4 + 2e-7, 0.1 * (1 + 2e-6))])),
    }
    assert tool.beyond_tolerance(parent, beyond) == [
        "a#0: logl 2e-10 > 1e-10, theta 2e-07 > 1e-07, SE 2e-06 > 1e-06",
        "b#0: differs in iterations",
        "c#0: logl 2e-10 > 1e-10, estimates 2e-07 > 1e-07, SE 2e-06 > 1e-06",
    ]
    # a document whose iteration count differs is beyond the gates
    slower = {**parent, "c#0": tool.describe(document(-12.5, [(0.4, 0.1)], iterations=6))}
    assert tool.beyond_tolerance(parent, slower) == ["c#0: differs in iterations"]
    # a standard error the change no longer reports is beyond the gates
    unverified = {**parent, "b#0": record([1.0], -3.0, [np.nan])}
    assert tool.beyond_tolerance(parent, unverified) == ["b#0: SE nan > 1e-06"]
    assert tool.beyond_tolerance(parent, {"a#0": parent["a#0"]}) == [
        "b#0: fitted on the parent side only",
        "c#0: fitted on the parent side only",
    ]

    # the exit status: bit for bit by default, the gates with --tolerance
    for change, flags, status in ((close, [], 1), (close, ["--tolerance"], 0), (beyond, ["--tolerance"], 1)):
        sides = iter([parent, change])
        monkeypatch.setattr(tool, "run_side", lambda checkout, tiny: next(sides))
        assert tool.main([str(ROOT), str(ROOT), *flags]) == status
    out = capsys.readouterr().out
    assert "all 3 fits within tolerance (2 differ)" in out
    assert "beyond tolerance: b#0: differs in iterations" in out
