"""Time the likelihood's entry points of two checkouts at one parameter vector.

    python tools/pass_times.py PARENT CHANGE [--tiny] [--cases A,B] [--rounds N] [--calls N] [--repeats N]

The cases are the first data set of every in-process workload of a
checkout's ``perfbench/workloads.py``, set up as ``perfbench/run.py
--seed 5`` sets it up, and the first ``rp_replicates`` data set, whose
fit runs in-process here with the command line's defaults. For each
case a ``LikelihoodEvaluator`` is built as ``fit_model`` builds it, with
the options the workload's fit passes, and ``derivatives`` (where the
model has exact derivatives), ``logl`` and ``refresh`` are timed at the
parent's optimum of that data set, the same vector on both sides;
``--tiny`` takes the workloads' TINY sizes and their start values
instead, so that nothing is fitted. ``derivatives`` and ``logl``
alternate between the vector and one ``PROBE_STEP`` away in every
coordinate, at the rule adapted there, as a fit's line-search points and
finite-difference probes do: the evaluator keeps its latest evaluation,
and a call at the vector of the call before would read it instead of
evaluating. A ``refresh`` at the vector it has
just adapted to finds every cell converged at its first sweep, so one
more entry, ``readapt``, times ``refresh`` alternating between the
vector and a nearby one, ``READAPT_STEP`` away in every coordinate (the
size of a middle Newton step of a ``nested3_aghq`` fit), so that each
call re-adapts the cells as a fit's refresh does. Another,
``iteration``, times what ``optim.maximize`` runs per iteration of an
adaptive fit at the same alternating vectors: ``logl`` (the accepted
line-search point), ``refresh`` and ``derivatives`` (``logl`` on a model
without exact derivatives), all three at one vector per call, so that
what one entry point reuses from another shows. ``--cases`` times
only the named cases (say ``--cases frailty_qmc,rp_replicates``); an
unknown name is an error.

Each round runs the timing once per side, each in a subprocess of its
own that imports that side's ``src/hiermix`` and ``perfbench/``, pins
itself to one CPU and runs with one BLAS thread; the side that runs
first alternates from round to round, starting with the parent. A
subprocess reports, per entry point, the least mean time of
``--repeats`` batches of ``--calls`` calls, after one ``refresh`` that
adapts the evaluator at the vector. The script prints, per case and
entry point, each side's median over the rounds in milliseconds with its
quartiles beside it, taken as ``tools/bench_pairs.py`` takes them (one
round is its own quartiles), so that the spread behind a ratio shows,
the ratio of the change's median to the parent's and, under ``won``,
the number of rounds in which the change was faster than the parent,
ties counting for neither side, as ``tools/bench_pairs.py`` counts its
pairs: a ratio below 1 that the change won in few rounds is noise. It
only reads ``perfbench/``.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SEED = 5
# the nearby vector of ``readapt``: this far from the timed one in every coordinate
READAPT_STEP = 0.05
# the second vector of ``logl`` and ``derivatives``: this far from the timed one in every coordinate
PROBE_STEP = 1e-6
# timed single-threaded, as perfbench/run.py fits
BLAS_THREADS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


class _Recorder:
    """The hiermix module, but ``fit_model`` records its arguments and
    fits nothing (the workload counts the raised error as a failed fit).
    """

    def __init__(self, hm):
        self._hm, self.calls = hm, []

    def __getattr__(self, name):
        return getattr(self._hm, name)

    def fit_model(self, spec, data, **options):
        self.calls.append((spec, data, options))
        raise RuntimeError("recorded, not fitted")


def cases(checkout: Path, tiny: bool, workdir: str, names: list | None) -> dict:
    """Case name -> (spec, data columns, ``default_plan`` options), with
    the checkout's code on ``sys.path``; only the cases ``names`` where
    given.
    """
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import hiermix
    import numpy as np
    from workloads import TINY, WORKLOADS

    unknown = sorted(set(names or ()) - WORKLOADS.keys())
    if unknown:
        raise SystemExit(f"unknown cases {unknown}; the cases are {sorted(WORKLOADS)}")
    out = {}
    for name, (cls, size) in WORKLOADS.items():
        if names and name not in names:
            continue
        recorder = _Recorder(hiermix)
        workload = cls(recorder, TINY[name] if tiny else size)
        item = workload.setup(np.random.default_rng(SEED), workdir)[0]
        if hasattr(workload, "fit_spec"):  # fitted through the command line
            out[name] = workload.fit_spec, item.ref["cols"], {}
            continue
        workload.fit(item)
        if recorder.calls:
            out[name] = recorder.calls[0]
    return out


def evaluator(spec, data, options):
    """A ``LikelihoodEvaluator`` of the model, built as ``fit_model`` builds it."""
    from hiermix.data import as_frame
    from hiermix.dsl import _as_spec, validate_spec
    from hiermix.likelihood import LikelihoodEvaluator, default_plan
    from hiermix.predictor import compile_program

    model, frame = _as_spec(spec), as_frame(data)
    program = compile_program(model, frame, validate_spec(model, frame))
    return LikelihoodEvaluator(program, default_plan(program, **options))


def optimum(checkout: Path, tiny: bool, names: list | None) -> dict:
    """Case -> the vector to time at: the fitted optimum, or with
    ``tiny`` the start values."""
    import numpy as np

    with tempfile.TemporaryDirectory(prefix="pass_times_") as workdir:
        found = cases(checkout, tiny, workdir, names)
        import hiermix
        from hiermix.optim import initial_values

        out = {}
        for name, (spec, data, options) in found.items():
            if tiny:
                theta = initial_values(evaluator(spec, data, options).program)
            else:
                theta = hiermix.fit_model(spec, data, **options).theta
            out[name] = np.asarray(theta, dtype=float).tolist()
    return out


def time_side(checkout: Path, tiny: bool, thetas: dict, calls: int, repeats: int, names: list | None) -> dict:
    """'case/entry point' -> seconds per call, pinned to one CPU."""
    import numpy as np

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out = {}
    with tempfile.TemporaryDirectory(prefix="pass_times_") as workdir:
        for name, (spec, data, options) in cases(checkout, tiny, workdir, names).items():
            ev = evaluator(spec, data, options)
            theta = np.array(thetas[name])
            ev.refresh(theta)
            probes = itertools.cycle((theta + PROBE_STEP, theta))
            entries = {"derivatives": lambda _: ev.derivatives(next(probes))} if ev.exact else {}
            vectors = itertools.cycle((theta + READAPT_STEP, theta))
            entries.update(logl=lambda _: ev.logl(next(probes)), refresh=ev.refresh)
            entries["readapt"] = lambda _: ev.refresh(next(vectors))
            entries["iteration"] = functools.partial(iteration, ev, itertools.cycle((theta + READAPT_STEP, theta)))
            for entry, fn in entries.items():
                best = float("inf")
                for _ in range(repeats):
                    start = time.perf_counter()
                    for _ in range(calls):
                        fn(theta)
                    best = min(best, (time.perf_counter() - start) / calls)
                out[f"{name}/{entry}"] = best
    return out


def iteration(ev, vectors, _) -> None:
    """One adaptive Newton iteration's evaluations at the next vector:
    the accepted point's ``logl``, the ``refresh`` there and the value
    and derivatives after it (a pass, or ``logl`` without exact
    derivatives)."""
    theta = next(vectors)
    ev.logl(theta)
    ev.refresh(theta)
    (ev.derivatives if ev.exact else ev.logl)(theta)


def quartiles(values: list) -> tuple:
    """(q1, median, q3) of a side's times over the rounds."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def run(checkout: Path, argv: list) -> dict:
    """The JSON line of a subprocess of this script, run in ``checkout``."""
    env = dict(os.environ, **BLAS_THREADS)
    argv = [sys.executable, str(Path(__file__).resolve())] + argv
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[2:4])} failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, nargs="?", help="checkout of the parent commit")
    parser.add_argument("change", type=Path, nargs="?", help="checkout of the change")
    parser.add_argument("--tiny", action="store_true", help="the workloads' TINY sizes, at their start values")
    parser.add_argument("--cases", help="comma-separated cases to time (default: every case)")
    parser.add_argument("--rounds", type=int, default=5, help="subprocesses per side (default 5)")
    parser.add_argument("--calls", type=int, default=20, help="calls per timed batch (default 20)")
    parser.add_argument("--repeats", type=int, default=5, help="batches per entry point (default 5)")
    parser.add_argument("--optimum", type=Path, help=argparse.SUPPRESS)  # the subprocess that finds the vectors
    parser.add_argument("--time", type=Path, help=argparse.SUPPRESS)  # a timing subprocess of one side
    parser.add_argument("--thetas", type=Path, help=argparse.SUPPRESS)  # its vectors
    args = parser.parse_args(argv)
    names = args.cases.split(",") if args.cases else None
    if args.optimum is not None:
        print(json.dumps(optimum(args.optimum.resolve(), args.tiny, names)))
        return 0
    if args.time is not None:
        thetas = json.loads(args.thetas.read_text())
        print(json.dumps(time_side(args.time.resolve(), args.tiny, thetas, args.calls, args.repeats, names)))
        return 0
    if args.parent is None or args.change is None:
        parser.error("give the PARENT and CHANGE checkouts")
    parent, change = args.parent.resolve(), args.change.resolve()
    shared = (["--tiny"] if args.tiny else []) + (["--cases", args.cases] if args.cases else [])
    times = {"parent": [], "change": []}  # by side, not by path: the two may be one checkout
    with tempfile.TemporaryDirectory(prefix="pass_times_") as workdir:
        thetas = Path(workdir) / "thetas.json"
        thetas.write_text(json.dumps(run(parent, ["--optimum", str(parent)] + shared)))
        batch = ["--thetas", str(thetas), "--calls", str(args.calls), "--repeats", str(args.repeats)] + shared
        for r in range(args.rounds):
            for side, path in (("parent", parent), ("change", change))[:: 1 if r % 2 == 0 else -1]:
                times[side].append(run(path, ["--time", str(path)] + batch))
    spread = f"{'q1':>8} {'q3':>8}"
    print(f"{'case/entry point':<34} {'parent ms':>10} {spread} {'change ms':>10} {spread} {'ratio':>7} {'won':>4}")
    for key in times["parent"][0]:
        (a1, a, a3), (b1, b, b3) = (quartiles([one[key] * 1e3 for one in runs]) for runs in times.values())
        won = sum(c[key] < p[key] for p, c in zip(times["parent"], times["change"]))
        print(f"{key:<34} {a:10.4f} {a1:8.4f} {a3:8.4f} {b:10.4f} {b1:8.4f} {b3:8.4f} {b / a:7.3f} {won:4d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
