"""Fit benchmark for hiermix.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; hiermix is imported from its
``src/`` directory. The run pins itself to one CPU. With ``--trace 0`` it
fits whole rounds over the workload's panel and reports the end-to-end
metrics. The number of rounds is fixed by S and the workload's nominal
fit time, never by how fast this run goes, so every run of a workload
does the same fits. Its times are wall times scaled to the reference
speed of the host by ``hostprobe.py``, which samples the speed of the
same CPU all through the set-ups and fits. With
``--trace 1`` every fit of a round is made twice, untraced and then
traced, and the run reports per-layer metrics from the traced fits and
the difference between the two as the tracing overhead. Metric names and
units come from ``BENCHMARK.json``. The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``. A
failed correctness check exits with status 1; a checkout without
``src/hiermix`` or ``BENCHMARK.json`` exits with status 2 before
measuring anything.
"""

from __future__ import annotations

import os

# fits run single-threaded; fix the BLAS pools before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUPS = 9  # set-ups per run, each with a fresh-process import; setup_s is their median
TAIL_MIN = 40  # fits needed before fit_tail_s is a tail rather than the median


def tail(values: list[float]) -> float:
    """The highest percentile with at least ten values beyond it, or the
    median when there are fewer than TAIL_MIN values.
    """
    if len(values) < TAIL_MIN:
        return statistics.median(values)
    return sorted(values)[len(values) - 11]


def fresh_import() -> tuple[float, float]:
    """Time ``import hiermix`` in a new interpreter, numpy and scipy
    included, as a user's process pays it: its start on the
    ``time.perf_counter`` clock, which all processes share, and seconds.
    """
    code = "import time; t = time.perf_counter(); import hiermix; print(t, time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    start, seconds = map(float, proc.stdout.split())
    return start, seconds


def same_result(a, b) -> bool:
    if a.doc or b.doc:
        return a.doc == b.doc
    if a.theta is None or b.theta is None:
        return a.failed == b.failed
    return a.theta.tobytes() == b.theta.tobytes() and a.logl == b.logl


class Run:
    """Counts, failures and check results of one run of one workload."""

    def __init__(self, workload, seed: int, seconds: float):
        import numpy as np

        self.workload = workload
        self.rng = np.random.default_rng([seed, 1])  # fit order; set-up draws its own stream
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first: dict = {}  # data set key -> (item, its first fit)
        self.failures: dict = {}  # data set key -> reason

    def record(self, item, fit) -> None:
        """Count a fit. Every later fit of a data set, in whatever row
        order and whether traced or not, must give the first one's result
        bit for bit.
        """
        self.attempted += 1
        if fit.failed:
            self.failed += 1
            self.failures[item.key] = fit.failed
        if item.key not in self.first:
            self.first[item.key] = (item, fit)
        elif not same_result(self.first[item.key][1], fit):
            self.errors.append(f"{item.key}: a second fit of the same data gave a different result")

    def check(self) -> None:
        """Check each data set's first fit, unless it failed. This runs
        after the timed rounds, so that the references' memory and time
        stay out of them.
        """
        for key, (item, fit) in sorted(self.first.items()):
            problem = None if fit.failed else self.workload.check(item, fit)
            if problem:
                self.errors.append(f"{key}: {problem}")

    def rounds(self, items, one_round, passes: int = 1) -> int:
        """Whole rounds over the panel, each in a seed-shuffled order. A
        round makes ``passes`` fits per item and is nominally
        ``passes * len(items) * nominal_fit_s`` seconds long; the run makes
        as many as fit in its seconds, at least one.
        """
        round_s = passes * len(items) * self.workload.nominal_fit_s
        n = max(1, int(self.seconds // round_s))
        for _ in range(n):
            order = self.rng.permutation(len(items))
            one_round([items[i] for i in order])
        return n


def end_to_end(run: Run, items, setups: list[list[tuple[float, float]]], probe) -> dict:
    """Time the rounds, then stop the probe and scale every timed interval
    (a fit, or a set-up's parts) to the reference speed.
    """
    fits: list = []

    def one_round(batch):
        for item in batch:
            fit = run.workload.fit(item)
            fits.append(fit)
            run.record(item, fit)
            # a fit leaves reference cycles behind; without a collection
            # here the peak grows with the number of fits in the run
            gc.collect()

    n_rounds = run.rounds(items, one_round)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe.stop()
    run.check()
    times = [probe.scaled(fit.start, fit.seconds) for fit in fits]
    walls = [fit.seconds for fit in fits]
    slowdowns = [probe.slowdown(fit.start, fit.start + fit.seconds) for fit in fits]
    print(
        f"{run.workload.name}: {len(times)} fits in {n_rounds} rounds, "
        f"per-fit seconds at reference speed min {min(times):.4f} median {statistics.median(times):.4f} "
        f"max {max(times):.4f}; wall median {statistics.median(walls):.4f}, host slowdown "
        f"{min(slowdowns):.3f} to {max(slowdowns):.3f}; fit_tail_s is "
        f"{'a tail' if len(times) >= TAIL_MIN else 'the median'} ({len(times)} fits, {TAIL_MIN} needed)"
    )
    return {
        "fit_s": statistics.median(times),
        "fit_tail_s": tail(times),
        "setup_s": statistics.median(sum(probe.scaled(*part) for part in parts) for parts in setups),
        "peak_rss_mb": rss_mb,
    }


def per_layer(run: Run, items, tracer, setup_tracer_s: float) -> dict:
    from spans import PHASES

    pairs = []

    def one_round(batch):
        for item in batch:
            plain = run.workload.fit(item)
            run.record(item, plain)
            fid = f"fit{len(pairs)}"
            tracer.begin_fit(fid)
            tracer.install()
            try:
                traced = run.workload.fit(item)
            finally:
                tracer.uninstall()
            # record() holds the traced fit to the untraced one, bit for bit
            run.record(item, traced)
            pairs.append((fid, plain, traced))

    n_rounds = run.rounds(items, one_round, passes=2)
    run.check()
    total: dict = {}
    for fid, plain, traced in pairs:
        self_s = lambda key: tracer.total(fid, key)
        calls = lambda key: tracer.total(fid, key, "calls")
        phase = {p: tracer.phase_calls.get((fid, p), 0) for p in PHASES}
        result = tracer.results.get(fid)
        profile = result.profile if result is not None else {}
        n_obj = calls("likelihood.objective")
        if result is not None and sum(phase.values()) != profile["likelihood_calls"]:
            run.errors.append(f"{fid}: objective calls by phase {phase} do not sum to {profile['likelihood_calls']}")
        iters = list(profile.get("adaptation_iterations", {}).values())
        values = {
            "dsl.validate_s": self_s("dsl.validate"),
            "data.hierarchy_calls": calls("data.hierarchy"),
            "data.load_csv_s": self_s("data.load_csv"),
            "predictor.compile_s": self_s("predictor.compile"),
            "predictor.eta_calls": calls("predictor.eta"),
            "predictor.eta_s": self_s("predictor.eta"),
            "predictor.ev_s": self_s("predictor.ev"),
            "predictor.outcome_logl_calls": calls("predictor.outcome_logl"),
            "predictor.outcome_logl_s": self_s("predictor.outcome_logl"),
            "families.s": self_s("families"),
            "basis.calls": calls("basis"),
            "basis.s": self_s("basis"),
            "integrate.adapt_calls": calls("integrate.adapt"),
            "integrate.adapt_s": self_s("integrate.adapt"),
            "integrate.draws_s": self_s("integrate.draws"),
            "likelihood.objective_calls": n_obj,
            "likelihood.call_ms": 1000.0 * tracer.total(fid, "likelihood.objective", "inclusive") / max(n_obj, 1),
            "likelihood.refresh_calls": calls("likelihood.refresh"),
            "likelihood.refresh_s": self_s("likelihood.refresh"),
            "likelihood.reduce_calls": calls("likelihood.reduce"),
            "likelihood.reduce_s": self_s("likelihood.reduce"),
            "likelihood.cond_evals": profile.get("conditional_evaluations", 0),
            "likelihood.adapt_iters_mean": statistics.fmean(iters) if iters else 0.0,
            "likelihood.adapt_fallbacks": len(profile.get("adaptation_fallbacks", [])),
            "optim.iterations": result.iterations if result is not None else 0,
            "optim.grad_calls": phase["grad"],
            "optim.hess_calls": phase["hess"],
            "optim.search_calls": phase["search"],
            "optim.refresh_eval_calls": phase["refresh_eval"],
            "optim.step_accept_ratio": len(result.trace) / phase["search"] if result and phase["search"] else 0.0,
            "optim.initial_values_s": self_s("optim.initial_values"),
            "optim.result_s": self_s("optim.result"),
            "cli.document_s": self_s("cli.document"),
            "trace.overhead_s": traced.seconds - plain.seconds,
        }
        for name, value in values.items():
            total[name] = total.get(name, 0.0) + value
    metrics = {name: value / len(pairs) for name, value in total.items()}
    metrics["simulate.s"] = setup_tracer_s
    print(f"{run.workload.name}: {len(pairs)} traced fits in {n_rounds} rounds; absent targets: {tracer.absent or 'none'}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small panels, for selfcheck.py")
    args = parser.parse_args(argv)

    if not (SRC / "hiermix" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no hiermix sources under {SRC} or no BENCHMARK.json; run from a source checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import hiermix
    import numpy as np

    sys.path.insert(0, str(HERE))
    from workloads import TINY, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (have {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    cls, size = WORKLOADS[args.workload]
    workload = cls(hiermix, TINY[args.workload] if args.tiny else size)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    run = Run(workload, args.seed, args.seconds)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # one CPU for the fits, the fresh imports and the probe, so that the
    # probe samples the speed of the core the timed work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from hostprobe import HostProbe

    probe = HostProbe(workdir / "probe.txt")
    try:
        if tracer is None:
            probe.start()
        setups = []
        for i in range(SETUPS):
            imported = fresh_import()
            if tracer is not None:
                tracer.begin_fit(f"setup{i}")
                tracer.install()
            t0 = time.perf_counter()
            try:
                items = workload.setup(np.random.default_rng(args.seed), str(workdir))
            finally:
                if tracer is not None:
                    tracer.uninstall()
            setups.append([imported, (t0, time.perf_counter() - t0)])
        if tracer is None:
            metrics = end_to_end(run, items, setups, probe)
            section = "end_to_end"
        else:
            simulate_s = statistics.fmean(tracer.total(f"setup{i}", "simulate") for i in range(SETUPS))
            metrics = per_layer(run, items, tracer, simulate_s)
            section = "per_layer"
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    for key, reason in sorted(run.failures.items()):
        print(f"failed: {key}: {reason}")
    for err in run.errors:
        print(f"check failed: {err}")
    print(
        json.dumps(
            {
                "correct": not run.errors,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in bench[section]},
            }
        )
    )
    return 0 if not run.errors else 1


if __name__ == "__main__":
    sys.exit(main())
