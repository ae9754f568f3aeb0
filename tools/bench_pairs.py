"""Run the benchmark in alternating parent/change pairs and record them.

Each pair runs ``perfbench/run.py`` once in each of two source
checkouts, with the same ``--seed``, ``--seconds`` and ``--trace``; the
side that runs first alternates from pair to pair, starting with the
parent. The end-to-end metrics of every run, their per-side medians and
quartiles, how many pairs the change won on each metric (ties count for
neither side), the seeds, and whether every run's checks passed are
written to a JSON file, under the workload's name; a file that already
holds other workloads keeps them.

    python tools/bench_pairs.py --parent ../parent --change . \\
        --workload frailty_qmc --pairs 10 --out BENCH_6.json

Both sides import their code in the same bytecode state: each gets its
own empty ``PYTHONPYCACHEPREFIX`` directory, made once per invocation
(under ``TMPDIR``) and shared by all of that side's runs, and
``PYTHONDONTWRITEBYTECODE`` is dropped from their environment. Neither
side compiles its package more often than the other, whatever
``__pycache__`` directories its checkout holds.

Metric names, units and directions come from the change's
``BENCHMARK.json``. A gain is claimed for a metric (``claim`` in the
output) only over at least ten pairs, none of which has more failed
operations on the change's side than on the parent's, and only when the
change wins at least nine tenths of the pairs and the medians differ by
more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int, env: dict) -> dict:
    """One benchmark run; its JSON summary line, or the failure."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", format(seconds, "g"), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, env=env)
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    if not lines:
        return {"correct": False, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    summary = json.loads(lines[-1])
    summary["exit_code"] = proc.returncode
    return summary


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


MIN_PAIRS = 10  # pairs needed before a gain is claimed


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    # a run without a summary line failed everything it attempted
    no_worse = all(
        change.get("failed", math.inf) <= parent.get("failed", math.inf) for parent, change in zip(runs[0::2], runs[1::2])
    )
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = []
        for parent, change in zip(runs[0::2], runs[1::2]):
            try:
                pairs.append((parent["metrics"][name]["value"], change["metrics"][name]["value"]))
            except KeyError:
                continue
        if len(pairs) < 2:
            continue
        wins = sum((c < p) if lower else (c > p) for p, c in pairs)
        sides = {"parent": quartiles([p for p, _ in pairs]), "change": quartiles([c for _, c in pairs])}
        gap = abs(sides["change"]["median"] - sides["parent"]["median"])
        improved = (sides["change"]["median"] < sides["parent"]["median"]) == lower
        # a per-layer metric can read 0 on the parent (a layer the workload does not use)
        relative = sides["change"]["median"] / sides["parent"]["median"] - 1.0 if sides["parent"]["median"] else None
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            **sides,
            "pairs": len(pairs),
            "change_wins": wins,
            "relative_change": relative,
            "claim": len(pairs) >= MIN_PAIRS
            and no_worse
            and improved
            and wins >= 0.9 * len(pairs)
            and gap > sides["parent"]["q3"] - sides["parent"]["q1"],
        }
    return out


def side_env(cache: Path) -> dict:
    """The environment of one side's runs: bytecode written to and read
    from ``cache`` only."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(cache)
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1, help="pair i runs with seed first-seed + i")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []  # parent, change, parent, change, ... whatever order they ran in
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as caches:
        envs = {side: side_env(Path(caches) / side) for side in sides}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            done = {}
            for side in order:
                done[side] = {"pair": i, "side": side, "seed": seed, "first": side == order[0]}
                done[side].update(run_once(sides[side], args.workload, seed, args.seconds, args.trace, envs[side]))
                values = {k: v["value"] for k, v in done[side].get("metrics", {}).items()}
                print(f"pair {i} seed {seed} {side}: correct={done[side].get('correct')} {values}", flush=True)
            runs += [done["parent"], done["change"]]

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record[args.workload] = {
        "command": f"perfbench/run.py --workload {args.workload} --seconds {args.seconds:g} --trace {args.trace}",
        "seeds": [args.first_seed + i for i in range(args.pairs)],
        "all_checks_passed": all(r.get("correct") is True for r in runs),
        "summary": summarize(runs, metrics),
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if record[args.workload]["all_checks_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
