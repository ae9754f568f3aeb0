"""Command-line front end: fit models from a spec and CSV, simulate
datasets, and re-check fits at escalated integration resolution.

Exit codes: 0 fitted, converged and verified, 2 fitted but not
converged, or converged at a point whose information matrix is not
positive definite (not verified), 3 input or specification error, a
command-line usage error included.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace

import numpy as np

from .data import DataError, load_csv
from .dsl import SpecSyntaxError, SpecValidationError, load_spec_file, parse_model_spec, render_spec
from .estimator import fit_model
from .optim import FitError, FitResult
from .simulate import SimulationError, simulate

__all__ = ["main"]

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_INPUT_ERROR = 3


# ---------------------------------------------------------------------------
# Result documents
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _write_tree(lines: list[str], node, indent: int = 0) -> None:
    pad = "  " * indent
    for key, value in node.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            _write_tree(lines, value, indent + 1)
        else:
            lines.append(f"{pad}{key}: {_fmt(value)}")


def result_document(result: FitResult, spec_text: str) -> str:
    doc: dict = {}
    doc["model"] = {
        "spec": spec_text,
        "parameters": len(result.names),
    }
    if result.knots:
        doc["model"]["knots"] = {k: list(map(float, v)) for k, v in result.knots.items()}
    doc["integration"] = dict(result.settings)
    doc["optimization"] = {
        "converged": result.converged,
        "optimum_verified": result.optimum_verified,
        "message": result.message,
        "iterations": result.iterations,
        "loglik": float(result.logl),
        "max_abs_gradient": float(result.grad_norm),
    }
    est: dict = {}
    for row in result.table:
        vals = [row["estimate"], row["se"], row["lo"], row["hi"]]
        est[row["name"]] = [float(v) if v is not None else "." for v in vals]
    doc["estimates"] = est
    doc["covariance"] = {
        name: [float(v) for v in result.cov[i]] for i, name in enumerate(result.names)
    }
    doc["iterations"] = {
        str(it): f"loglik {repr(float(ll))} scaled_gradient {repr(float(g))} halvings {h}"
        for it, ll, g, h in result.trace
    }
    lines: list[str] = []
    _write_tree(lines, doc)
    return "\n".join(lines) + "\n"


def estimates_csv(result: FitResult) -> str:
    out = ["name,estimate,se,lo,hi,scale"]
    for row in result.table:
        cells = [row["name"]]
        for key in ("estimate", "se", "lo", "hi"):
            v = row[key]
            cells.append("" if v is None else repr(float(v)))
        cells.append(row["scale"])
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Flag parsing helpers
# ---------------------------------------------------------------------------


def _per_level(text: str | None, cast):
    """Parse '7' or 'patient=7,trial=15' into a value or dict."""
    if text is None:
        return None
    if "=" not in text:
        return cast(text)
    out = {}
    for chunk in text.split(","):
        name, _, val = chunk.partition("=")
        if not name or not val:
            raise ValueError(f"bad per-level setting {chunk!r}, expected level=value")
        out[name.strip()] = cast(val.strip())
    return out


def _load_spec(args) -> tuple:
    """The parsed spec, with ``--covariance`` applied, and its text."""
    if args.spec and args.spec_file:
        raise SpecValidationError("give either --spec or --spec-file, not both")
    if args.spec:
        spec = parse_model_spec(args.spec)
    elif args.spec_file:
        spec = load_spec_file(args.spec_file)
    else:
        raise SpecValidationError("a model is required: --spec or --spec-file")
    if args.covariance is not None:
        spec = replace(spec, covariance=args.covariance)
    return spec, render_spec(spec)


def _fit_from_args(args, points=None, draws=None):
    spec, spec_text = _load_spec(args)
    frame = load_csv(args.data)
    if points is None:
        points = _per_level(args.points, int)
    result = fit_model(
        spec,
        frame,
        points=points,
        draws=draws if draws is not None else _per_level(args.draws, int),
        method=_per_level(args.method, str),
        redistribution=_per_level(args.redistribution, str),
        t_df=_per_level(args.df, int),
        adaptive=False if args.no_adaptive else None,
        skip=args.skip,
        gl_points=args.gl_points,
        max_iter=args.max_iter,
        threads=args.threads,
        verbose=not args.quiet,
    )
    return result, spec_text


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", help="model specification text")
    p.add_argument("--spec-file", help="file with the specification text")
    p.add_argument("--data", required=True, help="CSV data file")
    p.add_argument("--points", help="quadrature points per dimension (default 7; int or level=int,...)")
    p.add_argument("--draws", help="Monte Carlo draws (int or level=int,...)")
    p.add_argument("--skip", type=int, help="Halton burn-in count of QMC levels (default 15)")
    p.add_argument("--method", help="integration method per level: aghq|qmc or level=method,...")
    p.add_argument("--redistribution", help="random-effect distribution: normal|t (or level=...)")
    p.add_argument("--df", help="degrees of freedom for t random effects (int or level=int,...)")
    p.add_argument("--covariance", choices=["independent", "unstructured"], help="override the covariance structure")
    p.add_argument("--no-adaptive", action="store_true", help="disable mean-variance adaptation of quadrature levels")
    p.add_argument("--gl-points", type=int, default=30, help="Gauss-Legendre nodes for cumulative hazards")
    p.add_argument("--max-iter", type=int, default=300)
    p.add_argument("--threads", type=int, default=1, help="worker threads for derivative probes (default 1)")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--quiet", action="store_true", help="suppress the stderr iteration log")


def cmd_fit(args) -> int:
    result, spec_text = _fit_from_args(args)
    text = estimates_csv(result) if args.format == "csv" else result_document(result, spec_text)
    _emit(text, args.out)
    return _exit_code([result])


def _exit_code(results: list[FitResult]) -> int:
    """EXIT_OK when every fit converged to a verified optimum, else
    EXIT_NOT_CONVERGED with a warning on stderr.
    """
    if not all(r.converged for r in results):
        print("warning: optimization did not converge", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    if not all(r.optimum_verified for r in results):
        print("warning: optimum not verified (information matrix not positive definite)", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_simulate(args) -> int:
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise SimulationError("the configuration must be a JSON object")
    missing = [key for key in ("spec", "theta", "levels") if key not in cfg]
    if missing:
        raise SimulationError(f"the configuration needs {', '.join(missing)}")
    spec = cfg["spec"]
    if isinstance(spec, str) and not spec.lstrip().startswith("("):
        spec = load_spec_file(spec)
    frame = simulate(
        spec,
        cfg["theta"],
        levels=cfg["levels"],
        covariates=cfg.get("covariates"),
        outcomes=cfg.get("outcomes"),
        seed=int(cfg.get("seed", 0)),
    )
    out = args.out or cfg.get("out")
    names = frame.names
    lines = [",".join(names)]
    for i in range(frame.n):
        cells = []
        for name in names:
            v = frame.columns[name][i]
            cells.append("" if not np.isfinite(v) else format(v, ".12g"))
        lines.append(",".join(cells))
    _emit("\n".join(lines) + "\n", out)
    return EXIT_OK


def cmd_check(args) -> int:
    base, spec_text = _fit_from_args(args)
    points2 = _per_level(args.points2, int)
    draws2 = _per_level(args.draws2, int)
    if points2 is None:
        points2 = {n: lp.q + 8 for n, lp in base.plan.levels.items() if lp.method == "aghq"} or None
    if draws2 is None:
        draws2 = {n: lp.m * 4 for n, lp in base.plan.levels.items() if lp.method == "qmc"} or None
    escalated, _ = _fit_from_args(args, points=points2, draws=draws2)
    doc: dict = {"model": {"spec": spec_text}}
    shifts = {}
    max_shift = 0.0
    for row_a, row_b in zip(base.table, escalated.table):
        shift = abs(row_b["estimate"] - row_a["estimate"])
        shifts[row_a["name"]] = [float(row_a["estimate"]), float(row_b["estimate"]), float(shift)]
        max_shift = max(max_shift, shift)
    doc["integration"] = {
        "base": dict(base.settings),
        "escalated": dict(escalated.settings),
    }
    doc["estimates (base, escalated, abs shift)"] = shifts
    doc["max_abs_shift"] = float(max_shift)
    doc["loglik"] = {"base": float(base.logl), "escalated": float(escalated.logl)}
    lines: list[str] = []
    _write_tree(lines, doc)
    _emit("\n".join(lines) + "\n", args.out)
    return _exit_code([base, escalated])


class _UsageError(Exception):
    """A command line that the parser refuses, with its usage."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors: ``error``
    raises instead of exiting 2, the code of a fit that did not converge."""

    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage().rstrip()}")


@functools.cache
def _parser() -> _Parser:
    """The command line's parser, built once per process: parsing leaves
    it as it was."""
    parser = _Parser(
        prog="hiermix",
        description="Fit multilevel, multivariate mixed-effects and survival models by maximum marginal likelihood.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_fit = sub.add_parser("fit", help="fit a model to CSV data")
    _add_fit_flags(p_fit)
    p_fit.add_argument("--format", choices=["doc", "csv"], default="doc", help="result document or flat estimates CSV")
    p_fit.set_defaults(func=cmd_fit)
    p_sim = sub.add_parser("simulate", help="simulate a dataset from a spec and true parameters")
    p_sim.add_argument("--config", required=True, help="JSON simulation configuration")
    p_sim.add_argument("--out", help="output CSV path (default: stdout or config 'out')")
    p_sim.set_defaults(func=cmd_simulate)
    p_check = sub.add_parser("check", help="refit at escalated resolution and report estimate shifts")
    _add_fit_flags(p_check)
    p_check.add_argument("--points2", help="escalated quadrature points (default: points + 8)")
    p_check.add_argument("--draws2", help="escalated draw count (default: draws * 4)")
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (_UsageError, SpecSyntaxError, SpecValidationError, DataError, SimulationError, FitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
