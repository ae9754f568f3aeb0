"""Check that two source checkouts fit every benchmark panel to the same bits.

    python tools/same_fits.py PARENT CHANGE [--tiny] [--tolerance]

Each checkout fits, in a subprocess of its own and with its own
``src/hiermix``, every data set of every workload in its
``perfbench/workloads.py`` (the three of ``BENCHMARK.json`` and
``joint_ev``), in both row orders where the panel has two. The set-up is
``perfbench/run.py --seed 5``'s: the panels draw from
``np.random.default_rng(5)``. ``--tiny`` takes the workloads' TINY sizes.
It also fits, from their start values, the ``_PER_CLUSTER`` models of its
``tests/test_likelihood.py`` (keyed ``per_cluster/<case>#0``), which take
paths that no panel does: non-adaptive quadrature, Gaussian outcomes on
shared nodes, two outcomes, QMC inside adaptive quadrature and adaptive
quadrature with a t kernel.

The in-process fits are compared on theta, log-likelihood, covariance,
message, iteration count, ``likelihood_calls`` and ``derivative_passes``
(an exact-derivative fit makes likelihood calls only at the line-search
points of adaptive quadrature). Their ``adaptation_sweeps`` and
``conditional_evaluations`` count work, not results, and are not
compared, but a rise in either is a difference: a fit whose sweeps rose
on any level differs in ``adaptation_sweeps``, and one with more
conditional evaluations in ``conditional_evaluations``. The
command-line fits (``rp_replicates``) are compared on the bytes of
their result documents and on the
log-likelihood, estimates, standard errors and iteration count read
from them (``workloads.parse_document``); a fit that fails must fail
with the same reason. The script prints one line per fit that differs,
or "all N fits identical" and how many of them failed on both sides,
then each checkout's ``src/hiermix`` line count, and exits 1 on any
difference. For each in-process fit whose work counts differ it prints
both sides' counts, and for each differing
fit that has numbers on both sides it then prints how far they moved:
the log-likelihood's relative difference, the largest |change in theta|
(a document's estimates) over the parent's standard error, the largest
relative difference of the standard errors (slots with a parent
standard error only) and the change in the iteration count.

With ``--tolerance`` the script exits 0 also when fits differ, as long
as every differing fit fails alike on both sides, keeps its message and
iteration count, and stays within the gates for changes that move
rounding: log-likelihood within 1e-10 relative, every |change in theta|
(a document's estimates) within 1e-7, and each standard error the
parent reports within 1e-6 relative. A document's numbers are those
read from it. It then prints one line per fit outside them, or "all N fits
within tolerance" and how many differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = 5
# the --tolerance gates: log-likelihood (relative), theta (absolute),
# standard errors (relative)
LOGL_RTOL, THETA_ATOL, SE_RTOL = 1e-10, 1e-7, 1e-6
# fits run single-threaded, as in perfbench/run.py
BLAS_THREADS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
# an in-process fit's work counts: printed where they differ, a difference only where they rise
WORK = ("adaptation_sweeps", "conditional_evaluations")


def fit_panels(checkout: Path, tiny: bool) -> dict:
    """Fit every panel and every ``_PER_CLUSTER`` model with the
    checkout's code; one record per fit, keyed ``workload/data set#n`` for
    the n-th fit of that data set.
    """
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench"), str(checkout / "tests")]
    import hiermix
    import numpy as np
    from test_likelihood import _PER_CLUSTER
    from workloads import TINY, WORKLOADS, _fit_in_process

    records = {}
    with tempfile.TemporaryDirectory(prefix="same_fits_") as workdir:
        for name, (cls, size) in WORKLOADS.items():
            workload = cls(hiermix, TINY[name] if tiny else size)
            for item in workload.setup(np.random.default_rng(SEED), workdir):
                n = sum(key.startswith(f"{name}/{item.key}#") for key in records)
                records[f"{name}/{item.key}#{n}"] = describe(workload.fit(item))
    for case, (build, spec, options) in sorted(_PER_CLUSTER.items()):
        records[f"per_cluster/{case}#0"] = describe(_fit_in_process(hiermix, spec, build(), **options))
    return records


def describe(fit) -> dict:
    """What must match bit for bit: exact hex forms of the numbers, and a
    result document's digest with the numbers read from it (``read``).
    """
    record = {"failed": fit.failed}
    if fit.doc:
        record["document"] = hashlib.sha256(fit.doc).hexdigest()
        record.update(read(fit.doc))
    elif fit.result is not None:
        res = fit.result
        record.update(
            theta=res.theta.tobytes().hex(),
            logl=float(res.logl).hex(),
            cov=res.cov.tobytes().hex(),
            message=res.message,
            iterations=res.iterations,
            likelihood_calls=res.profile["likelihood_calls"],
            derivative_passes=res.profile["derivative_passes"],
            **{name: res.profile[name] for name in WORK},
        )
    return record


def read(doc: bytes) -> dict:
    """A result document's log-likelihood, estimates, standard errors
    ("." reads NaN) and iteration count, in exact hex forms.
    """
    import numpy as np
    from workloads import _numbers, parse_document

    tree = parse_document(doc.decode())
    table = np.array([_numbers(row)[:2] for row in tree["estimates"].values()]).reshape(-1, 2)
    return dict(
        logl=float(tree["optimization"]["loglik"]).hex(),
        estimates=table[:, 0].tobytes().hex(),
        se=table[:, 1].tobytes().hex(),
        iterations=int(tree["optimization"]["iterations"]),
    )


def more_work(a: dict, b: dict) -> list[str]:
    """The work counts that rose from record a to record b:
    ``adaptation_sweeps`` where some level swept more often,
    ``conditional_evaluations`` where there are more of them."""
    before, after = a.get("adaptation_sweeps", {}), b.get("adaptation_sweeps", {})
    rose = ["adaptation_sweeps"] if any(n > before.get(level, 0) for level, n in after.items()) else []
    if b.get("conditional_evaluations", 0) > a.get("conditional_evaluations", 0):
        rose.append("conditional_evaluations")
    return rose


def differences(parent: dict, change: dict) -> list[str]:
    """One line per fit whose records differ, naming the fields; of the
    work counts, only a rise is a difference (``more_work``).
    """
    lines = []
    for key in sorted(parent.keys() | change.keys()):
        if key not in parent or key not in change:
            lines.append(f"{key}: fitted on the {'change' if key in change else 'parent'} side only")
            continue
        a, b = parent[key], change[key]
        fields = [f for f in sorted(a.keys() | b.keys()) if f not in WORK and a.get(f) != b.get(f)]
        fields += more_work(a, b)
        if fields:
            lines.append(f"{key}: differs in {', '.join(fields)}")
    return lines


def results(record: dict) -> dict:
    """A fit's record less its work counts."""
    return {field: value for field, value in record.items() if field not in WORK}


def work(parent: dict, change: dict) -> list[str]:
    """One line per fit whose work counts differ, with both sides'."""
    lines = []
    for key in sorted(parent.keys() & change.keys()):
        a, b = parent[key], change[key]
        if any(a.get(name) != b.get(name) for name in WORK):
            lines.append(f"{key}: " + ", ".join(f"{name} {a.get(name)} -> {b.get(name)}" for name in WORK))
    return lines


def numbers(record: dict) -> tuple:
    """(log-likelihood, theta, standard errors) of an in-process fit, and
    (log-likelihood, estimates, standard errors) of a document.
    """
    import numpy as np

    if "document" in record:
        estimates, se = (np.frombuffer(bytes.fromhex(record[name])) for name in ("estimates", "se"))
        return float.fromhex(record["logl"]), estimates, se
    theta = np.frombuffer(bytes.fromhex(record["theta"]))
    cov = np.frombuffer(bytes.fromhex(record["cov"])).reshape(theta.size, theta.size)
    return float.fromhex(record["logl"]), theta, np.sqrt(np.diag(cov))


def deviations(parent: dict, change: dict) -> list[str]:
    """One line per fit whose records differ and hold numbers on both
    sides, with how far the change's numbers moved from the parent's (see
    the module docstring).
    """
    import numpy as np

    lines = []
    for key in sorted(parent.keys() & change.keys()):
        a, b = parent[key], change[key]
        if results(a) == results(b) or "logl" not in a or "logl" not in b:
            continue
        (la, ta, sa), (lb, tb, sb) = numbers(a), numbers(b)
        has_se = sa > 0
        with np.errstate(invalid="ignore", divide="ignore"):
            shift = float(np.max(np.abs(tb - ta)[has_se] / sa[has_se], initial=0.0))
            se = float(np.max(np.abs(sb - sa)[has_se] / sa[has_se], initial=0.0))
        values = "estimates" if "document" in a else "theta"
        lines.append(
            f"{key}: logl {abs(lb - la) / max(abs(la), 1e-300):.3g} relative, {values} {shift:.3g} SE, "
            f"SE {se:.3g} relative, iterations {b['iterations'] - a['iterations']:+d}"
        )
    return lines


def beyond_tolerance(parent: dict, change: dict) -> list[str]:
    """One line per fit that differs by more than ``--tolerance`` allows
    (see the module docstring); a number that is not finite on one side
    only is beyond it.
    """
    import numpy as np

    lines = []
    for key in sorted(parent.keys() | change.keys()):
        a, b = parent.get(key), change.get(key)
        if a == b:
            continue
        if a is None or b is None or "logl" not in a or "logl" not in b:
            lines += differences({} if a is None else {key: a}, {} if b is None else {key: b})
            continue
        kept = [f for f in ("failed", "message", "iterations") if a.get(f) != b.get(f)]
        if kept:
            lines.append(f"{key}: differs in {', '.join(kept)}")
            continue
        (la, ta, sa), (lb, tb, sb) = numbers(a), numbers(b)
        has_se = sa > 0
        values = "estimates" if "document" in a else "theta"
        with np.errstate(invalid="ignore", divide="ignore"):
            gaps = {
                "logl": (abs(lb - la) / max(abs(la), 1e-300), LOGL_RTOL),
                values: (float(np.max(np.abs(tb - ta), initial=0.0)), THETA_ATOL),
                "SE": (float(np.max(np.abs(sb - sa)[has_se] / sa[has_se], initial=0.0)), SE_RTOL),
            }
        beyond = [f"{name} {gap:.3g} > {bound:g}" for name, (gap, bound) in gaps.items() if not gap <= bound]
        if beyond:
            lines.append(f"{key}: {', '.join(beyond)}")
    return lines


def line_count(checkout: Path) -> int:
    """Lines in the checkout's ``src/hiermix`` Python files, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src" / "hiermix").glob("*.py"))


def run_side(checkout: Path, tiny: bool) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()), "--fits", str(checkout)] + (["--tiny"] if tiny else [])
    env = dict(os.environ, **BLAS_THREADS)
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"fitting in {checkout} failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, nargs="?", help="checkout of the parent commit")
    parser.add_argument("change", type=Path, nargs="?", help="checkout of the change")
    parser.add_argument("--tiny", action="store_true", help="the workloads' TINY panel sizes")
    parser.add_argument(
        "--tolerance", action="store_true", help="pass fits that differ within the gates of the module docstring"
    )
    parser.add_argument("--fits", type=Path, help=argparse.SUPPRESS)  # the subprocess of one side
    args = parser.parse_args(argv)
    if args.fits is not None:
        print(json.dumps(fit_panels(args.fits.resolve(), args.tiny)))
        return 0
    if args.parent is None or args.change is None:
        parser.error("give the PARENT and CHANGE checkouts")
    parent, change = (run_side(side.resolve(), args.tiny) for side in (args.parent, args.change))
    lines = differences(parent, change)
    for line in lines + work(parent, change) + deviations(parent, change):
        print(line)
    if not lines:
        failed = sum(record["failed"] is not None for record in parent.values())
        print(f"all {len(parent)} fits identical ({failed} failed on both sides)")
    lines_parent, lines_change = (line_count(side) for side in (args.parent, args.change))
    print(f"src/hiermix lines: parent {lines_parent}, change {lines_change} ({lines_change - lines_parent:+d})")
    if not args.tolerance or not lines:
        return 1 if lines else 0
    beyond = beyond_tolerance(parent, change)
    for line in beyond:
        print(f"beyond tolerance: {line}")
    if not beyond:
        print(f"all {len(parent | change)} fits within tolerance ({len(lines)} differ)")
    return 1 if beyond else 0


if __name__ == "__main__":
    sys.exit(main())
