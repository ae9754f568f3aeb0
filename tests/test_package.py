"""The package exports the names README documents, and nothing else;
importing it loads numpy but not scipy, which the functions that need
scipy.special import at their first call.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import hiermix

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
DOCUMENTED = ["FitResult", "MixedModel", "fit_model", "load_spec_file", "register_user_family", "save_spec_file", "simulate"]


def test_exports_are_the_documented_names():
    assert sorted(hiermix.__all__) == DOCUMENTED
    text = README.read_text()
    for name in DOCUMENTED:
        assert re.search(rf"\b{name}\b", text), f"{name} is not documented in README"
    namespace = {}
    exec("from hiermix import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == DOCUMENTED


# the last line of every script below: the scipy modules it has loaded
SCIPY_LOADED = "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"


def _fresh(script: str, *args: str) -> list[str]:
    """Run ``script`` in a new interpreter that imports hiermix from this
    checkout; the names of the scipy modules loaded when it ended.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-c", "import sys\n" + script + SCIPY_LOADED, *args]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def _simulated_fit(spec: str, theta: dict, outcomes: list, simulated: str = "", **options) -> str:
    """A script that simulates ``spec`` (or ``simulated``) at ``theta`` on
    40 clusters, fits ``spec`` with ``options`` and fails unless the
    log-likelihood is finite.
    """
    return f"""
import math
import hiermix as hm
frame = hm.simulate({simulated or spec!r}, {theta!r}, levels={{"id": 40}}, outcomes={outcomes!r}, seed=5)
result = hm.fit_model({spec!r}, frame, **{options!r})
assert math.isfinite(result.logl), result.logl
"""


def test_import_loads_no_scipy():
    assert _fresh("import hiermix") == []


def test_rp_fit_through_the_command_line_loads_no_scipy(tmp_path):
    cfg = {
        "spec": "(t trt M1[id], family(weibull, failure(d)))",
        "theta": {"trt": 0.4, "_cons": -0.8, "ln_gamma": 0.26, "ln_sd(M1)": -0.51},
        "levels": {"id": 40},
        "covariates": {"trt": {"dist": "bernoulli", "p": 0.5}},
        "outcomes": [{"censoring": 5.0, "records": 2}],
        "seed": 3,
    }
    (tmp_path / "sim.json").write_text(json.dumps(cfg))
    script = """
from hiermix.cli import main
folder = sys.argv[1]
assert main(["simulate", "--config", folder + "/sim.json", "--out", folder + "/sim.csv"]) == 0
spec = "(t trt M1[id], family(rp, failure(d) scale(h) df(3)))"
assert main(["fit", "--spec", spec, "--data", folder + "/sim.csv", "--out", folder + "/fit.txt", "--quiet"]) == 0
"""
    assert _fresh(script, str(tmp_path)) == []
    assert "loglik" in (tmp_path / "fit.txt").read_text()


def test_gaussian_random_intercept_fit_loads_no_scipy():
    theta = {"x": 0.5, "_cons": 1.0, "ln_sd": -0.5, "ln_sd(M1)": -0.3}
    assert _fresh(_simulated_fit("(y x M1[id], family(gaussian))", theta, [{"times": [0, 1, 2]}])) == []


def test_fits_that_need_scipy_special_import_it_when_first_used():
    bernoulli = _simulated_fit(
        "(y x M1[id], family(bernoulli))", {"x": 0.5, "_cons": -0.2, "ln_sd(M1)": -0.3}, [{"times": [0, 1, 2, 3]}]
    )
    assert "scipy.special" in _fresh(bernoulli)
    t_qmc = _simulated_fit(
        "(t trt M1[id], family(weibull, failure(d)))",
        {"trt": 0.4, "_cons": -0.8, "ln_gamma": 0.26, "ln_sd(M1)": -0.51},
        [{"censoring": 5.0, "records": 3}],
        simulated="(t trt M1[id], family(weibull, failure(d))), redistribution(t) df(5)",
        method="qmc",
        redistribution="t",
        t_df=5,
        draws=100,
    )
    assert "scipy.special" in _fresh(t_qmc)
