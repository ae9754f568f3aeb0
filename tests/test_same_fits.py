"""``tools/same_fits.py``: every benchmark panel fitted in two checkouts
and compared bit for bit."""

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


def test_a_changed_byte_is_flagged():
    tool = load_tool()
    result = SimpleNamespace(
        theta=np.array([0.4, -0.8]),
        logl=-12.5,
        cov=np.eye(2),
        message="converged",
        iterations=5,
        profile={"objective_points": 60},
    )
    fit = SimpleNamespace(failed=None, doc=b"", result=result)
    document = SimpleNamespace(failed=None, doc=b"loglik: -12.5\n", result=None)
    parent = {"a#0": tool.describe(fit), "b#0": tool.describe(document)}
    assert tool.differences(parent, dict(parent)) == []
    result.theta[1] = np.nextafter(result.theta[1], 0.0)
    document.doc = b"loglik: -12.4\n"
    change = {"a#0": tool.describe(fit), "b#0": tool.describe(document)}
    assert tool.differences(parent, change) == ["a#0: differs in theta", "b#0: differs in document"]
    assert tool.differences(parent, {"a#0": parent["a#0"]}) == ["b#0: fitted on the parent side only"]


def test_deviations_of_a_differing_fit():
    tool = load_tool()

    def record(theta, logl, se, iterations):
        result = SimpleNamespace(
            theta=np.array(theta),
            logl=logl,
            cov=np.diag(np.square(se)),
            message="converged",
            iterations=iterations,
            profile={"objective_points": 60},
        )
        return tool.describe(SimpleNamespace(failed=None, doc=b"", result=result))

    parent = {"a#0": record([0.4, -0.8, 1.0], -1000.0, [0.1, 0.2, 0.0], 5), "b#0": record([1.0], -3.0, [0.5], 2)}
    document = SimpleNamespace(failed=None, doc=b"loglik: -12.5\n", result=None)
    parent["c#0"] = tool.describe(document)
    # a pinned slot (standard error 0) moves: its shift is not counted
    change = {
        "a#0": record([0.41, -0.8, 3.0], -1000.001, [0.1, 0.21, 0.0], 4),
        "b#0": parent["b#0"],
        "c#0": tool.describe(SimpleNamespace(failed=None, doc=b"loglik: -12.4\n", result=None)),
    }
    lines = tool.deviations(parent, change)
    assert lines == ["a#0: logl 1e-06 relative, theta 0.1 SE, SE 0.05 relative, iterations -1"]
    assert tool.differences(parent, change) == ["a#0: differs in cov, iterations, logl, theta", "c#0: differs in document"]
