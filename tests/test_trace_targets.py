"""The benchmark's tracer (``perfbench/spans.py``) wraps hiermix functions
by name from outside the package. A renamed or moved function would
silently leave its per-layer metric empty, so every target must resolve,
and the node reduction and kernel draws must be reached through the
names the tracer wraps.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from hiermix.data import as_frame
from hiermix.dsl import parse_model_spec
from hiermix.likelihood import LikelihoodEvaluator, default_plan
from hiermix.predictor import compile_program

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("key,modname,path", load_spans().TARGETS, ids=lambda v: str(v))
def test_target_resolves(key, modname, path):
    owner = importlib.import_module(modname)
    for attr in path.split("."):
        owner = getattr(owner, attr, None)
        assert owner is not None, f"{modname}.{path} ({key}) does not exist"
    assert callable(owner)


def test_reduce_and_draws_are_traced():
    rng = np.random.default_rng(3)
    data = {"id": np.repeat(np.arange(6) + 1.0, 3), "y": rng.normal(size=18)}
    prog = compile_program(parse_model_spec("(y M1[id], family(gaussian))"), as_frame(data))
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        ev = LikelihoodEvaluator(prog, default_plan(prog, method="qmc", draws=40))
        ev.logl(np.zeros(prog.n_params))
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    for key in ("integrate.draws", "likelihood.reduce", "likelihood.objective"):
        assert tracer.total("setup", key, "calls") >= 1, key
