"""The package exports the names README documents, and nothing else."""

import re
from pathlib import Path

import hiermix

README = Path(__file__).resolve().parent.parent / "README.md"
DOCUMENTED = ["FitResult", "MixedModel", "fit_model", "load_spec_file", "register_user_family", "save_spec_file", "simulate"]


def test_exports_are_the_documented_names():
    assert sorted(hiermix.__all__) == DOCUMENTED
    text = README.read_text()
    for name in DOCUMENTED:
        assert re.search(rf"\b{name}\b", text), f"{name} is not documented in README"
    namespace = {}
    exec("from hiermix import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == DOCUMENTED
