"""``tools/bench_pairs.py`` summaries of alternating parent/change runs."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_of_a_metric_that_reads_zero_on_the_parent():
    # a traced run reports 0 s for a layer the workload never calls
    # (``data.load_csv_s`` on an in-process workload)
    def run(load, fit):
        return {"failed": 0, "metrics": {"data.load_csv_s": {"value": load}, "predictor.eta_s": {"value": fit}}}

    runs = [run(0.0, 0.2), run(0.0, 0.1), run(0.0, 0.21), run(0.0, 0.11)]
    metrics = [{"name": name, "unit": "s", "better": "lower"} for name in ("data.load_csv_s", "predictor.eta_s")]
    summary = load_tool().summarize(runs, metrics)
    assert summary["data.load_csv_s"]["relative_change"] is None
    assert summary["data.load_csv_s"]["change_wins"] == 0 and not summary["data.load_csv_s"]["claim"]
    assert abs(summary["predictor.eta_s"]["relative_change"] - (0.105 / 0.205 - 1.0)) < 1e-12
    assert summary["predictor.eta_s"]["change_wins"] == 2
