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


def test_regressed_and_unresolved_against_the_bound():
    def run(fit, rss):
        return {"failed": 0, "metrics": {"fit_s": {"value": fit}, "peak_rss_mb": {"value": rss}}}

    # fit_s: parent median 1.0, interquartile range 0.1, change 1.3 (+30%);
    # peak_rss_mb: parent median 100, interquartile range 1, change 95, one
    # change run above the parent's lowest
    parent = [run(0.9, 99.0), run(1.0, 100.0), run(1.1, 101.0)]
    change = [run(1.2, 94.0), run(1.3, 95.0), run(1.4, 99.5)]
    runs = [r for pair in zip(parent, change) for r in pair]
    metrics = [
        {"name": "fit_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.005},
    ]
    summary = load_tool().summarize(runs, metrics)
    assert summary["fit_s"]["regressed"] and not summary["fit_s"]["unresolved"]
    # a change that improves never regresses; a 1% spread is wider than a 0.5% bound
    assert not summary["peak_rss_mb"]["regressed"] and summary["peak_rss_mb"]["unresolved"]
    metrics[0]["bound"] = 0.35
    assert not load_tool().summarize(runs, metrics)["fit_s"]["regressed"]
    # a metric without a bound (a per-layer one) is flagged neither way
    del metrics[0]["bound"]
    summary = load_tool().summarize(runs, metrics)
    assert summary["fit_s"]["regressed"] is None and summary["fit_s"]["unresolved"] is None


def test_a_change_better_in_every_run_is_resolved():
    # the parent runs of both metrics spread wider than the 0.5% bound; a
    # change is resolved only when every one of its runs reads better than
    # every parent run
    def run(rss, rate):
        return {"failed": 0, "metrics": {"peak_rss_mb": {"value": rss}, "rate": {"value": rate}}}

    metrics = [
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.005},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.005},
    ]
    parent = [run(99.0, 99.0), run(100.0, 100.0), run(101.0, 101.0)]
    # the third change run beats the parent's best (True) or does not (False)
    for third, resolved in [(run(98.9, 101.1), True), (run(99.1, 100.9), False)]:
        change = [run(96.0, 102.0), run(97.0, 103.0), third]
        runs = [r for pair in zip(parent, change) for r in pair]
        summary = load_tool().summarize(runs, metrics)
        for name in ("peak_rss_mb", "rate"):
            assert summary[name]["unresolved"] is not resolved and not summary[name]["regressed"]
