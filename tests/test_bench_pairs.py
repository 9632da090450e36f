"""scripts/bench_pairs.py: the summary of alternating parent/change
benchmark runs, on canned result lines (no benchmark is run)."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"

BETTER = {"job_s": "lower", "predict_rows_per_s": "higher"}


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_output(job_s, rows_per_s, failed=0, attempted=40):
    """What perfbench/run.py prints: table lines, then one JSON line."""
    final = {"correct": failed == 0, "attempted": attempted,
             "failed": failed, "metrics": {
                 "job_s": {"value": job_s, "unit": "s"},
                 "predict_rows_per_s": {"value": rows_per_s,
                                        "unit": "rows/s"}}}
    return (f"== perfbench kernel-yeast3 seed=41 trace=0\n"
            f"job_s (fit_s)  {job_s} s\n{json.dumps(final)}\n")


def test_summary_of_canned_pairs():
    script = load_script()
    runs = [((0.50, 100e3), (0.50, 140e3)),
            ((0.55, 101e3), (0.52, 138e3)),
            ((0.60, 99e3), (0.61, 90e3, 2)),
            ((0.52, 100e3), (0.51, 139e3))]
    pairs = [tuple(script.last_json(run_output(*side)) for side in pair)
             for pair in runs]
    summary = script.summarize(pairs, BETTER)
    assert summary["n"] == 4
    job = summary["metrics"]["job_s"]
    assert job["parent"] == pytest.approx(0.535)
    assert job["change"] == pytest.approx(0.515)
    assert job["ratio"] == pytest.approx(0.515 / 0.535)
    # lower is better; the tie of the first pair counts for neither
    assert job["wins"] == 2
    rows = summary["metrics"]["predict_rows_per_s"]
    assert rows["parent"] == pytest.approx(100e3)
    assert rows["change"] == pytest.approx(138.5e3)
    assert rows["wins"] == 3
    # statistics.quantiles of 99k, 100k, 100k, 101k: 99.25k and 100.75k
    assert rows["parent_iqr"] == pytest.approx(1.5e3)
    assert summary["failed"] == {"parent": (0, 160), "change": (2, 160)}
    text = script.report(summary)
    assert "3/4" in text and "change 2 of 160" in text


def test_one_pair_has_no_spread():
    script = load_script()
    pair = (script.last_json(run_output(0.5, 1e5)),
            script.last_json(run_output(0.4, 1e5)))
    summary = script.summarize([pair], BETTER)
    assert summary["metrics"]["job_s"]["parent_iqr"] == 0
    assert summary["metrics"]["job_s"]["wins"] == 1
    assert summary["metrics"]["predict_rows_per_s"]["wins"] == 0


def test_seed_ranges_and_output_errors():
    script = load_script()
    assert script.parse_seeds("41-45") == [41, 42, 43, 44, 45]
    assert script.parse_seeds("41,43,50-51") == [41, 43, 50, 51]
    with pytest.raises(ValueError):
        script.last_json("")
    with pytest.raises(ValueError):
        script.last_json("perfbench: child exited with code 1\n")
