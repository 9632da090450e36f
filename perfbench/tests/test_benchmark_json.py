"""BENCHMARK.json must describe what run.py prints.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: wl.why for name, wl in WORKLOADS.items()}


def test_end_to_end_metrics_and_units_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_per_layer_metrics_and_units_match():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_summary_reports_the_highest_percentile_with_ten_beyond():
    s = run.summary([float(i) for i in range(1, 101)])
    assert s["median"] == 50.5 and s["n"] == 100
    assert s["p90"] == 90.0 and "p99" not in s
    s = run.summary([float(i) for i in range(1, 1001)])
    assert s["p99"] == 990.0
    assert run.summary([2.0, 1.0]) == {"median": 1.5, "min": 1.0, "n": 2}
