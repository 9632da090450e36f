"""scripts/grid_fold_pairs.py: alternating timings of one outer fold's
grid search, on the tiny grid, and the summary of canned runs."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "grid_fold_pairs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("grid_fold_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tiny_grid_pair_of_one_checkout(capsys):
    # both sides are this checkout, each in its own process
    script = load_script()
    assert script.main([str(ROOT), str(ROOT), "--shape", "haberman",
                        "--grid", "tiny", "--pairs", "1"]) == 0
    out, err = capsys.readouterr()
    assert "haberman tiny-grid fold: 1 pairs" in out
    assert "means and alive flags: identical" in out
    assert err.count("of 8 points alive") == 2


def test_gaussian_grid_is_the_criterion_5_grid_over_three_sigmas():
    # only the points are built; no search runs
    from frlstsvm.experiment import ExperimentConfig, grid_points

    fields, inner_k = load_script().GRIDS["gaussian"]
    points = grid_points(ExperimentConfig(**fields))
    assert len(points) == 54 and inner_k == 3
    assert {pt.tau for pt in points} == {0.0, 0.2, 0.4}
    assert {pt.gamma for pt in points} == {0.5, 1.0}
    assert {(pt.c1, pt.c2) for pt in points} == {
        (c, c) for c in (0.25, 1.0, 4.0)}
    assert {pt.sigma for pt in points} == {0.5, 1.0, 2.0}


def test_criterion5_grid_is_the_cv_pima_workloads():
    # read from perfbench/workloads.py, whose constants the cv-pima
    # job's ExperimentConfig takes; only the points are built
    from frlstsvm.experiment import ExperimentConfig, grid_points

    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    fields, inner_k = load_script().GRIDS["criterion5"]
    assert fields == dict(tau_grid=workloads.TAU_GRID,
                          gamma_grid=workloads.GAMMA_GRID,
                          c1_grid=workloads.C_GRID)
    assert inner_k == workloads.INNER_FOLDS == 9
    config = ExperimentConfig(**fields)
    assert config.kernel == "linear"
    points = grid_points(config)
    assert len(points) == 18
    assert {pt.tau for pt in points} == {0.0, 0.2, 0.4}
    assert {pt.gamma for pt in points} == {0.5, 1.0}
    assert {(pt.c1, pt.c2) for pt in points} == {
        (c, c) for c in (0.25, 1.0, 4.0)}
    child = (ROOT / "perfbench" / "child.py").read_text(encoding="utf-8")
    assert ("tau_grid=TAU_GRID, gamma_grid=GAMMA_GRID, c1_grid=C_GRID,"
            in child and "inner_folds=INNER_FOLDS" in child)


def test_summary_of_canned_runs():
    script = load_script()

    def run(seconds, digest="a"):
        return {"seconds": seconds, "points": 8, "alive": 8,
                "digest": digest}

    pairs = [(run(6.0), run(3.0)), (run(5.0), run(5.5)),
             (run(7.0), run(3.5))]
    summary = script.summarize(pairs)
    assert summary["n"] == 3 and summary["wins"] == 2
    assert summary["parent"] == 6.0 and summary["change"] == 3.5
    assert summary["ratio"] == pytest.approx(3.5 / 6.0)
    assert summary["identical"]
    assert "2/3" in script.report(summary)
    pairs.append((run(6.0), run(3.0, digest="b")))
    summary = script.summarize(pairs)
    assert not summary["identical"]
    assert script.report(summary).endswith("DIFFER")
