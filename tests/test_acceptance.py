"""Acceptance gate: one test per criterion, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines; without -s they still appear for any failing criterion. The
three benchmark reproductions need local copies of the KEEL files under
data/keel/; scripts/fetch_keel.py downloads and verifies them.
"""
from __future__ import annotations

import math
import os
import time

import numpy as np
import pytest

from frlstsvm.classifier import (
    TrainConfig,
    fit_frlstsvm,
    fit_linear,
    fit_lstsvm_baseline,
    predict,
)
from frlstsvm.dataset import (
    LabeledDataset,
    fold_rows,
    load_keel,
    minmax_apply,
    minmax_fit,
    stratified_kfold,
    subset,
)
from frlstsvm.errors import ConfigurationError
from frlstsvm.experiment import (
    ExperimentConfig,
    run_nested_cv,
    write_cv_result,
)
from frlstsvm.fuzzy_rough import (
    FuzzyParams,
    positive_region_scores,
    subsample_majority,
)
from frlstsvm.metrics import ConfusionMatrix, report

from helpers import (
    DATA_DIR,
    descent_u1,
    descent_u2,
    fraction_metrics,
    grad_f1,
    grad_f2,
    keel_file,
    make_blobs,
    make_circles,
)


def verdict(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {name}: "
          f"{'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def plane_vec(plane):
    return np.append(plane.w, plane.b)


def rel_err(got, want):
    got = np.asarray(got).ravel()
    want = np.asarray(want).ravel()
    return float(np.linalg.norm(got - want)
                 / max(1.0, np.linalg.norm(want)))


def linear_config(c1, c2):
    return TrainConfig(c1=c1, c2=c2, tau=0.0, fuzzy=FuzzyParams(gamma=1.0))


def random_classes(rng):
    """Class matrices with at most 40 rows total and 5 attributes."""
    m1 = int(rng.integers(2, 20))
    m2 = int(rng.integers(2, 41 - m1))
    n = int(rng.integers(1, 6))
    return rng.uniform(0, 1, size=(m1, n)), rng.uniform(0, 1, size=(m2, n))


def test_criterion_1_solver_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(20):
        x1, x2 = random_classes(rng)
        dual = fit_linear(x1, x2, None, None, linear_config(1.0, 1.0))
        primal = fit_lstsvm_baseline(x1, x2, 1.0, 1.0, delta=1e-6)
        worst = max(
            worst,
            rel_err(plane_vec(dual.plane1), plane_vec(primal.plane1)),
            rel_err(plane_vec(dual.plane2), plane_vec(primal.plane2)),
        )
    elapsed = time.perf_counter() - t0
    verdict(
        1, "solver equivalence", worst <= 1e-6 and elapsed < 5.0,
        f"max relative error {worst:.3g} over 20 instances, "
        f"{elapsed:.2f}s",
    )


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2025)
    worst_grad = 0.0
    worst_match = 0.0
    for trial in range(10):
        x1, x2 = random_classes(rng)
        d1 = rng.uniform(0.05, 1.0, size=x1.shape[0])
        d2 = rng.uniform(0.05, 1.0, size=x2.shape[0])
        c1 = float(rng.uniform(0.25, 4.0))
        c2 = float(rng.uniform(0.25, 4.0))
        model = fit_linear(x1, x2, d1, d2, linear_config(c1, c2))
        u1 = plane_vec(model.plane1)
        u2 = plane_vec(model.plane2)
        g1 = np.linalg.norm(grad_f1(u1, x1, x2, d2, c1, 1e-6))
        g2 = np.linalg.norm(grad_f2(u2, x1, x2, d1, c2, 1e-6))
        worst_grad = max(
            worst_grad,
            g1 / (1.0 + np.linalg.norm(u1)),
            g2 / (1.0 + np.linalg.norm(u2)),
        )
        worst_match = max(
            worst_match,
            rel_err(u1, descent_u1(x1, x2, d2, c1, 1e-6)),
            rel_err(u2, descent_u2(x1, x2, d1, c2, 1e-6)),
        )
    elapsed = time.perf_counter() - t0
    verdict(
        2, "oracle equivalence",
        worst_grad <= 1e-6 and worst_match <= 1e-4 and elapsed < 30.0,
        f"max scaled gradient {worst_grad:.3g}, max descent gap "
        f"{worst_match:.3g}, {elapsed:.2f}s",
    )


def test_criterion_3_pipeline_reduction():
    mismatches = 0
    for seed in range(5):
        rng = np.random.default_rng(300 + seed)
        m1 = int(rng.integers(5, 15))
        m2 = int(rng.integers(m1, 4 * m1))
        x, y = make_blobs(300 + seed, m1=m1, m2=m2,
                          spread=float(rng.uniform(0.4, 1.2)))
        ds = LabeledDataset(x, y)
        cfg = TrainConfig(c1=1.0, c2=1.0, tau=0.0,
                          fuzzy=FuzzyParams(gamma=1.0),
                          weights_enabled=False)
        pipeline = fit_frlstsvm(ds, cfg)
        scaling = minmax_fit(ds.features)
        xs = minmax_apply(scaling, ds.features)
        baseline = fit_lstsvm_baseline(xs[y == 1], xs[y == -1], 1.0, 1.0,
                                       scaling=scaling)
        if not np.array_equal(predict(pipeline, x),
                              predict(baseline, x)):
            mismatches += 1
    verdict(
        3, "pipeline reduction", mismatches == 0,
        f"{mismatches} of 5 datasets had any prediction differ",
    )


def test_criterion_4_subsampling_properties():
    x, y = make_blobs(400, m1=15, m2=60, spread=1.0)
    core = np.full((10, 2), (-2.0, -2.0))
    outliers = np.array([[9.0, 9.0], [-9.0, 8.0], [8.0, -9.0]])
    x = np.vstack([x, core, outliers])
    y = np.concatenate([y, [-1] * 13])
    ds = LabeledDataset(x, y)
    xs = minmax_apply(minmax_fit(ds.features), ds.features)
    scores = positive_region_scores(xs, ds.labels, FuzzyParams(gamma=2.0))

    taus = [round(0.05 * i, 2) for i in range(21)]
    previous = None
    nested = True
    kept_all = None
    for tau in taus:
        try:
            kept = set(
                subsample_majority(scores, tau).kept_indices.tolist()
            )
        except ConfigurationError:
            kept = set()
        if tau == 0.0:
            kept_all = kept
        if previous is not None and not kept <= previous:
            nested = False
        previous = kept

    keeps_everything = kept_all == set(range(scores.scores.size))
    core_rows = np.arange(60, 70)
    outlier_rows = np.arange(70, 73)
    ranked = (scores.scores[outlier_rows].max()
              < scores.scores[core_rows].min())
    verdict(
        4, "subsampling properties",
        nested and keeps_everything and ranked,
        f"nested={nested} tau0_keeps_all={keeps_everything} "
        f"outliers_below_cores={ranked}",
    )


BENCH = {
    "haberman": (77.49, 67.55),
    "pima": (78.69, 74.92),
    "wisconsin": (97.21, 97.18),
}

FETCH_HINT = (
    "benchmark file missing under {path}; this environment has no "
    "network route to fetch it. Run scripts/fetch_keel.py on a "
    "connected machine (or drop the KEEL .dat file in place) and rerun."
)


def run_benchmark(name: str):
    path = keel_file(name)
    if not os.path.exists(path):
        verdict(5, f"table reproduction [{name}]", False,
                FETCH_HINT.format(path=DATA_DIR))
    ds = load_keel(path)
    cfg = ExperimentConfig(
        tau_grid=(0.0, 0.2, 0.4),
        gamma_grid=(0.5, 1.0),
        c1_grid=(0.25, 1.0, 4.0),
        folds=10,
        repeats=10,
        seed=7,
    )
    t0 = time.perf_counter()
    result = run_nested_cv(cfg, dataset=ds)
    elapsed = time.perf_counter() - t0
    acc = 100.0 * result.aggregates["accuracy"][0]
    gmean = 100.0 * result.aggregates["gmean"][0]
    want_acc, want_gmean = BENCH[name]
    ok = (abs(acc - want_acc) <= 3.0 and abs(gmean - want_gmean) <= 5.0
          and elapsed < 300.0)
    verdict(
        5, f"table reproduction [{name}]", ok,
        f"acc {acc:.2f} vs {want_acc} (tol 3.0), gmean {gmean:.2f} vs "
        f"{want_gmean} (tol 5.0), {elapsed:.0f}s",
    )


def test_criterion_5_haberman():
    run_benchmark("haberman")


def test_criterion_5_pima():
    run_benchmark("pima")


def test_criterion_5_wisconsin():
    run_benchmark("wisconsin")


def test_criterion_6_kernel_sanity():
    x, y = make_circles(11)
    ds = LabeledDataset(x, y)
    gaussian = TrainConfig(c1=1.0, c2=1.0, tau=0.0,
                           fuzzy=FuzzyParams(gamma=1.0),
                           kernel="gaussian", sigma=0.25)
    linear = TrainConfig(c1=1.0, c2=1.0, tau=0.0,
                         fuzzy=FuzzyParams(gamma=1.0))
    acc_g = float(np.mean(predict(fit_frlstsvm(ds, gaussian), x) == y))
    acc_l = float(np.mean(predict(fit_frlstsvm(ds, linear), x) == y))
    verdict(
        6, "kernel sanity", acc_g >= 0.95 and acc_l <= 0.70,
        f"gaussian training accuracy {acc_g:.3f} (>= 0.95), linear "
        f"{acc_l:.3f} (<= 0.70)",
    )


def test_criterion_7_metric_arithmetic():
    rng = np.random.default_rng(700)
    worst = 0.0
    sqrt_exact = True
    for trial in range(1000):
        tp, fn, fp, tn = (int(v) for v in rng.integers(0, 300, 4))
        if tp + fn + fp + tn == 0:
            tn = 1
        cm = ConfusionMatrix(tp=tp, fn=fn, fp=fp, tn=tn)
        for convention in ("standard", "paper_literal"):
            rep = report(cm, convention)
            want = fraction_metrics(tp, fn, fp, tn, convention)
            got = (rep.sensitivity, rep.specificity, rep.accuracy,
                   rep.gmean)
            worst = max(worst, max(abs(a - b)
                                   for a, b in zip(got, want)))
            if rep.gmean != math.sqrt(rep.sensitivity * rep.specificity):
                sqrt_exact = False
    verdict(
        7, "metric arithmetic", worst <= 1e-12 and sqrt_exact,
        f"max deviation {worst:.3g} over 1000 matrices x 2 conventions, "
        f"gmean identity exact={sqrt_exact}",
    )


def test_criterion_8_determinism_and_leakage(tmp_path):
    x, y = make_blobs(800, m1=15, m2=45)
    ds = LabeledDataset(x, y)
    base = dict(
        tau_grid=(0.0, 0.3), gamma_grid=(1.0,), c1_grid=(1.0,),
        folds=3, inner_folds=2, repeats=2, seed=3,
    )
    files = {}
    for workers in (1, 8):
        result = run_nested_cv(
            ExperimentConfig(**base, workers=workers), dataset=ds
        )
        csv_path = tmp_path / f"w{workers}.csv"
        jsonl_path = tmp_path / f"w{workers}.jsonl"
        write_cv_result(result, str(csv_path))
        write_cv_result(result, str(jsonl_path))
        files[workers] = (csv_path.read_bytes(), jsonl_path.read_bytes())
    identical = files[1] == files[8]

    rerun = run_nested_cv(ExperimentConfig(**base, workers=1), dataset=ds)
    repeat_path = tmp_path / "rerun.csv"
    write_cv_result(rerun, str(repeat_path))
    stable = repeat_path.read_bytes() == files[1][0]

    plan = stratified_kfold(ds, 3, seed=3)
    train_rows, test_rows = fold_rows(plan, 0)
    poisoned_x = ds.features.copy()
    poisoned_x[test_rows] = 1e9
    poisoned = LabeledDataset(poisoned_x, ds.labels.copy())
    cfg = TrainConfig(c1=1.0, c2=1.0, tau=0.3, fuzzy=FuzzyParams(gamma=1.0))
    clean_model = fit_frlstsvm(subset(ds, train_rows), cfg)
    dirty_model = fit_frlstsvm(subset(poisoned, train_rows), cfg)
    sealed = (
        np.array_equal(clean_model.plane1.w, dirty_model.plane1.w)
        and clean_model.plane1.b == dirty_model.plane1.b
        and np.array_equal(clean_model.plane2.w, dirty_model.plane2.w)
        and clean_model.plane2.b == dirty_model.plane2.b
        and clean_model.summary.m2_kept == dirty_model.summary.m2_kept
    )
    verdict(
        8, "determinism and leakage",
        identical and stable and sealed,
        f"1-vs-8-worker files identical={identical}, rerun "
        f"identical={stable}, test rows sealed off={sealed}",
    )
