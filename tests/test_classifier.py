"""Plane fits, kernel fits, the decision rule, and serialization."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from frlstsvm.classifier import (
    Hyperplane,
    KernelModel,
    LinearModel,
    PreparedFold,
    TrainConfig,
    fit_frlstsvm,
    fit_kernel,
    fit_linear,
    fit_lstsvm_baseline,
    gaussian_gram,
    gaussian_kernel,
    load_model,
    predict,
    predict_kernel,
    predict_linear,
    save_model,
)
from frlstsvm.dataset import LabeledDataset, minmax_apply, minmax_fit
from frlstsvm.errors import (
    ConfigurationError,
    DataError,
    DegenerateModelError,
)
from frlstsvm.fuzzy_rough import FuzzyParams

from helpers import (
    descent_u1,
    descent_u2,
    grad_f1,
    grad_f2,
    make_blobs,
    make_circles,
)


def fuzzy(gamma=1.0, **kw):
    return FuzzyParams(gamma=gamma, **kw)


def config(c1=1.0, c2=1.0, tau=0.0, **kw):
    return TrainConfig(c1=c1, c2=c2, tau=tau, fuzzy=fuzzy(), **kw)


def plane_vec(plane: Hyperplane) -> np.ndarray:
    return np.append(plane.w, plane.b)


def rel_close(a, b, tol):
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    return np.linalg.norm(a - b) <= tol * max(1.0, np.linalg.norm(b))


class TestTrainConfig:
    def test_rejects_bad_penalties(self):
        for c1, c2 in ((0.0, 1.0), (1.0, -2.0)):
            with pytest.raises(ConfigurationError):
                config(c1=c1, c2=c2)

    def test_rejects_tau_outside_unit_interval(self):
        with pytest.raises(ConfigurationError, match="tau"):
            config(tau=1.5)

    def test_sigma_must_match_kernel(self):
        with pytest.raises(ConfigurationError, match="sigma"):
            config(kernel="gaussian")
        with pytest.raises(ConfigurationError, match="sigma"):
            config(kernel="linear", sigma=0.5)
        with pytest.raises(ConfigurationError, match="kernel"):
            config(kernel="poly")
        assert config(kernel="gaussian", sigma=0.5).sigma == 0.5

    def test_rejects_negative_delta(self):
        with pytest.raises(ConfigurationError, match="delta"):
            config(delta=-1e-9)


class TestGaussianKernel:
    def test_same_point_is_one(self):
        assert gaussian_kernel([0.2, 0.7], [0.2, 0.7], 3.0) == 1.0

    def test_distance_sqrt2_sigma(self):
        got = gaussian_kernel([0.0, 0.0], [1.0, 1.0], 1.0)
        assert got == pytest.approx(math.exp(-1.0))

    def test_monotone_toward_one_in_sigma(self):
        x, y = np.array([0.0, 0.0]), np.array([0.4, 0.3])
        values = [gaussian_kernel(x, y, s) for s in (0.1, 0.5, 1, 5, 50)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] > 0.999

    def test_gram_block_matches_scalar(self):
        rng = np.random.default_rng(21)
        xa = rng.uniform(0, 1, size=(4, 3))
        xb = rng.uniform(0, 1, size=(5, 3))
        k = gaussian_gram(xa, xb, 0.7)
        for i in range(4):
            for j in range(5):
                assert k[i, j] == pytest.approx(
                    gaussian_kernel(xa[i], xb[j], 0.7), abs=1e-15
                )

    def test_rejects_bad_sigma(self):
        with pytest.raises(ConfigurationError):
            gaussian_kernel([0.0], [1.0], 0.0)


MIRROR_X1 = np.array([[1.0, 0.0]])
MIRROR_X2 = np.array([[-1.0, 0.0]])


class TestMirrorProblem:
    """One minority point at (1,0), one majority point at (-1,0)."""

    def test_planes_are_mirror_images(self):
        model = fit_linear(MIRROR_X1, MIRROR_X2, None, None, 1.0, 1.0)
        w1, b1 = model.plane1.w, model.plane1.b
        w2, b2 = model.plane2.w, model.plane2.b
        assert np.allclose(w1, w2, atol=1e-6)
        assert abs(b1 + b2) <= 1e-6
        assert abs(w1[1]) <= 1e-6
        # each plane passes through its own class point
        assert abs(w1 @ MIRROR_X1[0] + b1) <= 1e-5
        assert abs(w2 @ MIRROR_X2[0] + b2) <= 1e-5

    def test_baseline_agrees_here(self):
        weighted = fit_linear(MIRROR_X1, MIRROR_X2, None, None, 1.0, 1.0)
        baseline = fit_lstsvm_baseline(MIRROR_X1, MIRROR_X2, 1.0, 1.0)
        assert np.allclose(plane_vec(weighted.plane1),
                           plane_vec(baseline.plane1), atol=1e-6)
        assert np.allclose(plane_vec(weighted.plane2),
                           plane_vec(baseline.plane2), atol=1e-6)

    def test_decision_examples(self):
        model = fit_linear(MIRROR_X1, MIRROR_X2, None, None, 1.0, 1.0)
        assert predict_linear(model, np.array([2.0, 0.0])) == 1
        assert predict_linear(model, np.array([-2.0, 0.0])) == -1
        # equidistant by symmetry: the tie goes to the minority class
        assert predict_linear(model, np.array([0.0, 0.0])) == 1

    def test_descent_oracle_on_tiny_problem(self):
        model = fit_linear(MIRROR_X1, MIRROR_X2, None, None, 1.0, 1.0)
        want = descent_u1(MIRROR_X1, MIRROR_X2, np.ones(1), 1.0, 1e-6)
        got = np.append(model.plane1.w, model.plane1.b)
        assert rel_close(got, want, 1e-4)


def random_instance(rng, weighted):
    m1 = int(rng.integers(2, 16))
    m2 = int(rng.integers(2, 25))
    n = int(rng.integers(1, 6))
    x1 = rng.uniform(0, 1, size=(m1, n))
    x2 = rng.uniform(0, 1, size=(m2, n))
    if weighted:
        d1 = rng.uniform(0.05, 1.0, size=m1)
        d2 = rng.uniform(0.05, 1.0, size=m2)
    else:
        d1 = np.ones(m1)
        d2 = np.ones(m2)
    return x1, x2, d1, d2


class TestSolverIdentities:
    def test_unit_weights_match_primal_baseline(self):
        rng = np.random.default_rng(33)
        for trial in range(20):
            x1, x2, d1, d2 = random_instance(rng, weighted=False)
            a = fit_linear(x1, x2, d1, d2, 1.0, 1.0, delta=1e-6)
            b = fit_lstsvm_baseline(x1, x2, 1.0, 1.0, delta=1e-6)
            assert rel_close(plane_vec(a.plane1), plane_vec(b.plane1), 1e-6)
            assert rel_close(plane_vec(a.plane2), plane_vec(b.plane2), 1e-6)

    def test_unit_weights_match_baseline_with_scaled_ridge(self):
        # with unit weights, the weighted route at penalty c equals the
        # primal closed form whose ridge is delta / c, plane by plane
        rng = np.random.default_rng(34)
        for trial in range(10):
            x1, x2, d1, d2 = random_instance(rng, weighted=False)
            c1 = float(2.0 ** rng.integers(-3, 4))
            c2 = float(2.0 ** rng.integers(-3, 4))
            delta = 1e-6
            a = fit_linear(x1, x2, d1, d2, c1, c2, delta=delta)
            b1 = fit_lstsvm_baseline(x1, x2, c1, c2, delta=delta / c1)
            b2 = fit_lstsvm_baseline(x1, x2, c1, c2, delta=delta / c2)
            assert rel_close(plane_vec(a.plane1), plane_vec(b1.plane1), 1e-6)
            assert rel_close(plane_vec(a.plane2), plane_vec(b2.plane2), 1e-6)

    def test_weighted_fit_matches_descent_minimizer(self):
        rng = np.random.default_rng(35)
        for trial in range(10):
            x1, x2, d1, d2 = random_instance(rng, weighted=True)
            c1 = float(rng.uniform(0.25, 4.0))
            c2 = float(rng.uniform(0.25, 4.0))
            model = fit_linear(x1, x2, d1, d2, c1, c2, delta=1e-6)
            u1 = plane_vec(model.plane1)
            u2 = plane_vec(model.plane2)
            want1 = descent_u1(x1, x2, d2, c1, 1e-6)
            want2 = descent_u2(x1, x2, d1, c2, 1e-6)
            assert rel_close(u1, want1, 1e-4)
            assert rel_close(u2, want2, 1e-4)

    def test_returned_planes_zero_the_gradient(self):
        rng = np.random.default_rng(36)
        for trial in range(10):
            x1, x2, d1, d2 = random_instance(rng, weighted=True)
            c1 = float(rng.uniform(0.25, 4.0))
            c2 = float(rng.uniform(0.25, 4.0))
            model = fit_linear(x1, x2, d1, d2, c1, c2, delta=1e-6)
            u1 = plane_vec(model.plane1)
            u2 = plane_vec(model.plane2)
            g1 = grad_f1(u1, x1, x2, d2, c1, 1e-6)
            g2 = grad_f2(u2, x1, x2, d1, c2, 1e-6)
            assert np.linalg.norm(g1) <= 1e-6 * (1 + np.linalg.norm(u1))
            assert np.linalg.norm(g2) <= 1e-6 * (1 + np.linalg.norm(u2))

    def test_blob_training_accuracy(self):
        x, y = make_blobs(40)
        ds = LabeledDataset(x, y)
        scaling = minmax_fit(ds.features)
        xs = minmax_apply(scaling, ds.features)
        model = fit_lstsvm_baseline(xs[y == 1], xs[y == -1], 1.0, 1.0,
                                    scaling=scaling)
        acc = float(np.mean(predict_linear(model, x) == y))
        assert acc >= 0.95

    def test_weight_length_mismatch(self):
        with pytest.raises(ValueError, match="weights"):
            fit_linear(MIRROR_X1, MIRROR_X2, np.ones(3), None, 1.0, 1.0)


class TestPredictLinear:
    def make_model(self, w1, b1, w2, b2):
        return LinearModel(
            plane1=Hyperplane(w=np.asarray(w1, float), b=b1),
            plane2=Hyperplane(w=np.asarray(w2, float), b=b2),
            scaling=None,
            config=config(),
        )

    def test_positive_rescaling_changes_nothing(self):
        rng = np.random.default_rng(44)
        base = self.make_model([1.0, -0.5], 0.2, [-0.3, 0.8], -0.1)
        xs = rng.uniform(-2, 2, size=(50, 2))
        want = predict_linear(base, xs)
        for c1, c2 in ((3.0, 0.5), (0.001, 7.0), (100.0, 100.0)):
            scaled = self.make_model(
                base.plane1.w * c1, base.plane1.b * c1,
                base.plane2.w * c2, base.plane2.b * c2,
            )
            assert np.array_equal(predict_linear(scaled, xs), want)

    def test_single_degenerate_plane_loses_every_point(self):
        model = self.make_model([0.0, 0.0], 0.0, [1.0, 0.0], 0.0)
        assert predict_linear(model, np.array([5.0, 1.0])) == -1

    def test_both_degenerate_is_an_error(self):
        model = self.make_model([0.0], 0.0, [0.0], 0.0)
        with pytest.raises(DegenerateModelError):
            predict_linear(model, np.array([1.0]))

    def test_dimension_mismatch(self):
        model = self.make_model([1.0, 0.0], 0.0, [0.0, 1.0], 0.0)
        with pytest.raises(DataError, match="features"):
            predict_linear(model, np.ones(3))

    def test_distances_returned_in_order(self):
        model = self.make_model([1.0], -1.0, [1.0], 1.0)
        label, d1, d2 = predict_linear(model, np.array([1.0]),
                                       return_distances=True)
        assert label == 1 and d1 == 0.0 and d2 == 2.0


def scaled_split(x, y):
    scaling = minmax_fit(x)
    xs = minmax_apply(scaling, x)
    return xs[y == 1], xs[y == -1], scaling


class TestKernelFit:
    def test_circles_need_the_kernel(self):
        x, y = make_circles(50)
        x1, x2, scaling = scaled_split(x, y)
        cfg = config(kernel="gaussian", sigma=0.25)
        kernel_model = fit_kernel(x1, x2, None, None, cfg, scaling=scaling)
        kernel_acc = float(np.mean(predict_kernel(kernel_model, x) == y))
        linear_model = fit_lstsvm_baseline(x1, x2, 1.0, 1.0, scaling=scaling)
        linear_acc = float(np.mean(predict_linear(linear_model, x) == y))
        assert kernel_acc >= 0.95
        assert linear_acc <= 0.70

    def test_point_on_minority_ring_is_positive(self):
        x, y = make_circles(51)
        x1, x2, scaling = scaled_split(x, y)
        cfg = config(kernel="gaussian", sigma=0.25)
        model = fit_kernel(x1, x2, None, None, cfg, scaling=scaling)
        assert predict_kernel(model, np.array([1.0, 0.0])) == 1
        assert predict_kernel(model, np.array([3.0, 0.0])) == -1

    def test_matches_manually_assembled_closed_form(self):
        rng = np.random.default_rng(60)
        x1 = rng.uniform(0, 1, size=(6, 2))
        x2 = rng.uniform(0, 1, size=(9, 2))
        sigma, delta = 0.5, 1e-6
        cfg = config(kernel="gaussian", sigma=sigma, delta=delta)
        model = fit_kernel(x1, x2, None, None, cfg)

        x_ref = np.vstack([x1, x2])
        k = gaussian_gram(x_ref, x_ref, sigma)
        p = np.hstack([k[:6], np.ones((6, 1))])
        q = np.hstack([k[6:], np.ones((9, 1))])
        eye = np.eye(x_ref.shape[0] + 1)
        u1 = -np.linalg.solve(q.T @ q + p.T @ p + delta * eye,
                              q.T @ np.ones(9))
        u2 = np.linalg.solve(p.T @ p + q.T @ q + delta * eye,
                             p.T @ np.ones(6))
        assert rel_close(np.append(model.w1, model.b1), u1, 1e-6)
        assert rel_close(np.append(model.w2, model.b2), u2, 1e-6)

    def test_duplicated_minority_rows_leave_confident_labels(self):
        x, y = make_circles(52, m1=30, m2=60)
        x1, x2, scaling = scaled_split(x, y)
        cfg = config(kernel="gaussian", sigma=0.25)
        a = fit_kernel(x1, x2, None, None, cfg, scaling=scaling)
        b = fit_kernel(np.vstack([x1, x1]), x2, None, None, cfg,
                       scaling=scaling)
        grid = np.column_stack([
            np.repeat(np.linspace(-4, 4, 15), 15),
            np.tile(np.linspace(-4, 4, 15), 15),
        ])
        la, d1a, d2a = predict_kernel(a, grid, return_distances=True)
        lb, d1b, d2b = predict_kernel(b, grid, return_distances=True)
        margin_a = np.abs(d1a - d2a) / (d1a + d2a + 1e-12)
        margin_b = np.abs(d1b - d2b) / (d1b + d2b + 1e-12)
        confident = (margin_a > 0.05) & (margin_b > 0.05)
        assert confident.sum() >= grid.shape[0] // 2
        assert np.array_equal(la[confident], lb[confident])

    def test_gram_invariants(self):
        x, y = make_circles(53, m1=10, m2=20)
        x1, x2, scaling = scaled_split(x, y)
        model = fit_kernel(x1, x2, None, None,
                           config(kernel="gaussian", sigma=0.4))
        k = model.gram_ref
        assert np.array_equal(k, k.T)
        assert np.all(np.diag(k) == 1.0)
        assert np.all(k > 0.0) and np.all(k <= 1.0)
        assert model.w1.shape[0] == model.x_ref.shape[0]

    def test_requires_gaussian_config(self):
        with pytest.raises(ConfigurationError, match="gaussian"):
            fit_kernel(MIRROR_X1, MIRROR_X2, None, None, config())

    def test_kernel_prediction_scale_invariance(self):
        x, y = make_circles(54, m1=12, m2=24)
        x1, x2, scaling = scaled_split(x, y)
        cfg = config(kernel="gaussian", sigma=0.3)
        model = fit_kernel(x1, x2, None, None, cfg, scaling=scaling)
        xs = np.random.default_rng(1).uniform(-3, 3, size=(30, 2))
        want = predict_kernel(model, xs)
        boosted = KernelModel(
            x_ref=model.x_ref, w1=model.w1 * 9.0, b1=model.b1 * 9.0,
            w2=model.w2 * 0.125, b2=model.b2 * 0.125,
            gram_ref=model.gram_ref, scaling=model.scaling,
            config=cfg,
        )
        assert np.array_equal(predict_kernel(boosted, xs), want)

    def test_degenerate_kernel_surfaces(self):
        model = KernelModel(
            x_ref=np.zeros((2, 1)), w1=np.zeros(2), b1=0.0,
            w2=np.zeros(2), b2=0.0, gram_ref=np.eye(2), scaling=None,
            config=config(kernel="gaussian", sigma=1.0),
        )
        with pytest.raises(DegenerateModelError):
            predict_kernel(model, np.array([0.5]))


class TestPipeline:
    def test_tau_zero_no_weights_reduces_to_baseline(self):
        x, y = make_blobs(70, m1=12, m2=40)
        ds = LabeledDataset(x, y)
        cfg = config(subsample_enabled=False, weights_enabled=False)
        pipe = fit_frlstsvm(ds, cfg)
        scaling = minmax_fit(ds.features)
        xs = minmax_apply(scaling, ds.features)
        base = fit_lstsvm_baseline(xs[y == 1], xs[y == -1], 1.0, 1.0,
                                   scaling=scaling)
        assert rel_close(plane_vec(pipe.plane1), plane_vec(base.plane1),
                         1e-6)
        assert rel_close(plane_vec(pipe.plane2), plane_vec(base.plane2),
                         1e-6)
        probe = np.random.default_rng(2).uniform(-4, 4, size=(40, 2))
        assert np.array_equal(predict(pipe, probe),
                              predict_linear(base, probe))

    def test_subsampling_with_tau_zero_also_reduces(self):
        x, y = make_blobs(71, m1=10, m2=30)
        ds = LabeledDataset(x, y)
        cfg = config(tau=0.0, weights_enabled=False)
        pipe = fit_frlstsvm(ds, cfg)
        assert pipe.summary.m2_kept == 30
        assert pipe.summary.m2_total == 30

    def test_tau_one_with_spread_majority_fails(self):
        x, y = make_blobs(72)
        ds = LabeledDataset(x, y)
        with pytest.raises(ConfigurationError, match="tau"):
            fit_frlstsvm(ds, config(tau=1.0))

    def test_summary_counts_removed_rows(self):
        x, y = make_blobs(73, m1=10, m2=50)
        ds = LabeledDataset(x, y)
        model = fit_frlstsvm(ds, config(tau=0.55))
        assert model.summary.m1 == 10
        assert model.summary.m2_total == 50
        assert 0 < model.summary.m2_kept <= 50
        kept_rows = model.summary.kept_majority_rows
        assert kept_rows.shape[0] == model.summary.m2_kept
        assert np.all(ds.labels[kept_rows] == -1)

    def test_removed_scores_sit_below_kept_scores(self):
        from frlstsvm.fuzzy_rough import (
            positive_region_scores,
            subsample_majority,
        )

        x, y = make_blobs(74, m1=15, m2=60, spread=1.4)
        ds = LabeledDataset(x, y)
        xs = minmax_apply(minmax_fit(ds.features), ds.features)
        scores = positive_region_scores(xs, ds.labels, fuzzy(gamma=2.0))
        lo, hi = scores.scores.min(), scores.scores.max()
        assert lo < hi
        for tau in np.linspace(lo, hi, 7)[1:-1]:
            sub = subsample_majority(scores, float(tau))
            if sub.removed_indices.size == 0:
                continue
            removed_mean = scores.scores[sub.removed_indices].mean()
            kept_mean = scores.scores[sub.kept_indices].mean()
            assert removed_mean < kept_mean

    def test_class_internal_row_order_is_irrelevant(self):
        x, y = make_blobs(75, m1=14, m2=35)
        ds = LabeledDataset(x, y)
        rng = np.random.default_rng(8)
        order = np.concatenate([
            rng.permutation(np.flatnonzero(y == 1)),
            rng.permutation(np.flatnonzero(y == -1)),
        ])
        shuffled = LabeledDataset(x[order], y[order])
        cfg = config(tau=0.3)
        probe = rng.uniform(-4, 4, size=(60, 2))
        a = predict(fit_frlstsvm(ds, cfg), probe)
        b = predict(fit_frlstsvm(shuffled, cfg), probe)
        assert np.array_equal(a, b)

    def test_gaussian_pipeline_runs(self):
        x, y = make_circles(76, m1=20, m2=40)
        ds = LabeledDataset(x, y)
        cfg = config(tau=0.1, kernel="gaussian", sigma=0.25)
        model = fit_frlstsvm(ds, cfg)
        acc = float(np.mean(predict(model, x) == y))
        assert acc >= 0.9


def model_arrays(model) -> list[np.ndarray]:
    if isinstance(model, KernelModel):
        coeffs = [model.x_ref, model.w1, model.b1, model.w2, model.b2]
    else:
        coeffs = [model.plane1.w, model.plane1.b,
                  model.plane2.w, model.plane2.b]
    return [np.asarray(a) for a in coeffs] + [
        model.summary.kept_majority_rows]


class TestPreparedFold:
    def test_every_grid_fit_matches_a_fresh_pipeline(self):
        # One PreparedFold serves a whole grid in shuffled order; a memo
        # keyed too coarsely (say, the kept-majority weights by gamma
        # alone) hands some fit the wrong rows or weights.
        x, y = make_blobs(90, m1=8, m2=30)
        ds = LabeledDataset(x, y)
        probe = np.random.default_rng(3).uniform(-4, 4, size=(40, 2))
        kernels = (("linear", None), ("gaussian", 0.5))
        configs = [
            TrainConfig(c1=c, c2=c, tau=tau, fuzzy=fuzzy(gamma=gamma),
                        kernel=kernel, sigma=sigma,
                        subsample_enabled=sub, weights_enabled=wts)
            for gamma, tau, c, sub, wts, (kernel, sigma) in itertools.product(
                (1.0, 2.0), (0.0, 0.72, 1.0), (0.5, 2.0), (True, False),
                (True, False), kernels)
        ]
        want = {}
        for cfg in configs:
            try:
                model = fit_frlstsvm(ds, cfg)
            except ConfigurationError:
                want[cfg] = None
                continue
            want[cfg] = (model_arrays(model),
                         predict(model, probe, return_distances=True))
        kept = {(cfg.fuzzy.gamma, cfg.tau): out[0][-1].size
                for cfg, out in want.items()
                if out is not None and cfg.subsample_enabled}
        # tau 0.72 keeps a different strict subset at each gamma, and
        # tau 1 empties the majority whenever subsampling is on
        assert 0 < kept[1.0, 0.72] < 30 and 0 < kept[2.0, 0.72] < 30
        assert kept[1.0, 0.72] != kept[2.0, 0.72]
        empty = {cfg for cfg in configs
                 if cfg.subsample_enabled and cfg.tau == 1.0}
        assert {cfg for cfg, out in want.items() if out is None} == empty

        prep = PreparedFold(x, y)
        rng = np.random.default_rng(4)
        raised = 0
        for _ in range(2):
            for i in rng.permutation(len(configs)):
                cfg = configs[i]
                if want[cfg] is None:
                    with pytest.raises(ConfigurationError, match="tau"):
                        prep.fit(cfg)
                    raised += 1
                    continue
                model = prep.fit(cfg)
                arrays, outputs = want[cfg]
                for got, exp in zip(model_arrays(model) + list(
                        predict(model, probe, return_distances=True)),
                        arrays + list(outputs)):
                    assert got.dtype == exp.dtype
                    assert got.tobytes() == exp.tobytes()
        assert raised == 2 * len(empty)


class TestSerialization:
    def linear_model(self):
        x, y = make_blobs(80, m1=8, m2=20)
        return fit_frlstsvm(LabeledDataset(x, y), config(tau=0.2)), x

    def kernel_model(self):
        x, y = make_circles(81, m1=10, m2=20)
        cfg = config(tau=0.2, kernel="gaussian", sigma=0.3)
        return fit_frlstsvm(LabeledDataset(x, y), cfg), x

    def test_linear_round_trip_is_exact(self, tmp_path):
        model, x = self.linear_model()
        path = str(tmp_path / "linear.model")
        save_model(model, path)
        back = load_model(path)
        assert isinstance(back, LinearModel)
        assert np.array_equal(back.plane1.w, model.plane1.w)
        assert back.plane1.b == model.plane1.b
        assert np.array_equal(back.plane2.w, model.plane2.w)
        assert back.plane2.b == model.plane2.b
        assert np.array_equal(back.scaling.mins, model.scaling.mins)
        assert back.config.c1 == model.config.c1
        assert back.config.fuzzy.gamma == model.config.fuzzy.gamma
        assert np.array_equal(predict(back, x), predict(model, x))

    def test_kernel_round_trip_is_exact(self, tmp_path):
        model, x = self.kernel_model()
        path = str(tmp_path / "kernel.model")
        save_model(model, path)
        back = load_model(path)
        assert isinstance(back, KernelModel)
        assert np.array_equal(back.x_ref, model.x_ref)
        assert np.array_equal(back.w1, model.w1)
        assert np.array_equal(back.gram_ref, model.gram_ref)
        assert back.config.sigma == model.config.sigma
        assert np.array_equal(predict(back, x), predict(model, x))

    def test_resave_is_byte_identical(self, tmp_path):
        for maker in (self.linear_model, self.kernel_model):
            model, _ = maker()
            first = tmp_path / "first.model"
            second = tmp_path / "second.model"
            save_model(model, str(first))
            save_model(load_model(str(first)), str(second))
            assert first.read_bytes() == second.read_bytes()

    def test_refit_is_byte_identical(self, tmp_path):
        x, y = make_blobs(82, m1=9, m2=27)
        cfg = config(tau=0.25)
        a = tmp_path / "a.model"
        b = tmp_path / "b.model"
        save_model(fit_frlstsvm(LabeledDataset(x, y), cfg), str(a))
        save_model(fit_frlstsvm(LabeledDataset(x, y), cfg), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_header_names_format_and_kernel(self, tmp_path):
        model, _ = self.linear_model()
        path = tmp_path / "m.model"
        save_model(model, str(path))
        assert path.read_text().splitlines()[0] == "FRLSTSVM/1 linear"

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text("SOMETHING/2 linear\n")
        with pytest.raises(DataError):
            load_model(str(path))

    def test_rejects_truncated_file(self, tmp_path):
        model, _ = self.linear_model()
        path = tmp_path / "m.model"
        save_model(model, str(path))
        lines = path.read_text().splitlines()
        clipped = tmp_path / "clipped.model"
        clipped.write_text("\n".join(lines[: len(lines) // 2]))
        with pytest.raises(DataError):
            load_model(str(clipped))

    def test_rejects_short_reference_row(self, tmp_path):
        model, _ = self.kernel_model()
        path = tmp_path / "m.model"
        save_model(model, str(path))
        lines = path.read_text().splitlines()
        row = [i for i, ln in enumerate(lines) if ln.startswith("xref ")][0]
        lines[row + 3] = lines[row + 3].rsplit(" ", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="reference rows"):
            load_model(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_model(str(tmp_path / "absent.model"))
