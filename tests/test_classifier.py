"""Plane fits, kernel fits, the decision rule, and serialization."""
from __future__ import annotations

import gc
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from frlstsvm.classifier import (
    _KEPT_BLOCK_ENTRIES,
    Hyperplane,
    PreparedFold,
    TrainConfig,
    TwinPlaneModel,
    fit_blocks,
    fit_frlstsvm,
    fit_kernel,
    fit_linear,
    fit_lstsvm_baseline,
    gaussian_gram,
    load_model,
    predict,
    save_model,
)
from frlstsvm.dataset import LabeledDataset, minmax_apply, minmax_fit
from frlstsvm.errors import (
    ConfigurationError,
    DataError,
    DegenerateModelError,
)
from frlstsvm import fuzzy_rough
from frlstsvm.fuzzy_rough import (
    FuzzyParams,
    class_weights,
    positive_region_scores,
    subsample_majority,
)

from helpers import (
    descent_u1,
    descent_u2,
    gaussian_kernel,
    grad_f1,
    grad_f2,
    make_blobs,
    make_circles,
    smw_dual_planes,
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


def kernel_value(x, y, sigma):
    return gaussian_gram([x], [y], sigma)[0, 0]


class TestGaussianKernel:
    def test_same_point_is_one(self):
        assert kernel_value([0.2, 0.7], [0.2, 0.7], 3.0) == 1.0

    def test_distance_sqrt2_sigma(self):
        got = kernel_value([0.0, 0.0], [1.0, 1.0], 1.0)
        assert got == pytest.approx(math.exp(-1.0))

    def test_monotone_toward_one_in_sigma(self):
        x, y = np.array([0.0, 0.0]), np.array([0.4, 0.3])
        values = [kernel_value(x, y, s) for s in (0.1, 0.5, 1, 5, 50)]
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
        for sigma in (0.0, -1.0):
            with pytest.raises(ConfigurationError):
                gaussian_gram([[0.0]], [[1.0]], sigma)

    def test_self_gram_is_exactly_symmetric_with_unit_diagonal(self):
        # fit_kernel and load_model take the self gram as exact
        rng = np.random.default_rng(22)
        for rows in (1, 7, 160):
            x = rng.uniform(0, 1, size=(rows, 8))
            for sigma in (0.25, 1.0, 3.0):
                k = gaussian_gram(x, x, sigma)
                assert np.array_equal(k, k.T)
                assert np.all(np.diag(k) == 1.0)

    def test_in_place_gram_keeps_the_bits_of_the_expression(self):
        # models saved before the gram was built in place must load and
        # predict to the same bits
        rng = np.random.default_rng(23)
        xa = rng.uniform(0, 1, size=(40, 8))
        xb = rng.uniform(0, 1, size=(25, 8))
        for sigma in (0.3, 1.0, 2.5):
            d2 = cdist(xa, xb, metric="sqeuclidean")
            want = np.exp(-d2 / (2.0 * sigma * sigma))
            assert gaussian_gram(xa, xb, sigma).tobytes() == want.tobytes()


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
        assert predict(model, np.array([2.0, 0.0])) == 1
        assert predict(model, np.array([-2.0, 0.0])) == -1
        # equidistant by symmetry: the tie goes to the minority class
        assert predict(model, np.array([0.0, 0.0])) == 1

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

    def test_weighted_fit_matches_smw_dual(self):
        # the primal normal equations against the Woodbury dual, solved
        # through other matrices by another factorization
        rng = np.random.default_rng(37)
        for trial in range(40):
            x1, x2, d1, d2 = random_instance(rng, weighted=True)
            c1 = float(2.0 ** rng.integers(-3, 4))
            c2 = float(2.0 ** rng.integers(-3, 4))
            model = fit_linear(x1, x2, d1, d2, c1, c2, delta=1e-6)
            want1, want2 = smw_dual_planes(x1, x2, d1, d2, c1, c2, 1e-6)
            assert rel_close(plane_vec(model.plane1), want1, 1e-8)
            assert rel_close(plane_vec(model.plane2), want2, 1e-8)
            assert set(model.summary.solver_reports) == {"plane1", "plane2"}

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
        acc = float(np.mean(predict(model, x) == y))
        assert acc >= 0.95

    def test_weight_length_mismatch(self):
        with pytest.raises(ValueError, match="weights"):
            fit_linear(MIRROR_X1, MIRROR_X2, np.ones(3), None, 1.0, 1.0)


class TestPredictLinear:
    def make_model(self, w1, b1, w2, b2):
        return TwinPlaneModel(
            plane1=Hyperplane(w=np.asarray(w1, float), b=b1),
            plane2=Hyperplane(w=np.asarray(w2, float), b=b2),
            scaling=None,
            config=config(),
        )

    def test_positive_rescaling_changes_nothing(self):
        rng = np.random.default_rng(44)
        base = self.make_model([1.0, -0.5], 0.2, [-0.3, 0.8], -0.1)
        xs = rng.uniform(-2, 2, size=(50, 2))
        want = predict(base, xs)
        for c1, c2 in ((3.0, 0.5), (0.001, 7.0), (100.0, 100.0)):
            scaled = self.make_model(
                base.plane1.w * c1, base.plane1.b * c1,
                base.plane2.w * c2, base.plane2.b * c2,
            )
            assert np.array_equal(predict(scaled, xs), want)

    def test_single_degenerate_plane_loses_every_point(self):
        model = self.make_model([0.0, 0.0], 0.0, [1.0, 0.0], 0.0)
        assert predict(model, np.array([5.0, 1.0])) == -1

    def test_both_degenerate_is_an_error(self):
        model = self.make_model([0.0], 0.0, [0.0], 0.0)
        with pytest.raises(DegenerateModelError):
            predict(model, np.array([1.0]))

    def test_dimension_mismatch(self):
        model = self.make_model([1.0, 0.0], 0.0, [0.0, 1.0], 0.0)
        with pytest.raises(DataError, match="features"):
            predict(model, np.ones(3))

    def test_distances_returned_in_order(self):
        model = self.make_model([1.0], -1.0, [1.0], 1.0)
        label, d1, d2 = predict(model, np.array([1.0]),
                                return_distances=True)
        assert label == 1 and d1 == 0.0 and d2 == 2.0


def scaled_split(x, y):
    scaling = minmax_fit(x)
    xs = minmax_apply(scaling, x)
    return xs[y == 1], xs[y == -1], scaling


class TestKernelFit:
    def test_one_fit_holds_one_planes_terms_at_a_time(self):
        # the four (m_ref + 1)^2 grams of the c-free terms plus the
        # reference gram, all live, would take the peak past 7 of them
        rng = np.random.default_rng(99)
        x1, x2 = rng.random((80, 8)), rng.random((720, 8))
        d1, d2 = rng.uniform(0.5, 1, 80), rng.uniform(0.5, 1, 720)
        cfg = config(kernel="gaussian", sigma=1.0)
        tracemalloc.start()
        try:
            fit_kernel(x1, x2, d1, d2, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.5 * 801 ** 2 * 8

    def test_circles_need_the_kernel(self):
        x, y = make_circles(50)
        x1, x2, scaling = scaled_split(x, y)
        cfg = config(kernel="gaussian", sigma=0.25)
        kernel_model = fit_kernel(x1, x2, None, None, cfg, scaling=scaling)
        kernel_acc = float(np.mean(predict(kernel_model, x) == y))
        linear_model = fit_lstsvm_baseline(x1, x2, 1.0, 1.0, scaling=scaling)
        linear_acc = float(np.mean(predict(linear_model, x) == y))
        assert kernel_acc >= 0.95
        assert linear_acc <= 0.70

    def test_point_on_minority_ring_is_positive(self):
        x, y = make_circles(51)
        x1, x2, scaling = scaled_split(x, y)
        cfg = config(kernel="gaussian", sigma=0.25)
        model = fit_kernel(x1, x2, None, None, cfg, scaling=scaling)
        assert predict(model, np.array([1.0, 0.0])) == 1
        assert predict(model, np.array([3.0, 0.0])) == -1

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
        assert rel_close(plane_vec(model.plane1), u1, 1e-6)
        assert rel_close(plane_vec(model.plane2), u2, 1e-6)

    def test_matches_smw_dual_and_zeroes_the_gradient(self):
        rng = np.random.default_rng(61)
        probe = rng.uniform(-0.2, 1.2, size=(400, 2))
        for seed in (55, 56):
            x, y = make_circles(seed, m1=20, m2=40)
            x1, x2, _ = scaled_split(x, y)
            d1 = rng.uniform(0.05, 1.0, size=20)
            d2 = rng.uniform(0.05, 1.0, size=40)
            for c in (0.25, 4.0):
                cfg = config(c1=c, c2=c, kernel="gaussian", sigma=0.3)
                model = fit_kernel(x1, x2, d1, d2, cfg)
                k = gaussian_gram(model.x_ref, model.x_ref, 0.3)
                p, q = k[:20], k[20:]
                u1 = plane_vec(model.plane1)
                u2 = plane_vec(model.plane2)
                g1 = grad_f1(u1, p, q, d2, c, 1e-6)
                g2 = grad_f2(u2, p, q, d1, c, 1e-6)
                assert np.linalg.norm(g1) <= 1e-8 * (1 + np.linalg.norm(u1))
                assert np.linalg.norm(g2) <= 1e-8 * (1 + np.linalg.norm(u2))
                o1, o2 = smw_dual_planes(p, q, d1, d2, c, c, 1e-6)
                oracle = TwinPlaneModel(
                    plane1=Hyperplane(w=o1[:-1], b=o1[-1], gram=k),
                    plane2=Hyperplane(w=o2[:-1], b=o2[-1], gram=k),
                    scaling=None, config=cfg, x_ref=model.x_ref,
                )
                assert np.array_equal(predict(model, probe),
                                      predict(oracle, probe))

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
        la, d1a, d2a = predict(a, grid, return_distances=True)
        lb, d1b, d2b = predict(b, grid, return_distances=True)
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
        k = gaussian_gram(model.x_ref, model.x_ref, 0.4)
        assert np.array_equal(k, k.T)
        assert np.all(np.diag(k) == 1.0)
        assert np.all(k > 0.0) and np.all(k <= 1.0)
        for plane in (model.plane1, model.plane2):
            assert plane.w.shape[0] == model.x_ref.shape[0]
            # the norm each plane carries is its length in the
            # reproducing space, sqrt(w'Kw)
            assert plane.norm == math.sqrt(float(plane.w @ k @ plane.w))

    def test_requires_gaussian_config(self):
        with pytest.raises(ConfigurationError, match="gaussian"):
            fit_kernel(MIRROR_X1, MIRROR_X2, None, None, config())

    def test_kernel_prediction_scale_invariance(self):
        x, y = make_circles(54, m1=12, m2=24)
        x1, x2, scaling = scaled_split(x, y)
        cfg = config(kernel="gaussian", sigma=0.3)
        model = fit_kernel(x1, x2, None, None, cfg, scaling=scaling)
        xs = np.random.default_rng(1).uniform(-3, 3, size=(30, 2))
        want = predict(model, xs)
        k = gaussian_gram(model.x_ref, model.x_ref, 0.3)
        p1, p2 = model.plane1, model.plane2
        boosted = TwinPlaneModel(
            plane1=Hyperplane(w=p1.w * 9.0, b=p1.b * 9.0, gram=k),
            plane2=Hyperplane(w=p2.w * 0.125, b=p2.b * 0.125, gram=k),
            scaling=model.scaling, config=cfg, x_ref=model.x_ref,
        )
        assert np.array_equal(predict(boosted, xs), want)

    def test_degenerate_kernel_surfaces(self):
        model = TwinPlaneModel(
            plane1=Hyperplane(w=np.zeros(2), b=0.0, gram=np.eye(2)),
            plane2=Hyperplane(w=np.zeros(2), b=0.0, gram=np.eye(2)),
            scaling=None, config=config(kernel="gaussian", sigma=1.0),
            x_ref=np.zeros((2, 1)),
        )
        with pytest.raises(DegenerateModelError):
            predict(model, np.array([0.5]))


class TestPipeline:
    def test_tau_zero_no_weights_reduces_to_baseline(self):
        x, y = make_blobs(70, m1=12, m2=40)
        ds = LabeledDataset(x, y)
        cfg = config(weights_enabled=False)
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
                              predict(base, probe))

    def test_subsampling_with_tau_zero_also_reduces(self):
        x, y = make_blobs(71, m1=10, m2=30)
        ds = LabeledDataset(x, y)
        cfg = config(tau=0.0, weights_enabled=False)
        pipe = fit_frlstsvm(ds, cfg)
        assert pipe.summary.m2_kept == 30
        assert pipe.summary.m2_total == 30

    @pytest.mark.parametrize("score_mode", ["density", "lower_approx"])
    def test_tau_zero_without_weights_computes_no_similarity(
            self, monkeypatch, score_mode):
        # every score is >= 0, so tau 0 keeps every majority row without
        # scoring one; unweighted, nothing else needs a similarity
        calls = []
        for name in ("indiscernibility_matrix", "_cross_similarity"):
            real = getattr(fuzzy_rough, name)

            def counted(*args, _name=name, _real=real):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(fuzzy_rough, name, counted)
        x, y = make_blobs(78, m1=10, m2=30, spread=1.2)
        cfg = TrainConfig(c1=1.0, c2=1.0, tau=0.0,
                          fuzzy=fuzzy(score_mode=score_mode),
                          weights_enabled=False)
        model = fit_frlstsvm(LabeledDataset(x, y), cfg)
        assert model.summary.m2_kept == 30
        assert calls == []

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

    def test_empty_batch_gives_empty_arrays(self):
        ds = LabeledDataset(*make_circles(77, m1=10, m2=20))
        empty = np.empty((0, 2))
        for cfg in (config(tau=0.1),
                    config(tau=0.1, kernel="gaussian", sigma=0.3)):
            model = fit_frlstsvm(ds, cfg)
            labels = predict(model, empty)
            assert labels.shape == (0,) and labels.dtype == np.int64
            labels, d1, d2 = predict(model, empty, return_distances=True)
            assert labels.shape == d1.shape == d2.shape == (0,)


def model_arrays(model) -> list[np.ndarray]:
    coeffs = [model.plane1.w, model.plane1.b, model.plane1.norm,
              model.plane2.w, model.plane2.b, model.plane2.norm]
    if model.x_ref is not None:
        coeffs.append(model.x_ref)
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
                        kernel=kernel, sigma=sigma, weights_enabled=wts)
            for gamma, tau, c, wts, (kernel, sigma) in itertools.product(
                (1.0, 2.0), (0.0, 0.72, 1.0), (0.5, 2.0), (True, False),
                kernels)
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
                for cfg, out in want.items() if out is not None}
        # tau 0.72 keeps a different strict subset at each gamma, and
        # tau 1 empties the majority
        assert 0 < kept[1.0, 0.72] < 30 and 0 < kept[2.0, 0.72] < 30
        assert kept[1.0, 0.72] != kept[2.0, 0.72]
        empty = {cfg for cfg in configs if cfg.tau == 1.0}
        assert {cfg for cfg, out in want.items() if out is None} == empty

        # the second pass shares each (blocks, sigma)'s c-free terms
        prep = PreparedFold(x, y)
        rng = np.random.default_rng(4)
        raised = 0
        shared_terms = {}
        for shared in (False, True):
            for i in rng.permutation(len(configs)):
                cfg = configs[i]
                if want[cfg] is None:
                    with pytest.raises(ConfigurationError, match="tau"):
                        prep.blocks(cfg)
                    raised += 1
                    continue
                blocks = prep.blocks(cfg)
                terms = None
                if shared:
                    key = (blocks, cfg.sigma)
                    if key not in shared_terms:
                        shared_terms[key] = blocks.terms(cfg.sigma)
                    terms = shared_terms[key]
                model = fit_blocks(blocks, cfg, prep.scaling, terms=terms)
                arrays, outputs = want[cfg]
                for got, exp in zip(model_arrays(model) + list(
                        predict(model, probe, return_distances=True)),
                        arrays + list(outputs)):
                    assert got.dtype == exp.dtype
                    assert got.tobytes() == exp.tobytes()
        assert raised == 2 * len(empty)
        # the kept sets at tau 0 and 0.72 differ at both gammas, and
        # without weights tau 0 is one kept set for both gammas
        assert len({blocks for blocks, _ in shared_terms}) == 2 * 2 * 2 - 1

    def test_duplicate_kept_sets_share_one_blocks_object(self):
        # under the minimum t-norm every density score is >= 1 - gamma,
        # so at gamma 0.5 tau 0.3 keeps every row, as tau 0 does
        x, y = make_blobs(97, m1=8, m2=30, spread=1.2)
        prep = PreparedFold(x, y)

        def blocks(tau, gamma, weights=True):
            return prep.blocks(TrainConfig(
                c1=1.0, c2=1.0, tau=tau, fuzzy=fuzzy(gamma=gamma),
                weights_enabled=weights))

        tau_subset = float(np.median(prep.scores(fuzzy(gamma=2.0)).scores))
        assert blocks(0.3, 0.5) is blocks(0.0, 0.5)
        assert blocks(0.3, 0.5).x2hat.shape[0] == 30
        # the same rows under other weights, or none, are other blocks
        assert blocks(0.0, 2.0) is not blocks(0.0, 0.5)
        assert blocks(0.0, 0.5, False) is not blocks(0.0, 0.5)
        # without weights the kept set alone is the key
        assert blocks(0.0, 0.5, False) is blocks(0.3, 2.0 / 3, False)
        assert blocks(0.0, 0.5, False) is blocks(0.0, 2.0, False)
        sub = blocks(tau_subset, 2.0)
        assert 0 < sub.x2hat.shape[0] < 30
        assert sub is blocks(tau_subset, 2.0) and sub is not blocks(0.0, 2.0)
        assert blocks(tau_subset, 2.0, False) is not blocks(0.0, 2.0, False)

    def test_one_slot_similarity_is_rebuilt_with_the_same_bits(
            self, monkeypatch):
        calls = []
        real = fuzzy_rough.indiscernibility_matrix

        def counted(x, params):
            calls.append((params.gamma, x.shape[0]))
            return real(x, params)

        monkeypatch.setattr(fuzzy_rough, "indiscernibility_matrix", counted)
        x, y = make_blobs(98, m1=8, m2=30, spread=1.2)
        fa, fb = fuzzy(gamma=2.0), fuzzy(gamma=1.0)
        scores = PreparedFold(x, y).scores(fa).scores
        taus = (float(np.quantile(scores, 0.5)),
                float(np.quantile(scores, 0.25)))
        prep = PreparedFold(x, y)
        calls.clear()
        first = prep.blocks(TrainConfig(c1=1.0, c2=1.0, tau=taus[0],
                                        fuzzy=fa))
        prep.blocks(TrainConfig(c1=1.0, c2=1.0, tau=0.0, fuzzy=fb))
        # memoised blocks need no similarity; a new tau at gamma A after
        # gamma B builds A's again, with the bits of a fresh PreparedFold
        assert prep.blocks(TrainConfig(c1=4.0, c2=1.0, tau=taus[0],
                                       fuzzy=fa)) is first
        cfg = TrainConfig(c1=1.0, c2=1.0, tau=taus[1], fuzzy=fa)
        got = prep.blocks(cfg)
        assert [g for g, rows in calls if rows == 30] == [2.0, 1.0, 2.0]
        want = PreparedFold(x, y).blocks(cfg)
        assert got.x2hat.shape[0] > first.x2hat.shape[0]
        for name in ("x2hat", "d1", "d2", "kept_rows"):
            assert (getattr(got, name).tobytes()
                    == getattr(want, name).tobytes())

    def test_memoised_failure_keeps_no_reference_to_the_fold(self):
        # a tau that empties the majority fails on every ask; the
        # PreparedFold, and the similarity in its slot, must still go
        # with its last name, not wait for the garbage collector
        x, y = make_blobs(99, m1=8, m2=30, spread=1.2)
        prep = PreparedFold(x, y)
        cfg = TrainConfig(c1=1.0, c2=1.0, tau=1.0, fuzzy=fuzzy(gamma=2.0))
        for _ in range(2):
            with pytest.raises(ConfigurationError):
                prep.blocks(cfg)
        gone = weakref.ref(prep)
        gc.disable()
        try:
            del prep
            assert gone() is None
        finally:
            gc.enable()

    def test_steps_are_bit_equal_to_the_fuzzy_rough_functions(self):
        # scores and kept-majority weights are read off one memoised
        # majority similarity; they must equal the standalone functions
        # bit for bit, or CV result files would drift
        x, y = make_blobs(91, m1=9, m2=40, spread=1.2)
        prep = PreparedFold(x, y)
        xs = minmax_apply(minmax_fit(x), x)
        taus = (0.0, 0.5, 0.7)
        kept_sizes = set()
        for tnorm in ("minimum", "product", "lukasiewicz"):
            for gamma in (0.8, 2.0):
                fz = fuzzy(gamma=gamma, tnorm=tnorm)
                scores = positive_region_scores(xs, y, fz, target_class=-1)
                got = prep.scores(fz)
                assert got.scores.tobytes() == scores.scores.tobytes()
                assert np.array_equal(got.row_indices, scores.row_indices)
                d1 = class_weights(xs[y == 1], fz)
                for tau in taus:
                    cfg = TrainConfig(c1=1.0, c2=1.0, tau=tau, fuzzy=fz)
                    try:
                        kept = subsample_majority(scores, tau).kept_indices
                    except ConfigurationError:
                        with pytest.raises(ConfigurationError):
                            prep.blocks(cfg)
                        continue
                    kept_sizes.add(kept.size)
                    blocks = prep.blocks(cfg)
                    x2hat = xs[y == -1][kept]
                    assert np.array_equal(blocks.kept_rows,
                                          np.flatnonzero(y == -1)[kept])
                    assert blocks.x2hat.tobytes() == x2hat.tobytes()
                    assert blocks.d1.tobytes() == d1.tobytes()
                    assert (blocks.d2.tobytes()
                            == class_weights(x2hat, fz).tobytes())
        assert len(kept_sizes) >= 3

    def test_blocked_kept_weights_are_bit_equal_to_class_weights(self):
        # a 900-row majority: a strict subset of it spans several row
        # blocks of the kept x kept similarity
        x, y = make_blobs(93, m1=40, m2=900, spread=1.2)
        prep = PreparedFold(x, y)
        fz = fuzzy(gamma=2.0)
        scores = prep.scores(fz).scores
        sizes = []
        for tau in (float(scores.max()), 0.0,
                    float(np.quantile(scores, 0.25))):
            cfg = TrainConfig(c1=1.0, c2=1.0, tau=tau, fuzzy=fz)
            blocks = prep.blocks(cfg)
            assert (blocks.d2.tobytes()
                    == class_weights(blocks.x2hat, fz).tobytes())
            sizes.append(blocks.x2hat.shape[0])
        assert sizes[:2] == [1, 900] and 1 < sizes[2] < 900
        assert sizes[2] ** 2 > 3 * _KEPT_BLOCK_ENTRIES

    def test_blocks_peak_memory_is_the_similarity(self):
        # an abalone19-sized majority (4142 x 8): the similarity itself
        # is the only m2 x m2 array that blocks() allocates
        rng = np.random.default_rng(96)
        m1, m2 = 32, 4142
        x = np.vstack([rng.normal(0.55, 0.05, size=(m1, 8)),
                       rng.normal(0.2, 0.04, size=(m2, 8))])
        x[m1 + rng.permutation(m2)[:m2 // 3], rng.integers(0, 8)] += 0.5
        y = np.array([1] * m1 + [-1] * m2)
        fz = fuzzy(gamma=1.0)
        tau = float(np.median(PreparedFold(x, y).scores(fz).scores))
        cfg = TrainConfig(c1=1.0, c2=1.0, tau=tau, fuzzy=fz)
        prep = PreparedFold(x, y)
        tracemalloc.start()
        try:
            blocks = prep.blocks(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < blocks.x2hat.shape[0] < m2
        assert peak < m2 * m2 * 8 + 16 * 2 ** 20

    def test_grid_computes_each_similarity_once(self, monkeypatch):
        calls = []
        real = fuzzy_rough.indiscernibility_matrix

        def counted(x, params):
            calls.append(params.gamma)
            return real(x, params)

        monkeypatch.setattr(fuzzy_rough, "indiscernibility_matrix", counted)
        x, y = make_blobs(92, m1=8, m2=30, spread=1.2)
        prep = PreparedFold(x, y)
        for gamma, tau, c in itertools.product((1.0, 2.0), (0.0, 0.4, 0.6),
                                               (0.5, 2.0)):
            cfg = TrainConfig(c1=c, c2=c, tau=tau, fuzzy=fuzzy(gamma=gamma))
            fit_blocks(prep.blocks(cfg), cfg)
        # one majority and one minority similarity per gamma
        assert sorted(calls) == [1.0, 1.0, 2.0, 2.0]

    def test_lower_approx_blocks_build_no_majority_by_all_block(
            self, monkeypatch):
        # lower_approx scores need only the majority-by-minority
        # similarity; the majority's own similarity is for its weights
        shapes = []
        real = fuzzy_rough._cross_similarity

        def counted(xa, xb, params):
            shapes.append((xa.shape[0], xb.shape[0]))
            return real(xa, xb, params)

        monkeypatch.setattr(fuzzy_rough, "_cross_similarity", counted)
        m1, m2 = 8, 30
        x, y = make_blobs(94, m1=m1, m2=m2, spread=1.2)
        prep = PreparedFold(x, y)
        fz = fuzzy(score_mode="lower_approx")
        tau = float(np.median(prep.scores(fz).scores))
        blocks = prep.blocks(TrainConfig(c1=1.0, c2=1.0, tau=tau, fuzzy=fz))
        assert 0 < blocks.x2hat.shape[0] < m2
        assert sorted(shapes) == sorted([(m2, m1), (m2, m2), (m1, m1)])


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
        assert isinstance(back, TwinPlaneModel) and back.x_ref is None
        assert np.array_equal(back.plane1.w, model.plane1.w)
        assert back.plane1.b == model.plane1.b
        assert np.array_equal(back.plane2.w, model.plane2.w)
        assert back.plane2.b == model.plane2.b
        assert back.plane1.norm == model.plane1.norm
        assert back.plane2.norm == model.plane2.norm
        # the same bits as numpy's Euclidean norm
        for plane in (back.plane1, back.plane2):
            assert plane.norm == float(np.linalg.norm(plane.w))
        assert np.array_equal(back.scaling.mins, model.scaling.mins)
        assert back.config.c1 == model.config.c1
        assert back.config.fuzzy.gamma == model.config.fuzzy.gamma
        assert np.array_equal(predict(back, x), predict(model, x))

    def test_kernel_round_trip_is_exact(self, tmp_path):
        model, x = self.kernel_model()
        path = str(tmp_path / "kernel.model")
        save_model(model, path)
        back = load_model(path)
        assert isinstance(back, TwinPlaneModel)
        assert np.array_equal(back.x_ref, model.x_ref)
        assert np.array_equal(back.plane1.w, model.plane1.w)
        assert np.array_equal(back.plane2.w, model.plane2.w)
        # the norms are recomputed from the reference rows on load
        assert back.plane1.norm == model.plane1.norm
        assert back.plane2.norm == model.plane2.norm
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

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.model"
        path.write_text("")
        with pytest.raises(DataError, match="empty file"):
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

    @pytest.mark.parametrize("kind,tag", [
        ("linear", "min"), ("linear", "range"), ("linear", "w1"),
        ("linear", "b2"), ("gaussian", "min"), ("gaussian", "w2"),
        ("gaussian", "b1"), ("gaussian", "xref"),
    ])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_values(self, tmp_path, kind, tag, bad):
        # scaling, plane and reference-row sections alike: a value that
        # parses as a float but is not finite names its line
        maker = self.linear_model if kind == "linear" else self.kernel_model
        model, _ = maker()
        path = tmp_path / "m.model"
        save_model(model, str(path))
        lines = path.read_text().splitlines()
        row = [i for i, ln in enumerate(lines) if ln.split()[0] == tag][0]
        if tag == "xref":
            row += 1
        parts = lines[row].split()
        parts[-1] = bad
        lines[row] = " ".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError,
                           match=f"non-finite value .* at line {row + 1}$"):
            load_model(str(path))

    @pytest.mark.parametrize("kind", ["linear", "gaussian"])
    def test_rejects_width_that_disagrees_with_scaling(self, tmp_path,
                                                       kind):
        # one column fewer in the planes (linear) or in every reference
        # row (gaussian) than in the scaling section: every predict on
        # such a model would fail, so loading does
        maker = self.linear_model if kind == "linear" else self.kernel_model
        model, _ = maker()
        path = tmp_path / "m.model"
        save_model(model, str(path))
        lines = path.read_text().splitlines()
        if kind == "linear":
            section = "planes"
            edit = [i for i, ln in enumerate(lines)
                    if ln.split()[0] in ("w1", "w2")]
        else:
            section = "xref"
            start = lines.index(f"xref {model.x_ref.shape[0]}") + 1
            edit = range(start, start + model.x_ref.shape[0])
        for i in edit:
            lines[i] = lines[i].rsplit(" ", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"{section} section has 1 "
                                            "features, the scaling "
                                            "section 2"):
            load_model(str(path))

    @pytest.mark.parametrize("kind", ["linear", "gaussian"])
    def test_accepts_a_file_without_scaling(self, tmp_path, kind):
        # "scaling 1 / none" gives no width to check: the model takes
        # rows already scaled
        maker = self.linear_model if kind == "linear" else self.kernel_model
        model, x = maker()
        path = tmp_path / "m.model"
        save_model(model, str(path))
        lines = path.read_text().splitlines()
        assert [ln.split()[0] for ln in lines[1:4]] == [
            "scaling", "min", "range"]
        lines[1:4] = ["scaling 1", "none"]
        path.write_text("\n".join(lines) + "\n")
        back = load_model(str(path))
        assert back.scaling is None
        xs = minmax_apply(model.scaling, x)
        assert np.array_equal(predict(back, xs), predict(model, x))

    def test_either_implicator_line_loads_the_same_model(self, tmp_path):
        # files written while the implicator was an option may name
        # kleene_dienes; it gives the same scores, so the same model
        model, x = self.linear_model()
        path = tmp_path / "m.model"
        save_model(model, str(path))
        text = path.read_text()
        assert "\nimplicator lukasiewicz\n" in text
        other = tmp_path / "kd.model"
        other.write_text(text.replace("\nimplicator lukasiewicz\n",
                                      "\nimplicator kleene_dienes\n"))
        want = predict(load_model(str(path)), x, return_distances=True)
        got = predict(load_model(str(other)), x, return_distances=True)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        bad = tmp_path / "godel.model"
        bad.write_text(text.replace("\nimplicator lukasiewicz\n",
                                    "\nimplicator godel\n"))
        with pytest.raises(DataError, match="'implicator'.*'godel'"):
            load_model(str(bad))

    def test_subsample_zero_file_loads_with_tau_zero(self, tmp_path):
        # files written while subsampling was a switch may say
        # subsample 0 beside any tau; that fit kept every majority row,
        # as a tau 0 fit does, and it is saved back as one
        x, y = make_blobs(83, m1=8, m2=20)
        model = fit_frlstsvm(LabeledDataset(x, y), config(tau=0.0))
        path = tmp_path / "m.model"
        save_model(model, str(path))
        text = path.read_text()
        assert "\ntau 0\n" in text and "\nsubsample 1\n" in text
        old = tmp_path / "old.model"
        old.write_text(text.replace("\ntau 0\n", "\ntau 0.3\n")
                       .replace("\nsubsample 1\n", "\nsubsample 0\n"))
        back = load_model(str(old))
        assert back.config.tau == 0.0
        want = predict(model, x, return_distances=True)
        got = predict(back, x, return_distances=True)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        resaved = tmp_path / "resaved.model"
        save_model(back, str(resaved))
        assert resaved.read_text() == text
        old.write_text(old.read_text().replace("\ntau 0.3\n",
                                                "\ntau 1.5\n"))
        with pytest.raises(DataError, match="tau must be in"):
            load_model(str(old))

    @pytest.mark.parametrize("line,message", [
        ("subsample yes", "'subsample' must be one of 0, 1, got 'yes'"),
        ("subsample 2", "'subsample' must be one of 0, 1, got '2'"),
        ("weights 2", "'weights' must be one of 0, 1, got '2'"),
        ("weights true", "'weights' must be one of 0, 1, got 'true'"),
        ("tnorm max", "tnorm must be one of"),
        ("c1 -1", "c1 must be > 0"),
    ])
    def test_rejects_bad_config_values(self, tmp_path, line, message):
        # a flag read as anything but 0 or 1 would load as disabled,
        # and every config check names the file
        model, _ = self.linear_model()
        path = tmp_path / "m.model"
        save_model(model, str(path))
        key = line.split()[0]
        lines = [line if ln.split()[0] == key else ln
                 for ln in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"bad config section .*{message}"):
            load_model(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_model(str(tmp_path / "absent.model"))
