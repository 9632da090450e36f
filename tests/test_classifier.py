"""Plane fits, kernel fits, the decision rule, and serialization."""
from __future__ import annotations

import gc
import itertools
import math
import threading
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from frlstsvm.classifier import (
    _block_bounds,
    _block_rows,
    FitBlocks,
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
from frlstsvm.linalg import gram
from frlstsvm.metrics import confusion, report
from frlstsvm.errors import (
    ConfigurationError,
    DataError,
    DegenerateModelError,
)
from frlstsvm import classifier, fuzzy_rough, linalg
from frlstsvm.fuzzy_rough import (
    _KEPT_BLOCK_ENTRIES,
    WEIGHT_FLOOR,
    FuzzyParams,
    class_weights,
    mean_similarity,
    positive_region_scores,
    subsample_majority,
)

from helpers import (
    count_threads,
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


# finite positive sigmas whose 2 sigma^2 rounds to 0 (the self gram's
# diagonal would be 0/0) or overflows (every kernel value would be 1)
BAD_SIGMAS = [1e-200, 1e-300, 1e154, 1e300]


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

    @pytest.mark.parametrize("sigma", BAD_SIGMAS)
    def test_rejects_a_sigma_whose_two_sigma_squared_is_not_finite_positive(
            self, sigma):
        with pytest.raises(ConfigurationError, match="sigma"):
            config(kernel="gaussian", sigma=sigma)

    def test_accepts_a_subnormal_two_sigma_squared(self):
        assert config(kernel="gaussian", sigma=1e-160).sigma == 1e-160


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
        for sigma in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigurationError, match="sigma"):
                gaussian_gram([[0.0]], [[1.0]], sigma)

    @pytest.mark.parametrize("sigma", BAD_SIGMAS)
    def test_rejects_a_sigma_whose_two_sigma_squared_is_not_finite_positive(
            self, sigma):
        with pytest.raises(ConfigurationError, match="sigma"):
            gaussian_gram([[0.0]], [[1.0]], sigma)

    def test_a_subnormal_two_sigma_squared_gives_the_identity(self):
        # 2 sigma^2 = 2e-320: each row is at distance 0 from itself
        # alone, so exp(-0) = 1 there, and elsewhere the quotient
        # overflows to -inf and exp(-inf) = 0
        x = [[0.0, 0.1], [0.5, 0.1], [1.0, 1.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = gaussian_gram(x, x, 1e-160)
        assert np.array_equal(k, np.eye(3))

    def test_a_subnormal_two_sigma_squared_predicts_without_warnings(self):
        # every kernel value of a row off the reference rows is
        # exp(-inf) = 0, so its distance to plane j is |b_j| / norm_j
        x, y = make_blobs(7, m1=6, m2=12)
        xs = minmax_apply(minmax_fit(x), x)
        cfg = TrainConfig(c1=1.0, c2=1.0, tau=0.0, fuzzy=fuzzy(),
                          kernel="gaussian", sigma=1e-160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_kernel(xs[y == 1], xs[y == -1], None, None, cfg)
            _, d1, d2 = predict(model, xs + 0.01, return_distances=True)
        for d, plane in ((d1, model.plane1), (d2, model.plane2)):
            assert np.all(d == abs(plane.b) / plane.norm)

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

    @pytest.mark.parametrize("name, value", [
        ("c1", math.nan), ("c1", math.inf), ("c1", 0.0), ("c2", -1.0),
        ("c2", math.inf), ("delta", math.nan), ("delta", -1.0),
    ])
    def test_baseline_rejects_bad_penalties_before_solving(
            self, monkeypatch, name, value):
        def solve(a, b):
            raise AssertionError("spd_solve called")

        monkeypatch.setattr(classifier, "spd_solve", solve)
        args = {"c1": 1.0, "c2": 1.0, "delta": 1e-6, name: value}
        with pytest.raises(ConfigurationError, match=f"^{name} "):
            fit_lstsvm_baseline(MIRROR_X1, MIRROR_X2, **args)


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


def kernel_plane(w, b, k) -> Hyperplane:
    """The plane w'f + b over kernel features, with its norm sqrt(w'Kw)
    over the gram k computed here, not by the library."""
    w = np.asarray(w, dtype=np.float64)
    return Hyperplane(w=w, b=b, norm=math.sqrt(max(float(w @ k @ w), 0.0)))


def scaled_split(x, y):
    scaling = minmax_fit(x)
    xs = minmax_apply(scaling, x)
    return xs[y == 1], xs[y == -1], scaling


class TestKernelFit:
    def test_one_fit_holds_one_planes_terms_at_a_time(self):
        # [K | 1] and one plane's two c-free grams come to 3 of the
        # (m_ref + 1)^2 units, and so do [K | 1], the system built in
        # B'D_B B and the solve's factor; A'A kept alive through the
        # solve, or a K held apart from H and G, takes the peak to 4
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
        assert peak < 3.5 * 801 ** 2 * 8

    def test_a_ridged_solve_adds_no_unit_to_the_peak(self):
        # dpotrf factors the ridged copy in place and the factor is
        # freed before the residual rebuilds A + rI, so an escalating
        # fit peaks at the 3 units of one that factors bare; a ridged
        # copy beside dpotrf's own takes it to 4
        rng = np.random.default_rng(99)
        x1, x2 = rng.random((80, 8)), rng.random((720, 8))
        d1, d2 = rng.uniform(0.5, 1, 80), rng.uniform(0.5, 1, 720)
        cfg = config(kernel="gaussian", sigma=4.0, delta=0.0)
        tracemalloc.start()
        try:
            model = fit_kernel(x1, x2, d1, d2, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        reports = model.summary.solver_reports.values()
        assert [r.factorization_attempts for r in reports] == [2, 2]
        assert peak < 3.5 * 801 ** 2 * 8

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
                    plane1=kernel_plane(o1[:-1], o1[-1], k),
                    plane2=kernel_plane(o2[:-1], o2[-1], k),
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

    def test_norms_have_the_bits_of_a_separate_gram(self):
        # the fit reads K as the column view of [K | 1], whose row
        # stride is m_ref + 1; w'Kw over it must keep the bits of the
        # contiguous gram at orders the BLAS's gemv blocks
        rng = np.random.default_rng(74)
        for m1, m2 in ((5, 12), (20, 77), (64, 193), (80, 720)):
            x1, x2 = rng.random((m1, 8)), rng.random((m2, 8))
            d1, d2 = rng.uniform(0.5, 1, m1), rng.uniform(0.5, 1, m2)
            model = fit_kernel(x1, x2, d1, d2,
                               config(kernel="gaussian", sigma=0.7))
            k = gaussian_gram(model.x_ref, model.x_ref, 0.7)
            for plane in (model.plane1, model.plane2):
                assert plane.norm == math.sqrt(
                    max(float(plane.w @ k @ plane.w), 0.0))

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
            plane1=kernel_plane(p1.w * 9.0, p1.b * 9.0, k),
            plane2=kernel_plane(p2.w * 0.125, p2.b * 0.125, k),
            scaling=model.scaling, config=cfg, x_ref=model.x_ref,
        )
        assert np.array_equal(predict(boosted, xs), want)

    def test_degenerate_kernel_surfaces(self):
        model = TwinPlaneModel(
            plane1=kernel_plane(np.zeros(2), 0.0, np.eye(2)),
            plane2=kernel_plane(np.zeros(2), 0.0, np.eye(2)),
            scaling=None, config=config(kernel="gaussian", sigma=1.0),
            x_ref=np.zeros((2, 1)),
        )
        with pytest.raises(DegenerateModelError):
            predict(model, np.array([0.5]))


def whole_batch_predict(model, x):
    """predict's arithmetic on the whole batch at once: every kernel
    value, then |f'w + b| / norm per plane (inf for a degenerate one)."""
    xs = minmax_apply(model.scaling, np.atleast_2d(x))
    f = gaussian_gram(xs, model.x_ref, model.config.sigma)
    d1, d2 = (np.full(xs.shape[0], np.inf) if p.norm == 0.0
              else np.abs(f @ p.w + p.b) / p.norm
              for p in (model.plane1, model.plane2))
    return np.where(d1 <= d2, 1, -1), d1, d2


class TestGaussianPredictBlocks:
    def fitted(self):
        rng = np.random.default_rng(70)
        x = rng.random((300, 8))
        scaling = minmax_fit(x)
        xs = minmax_apply(scaling, x)
        model = fit_kernel(xs[:60], xs[60:], rng.uniform(0.5, 1, 60),
                           rng.uniform(0.5, 1, 240),
                           config(kernel="gaussian", sigma=0.8),
                           scaling=scaling)
        assert model.x_ref.shape[0] == 300
        return model

    def test_block_rows_are_a_multiple_of_64(self):
        for m_ref in (1, 300, 1455, 2048, 2049, 10 ** 6):
            rows = _block_rows(m_ref)
            assert rows >= 64 and rows % 64 == 0
            assert rows == 64 or rows * m_ref <= 2 ** 17

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_bits_equal_the_whole_batch_at_block_boundaries(
            self, monkeypatch, cpus):
        # min(cpus, blocks) workers, each pinned to its own CPU of the
        # mask, or the calling thread alone when that is 1; the bits are
        # the whole batch's for any thread count
        mask = list(range(10, 10 + cpus))
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: mask)
        started, pinned = count_threads(monkeypatch)
        model = self.fitted()
        k = gaussian_gram(model.x_ref, model.x_ref, model.config.sigma)
        one_zero_plane = TwinPlaneModel(
            plane1=kernel_plane(np.zeros(300), 0.5, k),
            plane2=model.plane2, scaling=model.scaling,
            config=model.config, x_ref=model.x_ref,
        )
        rows = _block_rows(300)
        assert rows == 384
        rng = np.random.default_rng(71)
        for n, blocks in ((0, 1), (1, 1), (3, 1), (rows - 1, 1), (rows, 1),
                          (rows + 1, 1), (2 * rows, 2), (2 * rows + 1, 2),
                          (2 * rows + 3, 3), (3 * rows, 3), (10000, 27)):
            # a lone last row joins the block before it
            assert len(_block_bounds(n, 300)) == blocks
            x = rng.uniform(-0.1, 1.1, size=(n, 8))
            for m in (model, one_zero_plane):
                before = threading.active_count()
                del started[:], pinned[:]
                got = predict(m, x, return_distances=True)
                assert threading.active_count() == before
                workers = min(cpus, blocks)
                assert len(started) == (0 if workers == 1 else workers)
                assert sorted(pinned, key=min) == (
                    [] if workers == 1 else [{c} for c in mask[:workers]])
                want = whole_batch_predict(m, x)
                for a, b in zip(got, want):
                    assert np.array_equal(a, b)
            # the zero plane is infinitely far from every row
            assert np.all(np.isinf(got[1])) and np.all(got[0] == -1)
        point = rng.uniform(0, 1, size=8)
        label, d1, d2 = predict(model, point, return_distances=True)
        want = whole_batch_predict(model, point)
        assert isinstance(label, int) and isinstance(d1, float)
        assert (label, d1, d2) == (want[0][0], want[1][0], want[2][0])

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_a_failed_block_raises_after_every_thread_joins(
            self, monkeypatch, cpus):
        # CPUs this box may not have: a worker that cannot be pinned runs
        # where the OS puts it
        monkeypatch.setattr(linalg, "_usable_cpus",
                            lambda: list(range(cpus)))
        model = self.fitted()
        failure = MemoryError("second block")
        calls = itertools.count(1)
        lock = threading.Lock()
        real_kernel = classifier._kernel

        def kernel(xa, xb, sigma):
            with lock:
                call = next(calls)
            if call == 2:
                raise failure
            return real_kernel(xa, xb, sigma)

        monkeypatch.setattr(classifier, "_kernel", kernel)
        x = np.random.default_rng(74).random((5 * 384, 8))
        before = threading.active_count()
        with pytest.raises(MemoryError) as info:
            predict(model, x)
        assert info.value is failure
        assert threading.active_count() == before
        if cpus == 1:
            # no block is taken after the one that failed
            assert next(calls) == 3

    @pytest.mark.parametrize("sigma", BAD_SIGMAS)
    def test_rejects_a_model_sigma_whose_two_sigma_squared_is_not_finite(
            self, sigma):
        # no TrainConfig holds such a sigma; one set behind its back is
        # still refused before any kernel value is computed
        rng = np.random.default_rng(73)
        x_ref = rng.random((5, 2))
        cfg = config(kernel="gaussian", sigma=1.0)
        model = TwinPlaneModel(
            plane1=Hyperplane(w=np.ones(5), b=0.1),
            plane2=Hyperplane(w=-np.ones(5), b=0.2),
            scaling=None, config=cfg, x_ref=x_ref,
        )
        object.__setattr__(cfg, "sigma", sigma)
        with pytest.raises(ConfigurationError, match="sigma"):
            predict(model, rng.random((3, 2)))

    def test_predict_holds_one_block(self):
        # the whole 10k x 1000 kernel matrix would take 80 MB
        rng = np.random.default_rng(72)
        m_ref, n = 1000, 10000
        x_ref = rng.random((m_ref, 8))
        model = TwinPlaneModel(
            plane1=Hyperplane(w=rng.standard_normal(m_ref), b=0.1),
            plane2=Hyperplane(w=rng.standard_normal(m_ref), b=-0.2),
            scaling=minmax_fit(x_ref),
            config=config(kernel="gaussian", sigma=1.0), x_ref=x_ref,
        )
        batch = rng.random((n, 8))
        tracemalloc.start()
        try:
            predict(model, batch, return_distances=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block per thread that predict runs
        threads = min(len(linalg._usable_cpus()),
                      len(_block_bounds(n, m_ref)))
        block = _block_rows(m_ref) * m_ref * 8
        assert peak < threads * block + 3 * n * 8 + 4 * 2 ** 20


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

    @pytest.mark.parametrize("field,value", [
        ("c1", 4.0), ("c2", 4.0), ("delta", 1e-3), ("kernel", "gaussian"),
    ])
    def test_fit_linear_refuses_a_config_that_disagrees(self, field,
                                                        value):
        # the model would carry the config, so its file and eval's config
        # string would name values the fit did not use
        extra = dict(sigma=1.0) if field == "kernel" else {}
        cfg = config(**{field: value}, **extra)
        with pytest.raises(ConfigurationError, match=(
                rf"^config \(c1={cfg.c1}, c2={cfg.c2}, delta={cfg.delta}, "
                rf"kernel {cfg.kernel}\) disagrees with the linear fit at "
                r"c1=1.0, c2=1.0, delta=1e-06$")):
            fit_linear(MIRROR_X1, MIRROR_X2, None, None, 1.0, 1.0,
                       config=cfg)

    def test_fit_blocks_fits_at_its_config(self):
        x, y = make_blobs(73, m1=10, m2=30)
        cfg = config(c1=4.0, c2=0.5, tau=0.2, delta=1e-4)
        blocks = PreparedFold(x, y).blocks(cfg)
        model = fit_blocks(blocks, cfg)
        assert model.config is cfg
        plain = fit_linear(blocks.x1, blocks.x2hat, blocks.d1, blocks.d2,
                           4.0, 0.5, 1e-4)
        for got, want in ((model.plane1, plain.plane1),
                          (model.plane2, plain.plane2)):
            assert got.w.tobytes() == want.w.tobytes() and got.b == want.b

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

        # the first pass fits each config, the second scores each
        # (blocks, sigma) group with score_fits, which shares the
        # group's c-free terms, against labels on the probe rows
        prep = PreparedFold(x, y)
        rng = np.random.default_rng(4)
        raised = 0
        groups = {}
        for shared in (False, True):
            for i in rng.permutation(len(configs)):
                cfg = configs[i]
                if want[cfg] is None:
                    with pytest.raises(ConfigurationError, match="tau"):
                        prep.blocks(cfg)
                    raised += 1
                    continue
                blocks = prep.blocks(cfg)
                if shared:
                    groups.setdefault((blocks, cfg.sigma), []).append(cfg)
                    continue
                model = fit_blocks(blocks, cfg, prep.scaling)
                arrays, outputs = want[cfg]
                for got, exp in zip(model_arrays(model) + list(
                        predict(model, probe, return_distances=True)),
                        arrays + list(outputs)):
                    assert got.dtype == exp.dtype
                    assert got.tobytes() == exp.tobytes()
        assert raised == 2 * len(empty)
        # the kept sets at tau 0 and 0.72 differ at both gammas, and
        # without weights tau 0 is one kept set for both gammas
        assert len({blocks for blocks, _ in groups}) == 2 * 2 * 2 - 1
        y_probe = np.where(probe[:, 0] > probe[:, 1], 1, -1)
        x_probe = minmax_apply(prep.scaling, probe)
        # each c, and twice over for the kept set gammas share
        assert sorted(map(len, groups.values())) == [2] * 12 + [4] * 2
        for (blocks, _), group in groups.items():
            got = classifier.score_fits(blocks, group, x_probe, y_probe,
                                        "standard")
            assert got == [report(confusion(y_probe, want[cfg][1][0]))
                           .gmean for cfg in group]

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

    def test_every_gamma_reads_the_held_distance_with_its_similarity_bits(
            self):
        # scores and kept-majority weights of each gamma, visited in turn
        # and then again, come from the one held majority distance; they
        # must have the bits of the standalone similarity's row means
        x, y = make_blobs(98, m1=8, m2=300, spread=1.2)
        prep = PreparedFold(x, y)
        x2 = prep.x2
        # gammas on both sides of 1 / (largest distance), where the clip
        # at 0 starts to act
        dmax = float(fuzzy_rough.chebyshev_distances(x2).max())
        gammas = (0.5 / dmax, 1.0 / dmax, 2.0, 0.5 / dmax, 7.0, 2.0)
        kept_sets = set()
        for gamma in gammas:
            fz = fuzzy(gamma=gamma)
            sim = fuzzy_rough.indiscernibility_matrix(x2, fz)
            assert (prep.scores(fz).scores.tobytes()
                    == mean_similarity(sim).tobytes())
            for q in (0.0, 0.3, 0.8):
                tau = float(np.quantile(mean_similarity(sim), q))
                blocks = prep.blocks(TrainConfig(c1=1.0, c2=1.0, tau=tau,
                                                 fuzzy=fz))
                kept = np.flatnonzero(mean_similarity(sim) >= tau)
                kept_sets.add(kept.tobytes())
                assert np.array_equal(blocks.kept_rows, prep.maj_rows[kept])
                want = mean_similarity(sim, kept, WEIGHT_FLOOR)
                assert blocks.d2.tobytes() == want.tobytes()
        # the full set, and strict subsets that differ between gammas
        assert len(kept_sets) >= 5
        assert np.arange(300).tobytes() in kept_sets
        # the clip acts at gamma 7 and not at 0.5 / dmax
        assert (1.0 - 7.0 * fuzzy_rough.chebyshev_distances(x2) < 0).any()
        # the product t-norm holds one similarity per FuzzyParams in the
        # same slot: a new tau at a gamma visited before builds it again,
        # with the same bits
        for gamma, q in ((2.0, 0.5), (1.0, 0.5), (2.0, 0.25)):
            fz = fuzzy(gamma=gamma, tnorm="product")
            sim = fuzzy_rough.indiscernibility_matrix(x2, fz)
            tau = float(np.quantile(mean_similarity(sim), q))
            kept = np.flatnonzero(mean_similarity(sim) >= tau)
            blocks = prep.blocks(TrainConfig(c1=1.0, c2=1.0, tau=tau,
                                             fuzzy=fz))
            assert np.array_equal(blocks.kept_rows, prep.maj_rows[kept])
            assert (blocks.d2.tobytes()
                    == mean_similarity(sim, kept, WEIGHT_FLOOR).tobytes())

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

    @pytest.mark.parametrize("score_mode", fuzzy_rough.SCORE_MODES)
    @pytest.mark.parametrize("tnorm", fuzzy_rough.T_NORMS)
    def test_a_streaming_fold_has_the_bits_of_a_holding_fold(
            self, tnorm, score_mode):
        # a 300-row majority spans three row blocks of a streamed pass;
        # gamma times the largest majority distance is below 1 at the
        # first gamma, so the clip at 0 is skipped, and above it at 7
        x, y = make_blobs(98, m1=20, m2=300, spread=1.2)
        held, streamed = PreparedFold(x, y), PreparedFold(x, y, hold=False)
        dmax = float(fuzzy_rough.chebyshev_distances(held.x2).max())
        sizes = set()
        for gamma in (0.5 / dmax, 7.0):
            fz = fuzzy(gamma=gamma, tnorm=tnorm, score_mode=score_mode)
            scores = held.scores(fz).scores
            assert streamed.scores(fz).scores.tobytes() == scores.tobytes()
            # every row, a strict subset, and the best-scoring rows
            for tau in (0.0, float(np.quantile(scores, 0.25)),
                        float(scores.max())):
                cfg = TrainConfig(c1=1.0, c2=1.0, tau=tau, fuzzy=fz)
                want, got = held.blocks(cfg), streamed.blocks(cfg)
                assert np.array_equal(got.kept_rows, want.kept_rows)
                assert got.d1.tobytes() == want.d1.tobytes()
                assert got.d2.tobytes() == want.d2.tobytes()
                sizes.add(want.x2hat.shape[0])
        assert 300 in sizes and 1 in sizes
        assert any(1 < size < 300 for size in sizes)
        assert streamed._pairs is None

    def test_a_streaming_fold_without_attributes(self):
        # rows without attributes are all alike: density scores 1,
        # lower_approx scores 0
        x, y = np.empty((13, 0)), np.array([1] * 4 + [-1] * 9)
        held, streamed = PreparedFold(x, y), PreparedFold(x, y, hold=False)
        for tnorm, score_mode in itertools.product(
                fuzzy_rough.T_NORMS, fuzzy_rough.SCORE_MODES):
            fz = fuzzy(tnorm=tnorm, score_mode=score_mode)
            scores = streamed.scores(fz).scores
            assert scores.tobytes() == held.scores(fz).scores.tobytes()
            assert np.all(scores == (score_mode == "density"))
            cfg = TrainConfig(c1=1.0, c2=1.0, tau=0.0, fuzzy=fz)
            assert np.all(streamed.blocks(cfg).d2 == 1.0)
            assert (streamed.blocks(cfg).d2.tobytes()
                    == held.blocks(cfg).d2.tobytes())

    def test_a_lone_fit_holds_no_majority_by_majority_array(
            self, monkeypatch):
        # a 2000-row majority, whose Chebyshev distance alone is
        # m2^2 * 8 bytes (32 MB); the lone fit's scores and kept-majority
        # weights are row sums built a row block at a time, on four
        # worker threads (CPUs this box may not have run where the OS
        # puts them), each with one map buffer
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: [0, 1, 2, 3])
        buffers = []
        real_run = linalg._run_blocks

        def run_blocks(bounds, work, scratch):
            def counted():
                buffers[-1].append(scratch())
                return buffers[-1][-1]
            buffers.append([])
            real_run(bounds, work, counted)

        monkeypatch.setattr(linalg, "_run_blocks", run_blocks)
        rng = np.random.default_rng(97)
        m1, m2 = 40, 2000
        x = np.vstack([rng.normal(0.55, 0.05, size=(m1, 8)),
                       rng.normal(0.2, 0.04, size=(m2, 8))])
        x[m1 + rng.permutation(m2)[:m2 // 3], rng.integers(0, 8)] += 0.5
        y = np.array([1] * m1 + [-1] * m2)
        fz = fuzzy(gamma=1.0)
        xs = minmax_apply(minmax_fit(x), x)
        tau = float(np.median(
            positive_region_scores(xs, y, fz, target_class=-1).scores))
        ds = LabeledDataset(x, y)
        cfg = TrainConfig(c1=1.0, c2=1.0, tau=tau, fuzzy=fz)
        tracemalloc.start()
        try:
            model = fit_frlstsvm(ds, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < model.summary.m2_kept < m2
        assert peak < m2 * m2 * 8 / 4
        # the full rows' pass is threaded (the kept rows' need not be):
        # each worker has one buffer of at most one block, and besides
        # them the fit holds under 1 MiB
        assert buffers and all(len(made) == 4 for made in buffers)
        block = _KEPT_BLOCK_ENTRIES * 8
        assert all(b.nbytes <= block for made in buffers for b in made)
        assert peak < 4 * block + 2 ** 20

    def test_one_majority_distance_per_fold(self, monkeypatch):
        # under the minimum t-norm in density mode every gamma's
        # majority similarity is read off one Chebyshev distance; the
        # minority weights keep one similarity per gamma
        distances, similarities = [], []
        real_d = fuzzy_rough.chebyshev_distances
        real_s = fuzzy_rough.indiscernibility_matrix

        def counted_d(x):
            distances.append(x.shape[0])
            return real_d(x)

        def counted_s(x, params):
            similarities.append((params.gamma, x.shape[0]))
            return real_s(x, params)

        monkeypatch.setattr(fuzzy_rough, "chebyshev_distances", counted_d)
        monkeypatch.setattr(fuzzy_rough, "indiscernibility_matrix",
                            counted_s)
        x, y = make_blobs(92, m1=8, m2=30, spread=1.2)
        prep = PreparedFold(x, y)
        for gamma, tau, c in itertools.product((1.0, 2.0, 1.0),
                                               (0.0, 0.4, 0.6), (0.5, 2.0)):
            cfg = TrainConfig(c1=c, c2=c, tau=tau, fuzzy=fuzzy(gamma=gamma))
            fit_blocks(prep.blocks(cfg), cfg)
        assert distances == [30]
        assert sorted(similarities) == [(1.0, 8), (2.0, 8)]

    def test_lower_approx_weights_read_one_majority_distance(
            self, monkeypatch):
        # lower_approx mode under the minimum t-norm reads every gamma's
        # kept-majority weights off the one Chebyshev distance too
        distances = []
        real = fuzzy_rough.chebyshev_distances

        def counted(x):
            distances.append(x.shape[0])
            return real(x)

        monkeypatch.setattr(fuzzy_rough, "chebyshev_distances", counted)
        x, y = make_blobs(93, m1=8, m2=30, spread=1.2)
        prep, sizes = PreparedFold(x, y), []
        for gamma in (1.0, 2.0, 1.0):
            fz = fuzzy(gamma=gamma, score_mode="lower_approx")
            sim = fuzzy_rough.indiscernibility_matrix(prep.x2, fz)
            tau = float(np.median(prep.scores(fz).scores))
            for t in (0.0, tau):
                blocks = prep.blocks(TrainConfig(c1=1.0, c2=1.0, tau=t,
                                                 fuzzy=fz))
                kept = np.searchsorted(prep.maj_rows, blocks.kept_rows)
                want = mean_similarity(sim, kept, WEIGHT_FLOOR)
                assert blocks.d2.tobytes() == want.tobytes()
                sizes.append(kept.size)
        assert distances == [30] and 0 < min(sizes) < max(sizes) == 30

    def test_lower_approx_blocks_build_no_majority_by_all_block(
            self, monkeypatch):
        # lower_approx scores need only the majority-by-minority
        # similarity; the majority's own Chebyshev distance, the
        # minimum t-norm's similarity, is for its weights
        shapes = []
        real = fuzzy_rough._cross_similarity
        real_distances = fuzzy_rough.chebyshev_distances

        def counted(xa, xb, params):
            shapes.append((xa.shape[0], xb.shape[0]))
            return real(xa, xb, params)

        def distances(x):
            shapes.append((x.shape[0], x.shape[0]))
            return real_distances(x)

        monkeypatch.setattr(fuzzy_rough, "_cross_similarity", counted)
        monkeypatch.setattr(fuzzy_rough, "chebyshev_distances", distances)
        m1, m2 = 8, 30
        x, y = make_blobs(94, m1=m1, m2=m2, spread=1.2)
        prep = PreparedFold(x, y)
        fz = fuzzy(score_mode="lower_approx")
        tau = float(np.median(prep.scores(fz).scores))
        blocks = prep.blocks(TrainConfig(c1=1.0, c2=1.0, tau=tau, fuzzy=fz))
        assert 0 < blocks.x2hat.shape[0] < m2
        assert sorted(shapes) == sorted([(m2, m1), (m2, m2), (m1, m1)])


class TestScoreFits:
    @pytest.mark.parametrize("convention", ["standard", "paper_literal"])
    @pytest.mark.parametrize("kernel, sigma", [("linear", None),
                                               ("gaussian", 0.3)])
    def test_bits_of_predict_and_report_on_fitted_models(
            self, kernel, sigma, convention):
        # 950 reference rows make a gaussian predict block 128 rows, so
        # the 150 validation rows span two kernel row blocks
        x, y = (make_blobs(95, m1=100, m2=1000, spread=2.0)
                if kernel == "linear"
                else make_circles(95, m1=100, m2=1000, noise=0.4))
        rng = np.random.default_rng(5)
        va = rng.permutation(y.size)[:150]
        tr = np.setdiff1d(np.arange(y.size), va)
        prep = PreparedFold(x[tr], y[tr])
        x_va = minmax_apply(prep.scaling, x[va])
        configs = [TrainConfig(c1=c1, c2=c2, tau=0.0, fuzzy=fuzzy(),
                               kernel=kernel, sigma=sigma)
                   for c1, c2 in ((0.25, 0.25), (4.0, 0.5))]
        blocks = prep.blocks(configs[0])
        if kernel == "gaussian":
            assert _block_rows(blocks.x1.shape[0]
                               + blocks.x2hat.shape[0]) == 128
        got = classifier.score_fits(blocks, configs, x_va, y[va],
                                    convention)
        for g, cfg in zip(got, configs):
            pred = predict(fit_blocks(blocks, cfg), x_va)
            want = report(confusion(y[va], pred), convention).gmean
            assert g == want
        assert got[0] > 0.9

    def test_a_gaussian_group_holds_one_planes_terms_at_a_time(self):
        # [K | 1], one plane's two c-free grams, the spare system buffer
        # and the solve's factor come to 5 of the (m_ref + 1)^2 units; a
        # fresh system per c, or a separate K, to 6, and both planes'
        # terms held through the solves, to 7. The last c, a one-c
        # group's only one, is built in B'D_B B and A'A freed before its
        # solve: [K | 1], the system and the factor come to 3, and a
        # spare buffer or A'A kept through the solve to 4
        rng = np.random.default_rng(98)
        x1, x2 = rng.random((80, 8)), rng.random((720, 8))
        blocks = FitBlocks(x1, x2, rng.uniform(0.5, 1, 80),
                           rng.uniform(0.5, 1, 720), np.arange(720), 720)
        x_va, y_va = rng.random((20, 8)), np.repeat([1, -1], 10)
        for cs, units in (((0.25, 1.0, 4.0), 5.6), ((1.0,), 3.5)):
            configs = [config(c1=c, c2=c, kernel="gaussian", sigma=1.0)
                       for c in cs]
            tracemalloc.start()
            try:
                classifier.score_fits(blocks, configs, x_va, y_va,
                                      "standard")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < units * 801 ** 2 * 8

    @staticmethod
    def gaussian_group():
        """A gaussian group of 300 reference rows, so 384 rows a kernel
        block, scored on 1000 validation rows: three blocks."""
        x, y = make_circles(75, m1=260, m2=1040, noise=0.4)
        rows = np.random.default_rng(76).permutation(y.size)
        tr, va = rows[:300], rows[300:]
        prep = PreparedFold(x[tr], y[tr])
        configs = [TrainConfig(c1=c1, c2=c2, tau=0.0, fuzzy=fuzzy(),
                               kernel="gaussian", sigma=0.5)
                   for c1, c2 in ((0.25, 0.25), (4.0, 0.5))]
        blocks = prep.blocks(configs[0])
        assert len(_block_bounds(va.size, 300)) == 3
        return blocks, configs, minmax_apply(prep.scaling, x[va]), y[va]

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_gaussian_blocks_keep_the_bits_of_one_cpu(self, monkeypatch,
                                                      cpus):
        # the validation rows' kernel blocks run on min(cpus, blocks)
        # workers, each pinned to its own CPU of the mask, as predict's
        # do, with the G-means of one CPU and of predict
        blocks, configs, x_va, y_va = self.gaussian_group()
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: [0])
        one = classifier.score_fits(blocks, configs, x_va, y_va, "standard")
        assert one == [
            report(confusion(y_va, predict(fit_blocks(blocks, cfg), x_va)))
            .gmean for cfg in configs]
        assert all(0.5 < g < 1 for g in one)
        mask = list(range(10, 10 + cpus))
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: mask)
        started, pinned = count_threads(monkeypatch)
        before = threading.active_count()
        got = classifier.score_fits(blocks, configs, x_va, y_va, "standard")
        assert threading.active_count() == before
        workers = min(cpus, 3)
        assert len(started) == (0 if workers == 1 else workers)
        assert sorted(pinned, key=min) == (
            [] if workers == 1 else [{c} for c in mask[:workers]])
        assert np.array(got).tobytes() == np.array(one).tobytes()

    def test_a_linear_or_one_block_group_starts_no_thread(self,
                                                          monkeypatch):
        blocks, configs, x_va, y_va = self.gaussian_group()
        linear = [TrainConfig(c1=cfg.c1, c2=cfg.c2, tau=0.0, fuzzy=fuzzy())
                  for cfg in configs]
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: [0, 1, 2, 3])
        started, _ = count_threads(monkeypatch)
        # 384 rows are one block of 300 reference rows
        assert len(_block_bounds(384, 300)) == 1
        for group, rows in ((linear, slice(None)), (configs, slice(384))):
            got = classifier.score_fits(blocks, group, x_va[rows],
                                        y_va[rows], "standard")
            assert all(g is not None for g in got)
        assert started == []

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_a_failed_gaussian_block_raises_after_every_thread_joins(
            self, monkeypatch, cpus):
        # CPUs the host may not have: a worker that cannot be pinned runs
        # where the OS puts it
        monkeypatch.setattr(linalg, "_usable_cpus",
                            lambda: list(range(cpus)))
        blocks, configs, x_va, y_va = self.gaussian_group()
        failure = MemoryError("second block")
        calls = itertools.count(1)
        lock = threading.Lock()
        real_kernel = classifier._kernel

        def kernel(xa, xb, sigma):
            # the first call builds the group's gram, the rest map the
            # validation blocks
            with lock:
                call = next(calls)
            if call == 3:
                raise failure
            return real_kernel(xa, xb, sigma)

        monkeypatch.setattr(classifier, "_kernel", kernel)
        before = threading.active_count()
        with pytest.raises(MemoryError) as info:
            classifier.score_fits(blocks, configs, x_va, y_va, "standard")
        assert info.value is failure
        assert threading.active_count() == before
        if cpus == 1:
            # no block is taken after the one that failed
            assert next(calls) == 4

    def test_plane_system_has_the_bits_of_the_diag_indices_form(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            aa, bdb = (gram(rng.normal(size=(n + 3, n))) for _ in range(2))
            bd = rng.normal(size=n)
            c, delta = float(rng.uniform(0.01, 100)), 10.0 ** -rng.integers(0, 9)
            buf = np.empty_like(bdb)
            lhs, rhs = classifier._plane_system(aa, bdb, bd, c, delta, buf)
            want = c * bdb + aa
            want[np.diag_indices_from(want)] += delta
            assert lhs is buf
            assert lhs.tobytes() == want.tobytes()
            assert rhs.tobytes() == (c * bd).tobytes()
            # the same bits in B'DB's own buffer
            assert classifier._plane_system(aa, bdb, bd, c, delta,
                                            bdb)[0] is bdb
            assert bdb.tobytes() == want.tobytes()


# FRLSTSVM/1 files, written by save_model before the /2 format (commit
# 1578b1e) from the fits that v1_fit repeats
V1_MODELS = {
    kind: Path(__file__).resolve().parent / "data" / f"{kind}_v1.model"
    for kind in ("linear", "gaussian")
}


def v1_fit(kind: str):
    """The fit saved as V1_MODELS[kind], and its training rows."""
    if kind == "linear":
        x, y = make_blobs(83, m1=8, m2=20)
        cfg = config(tau=0.0)
    else:
        x, y = make_circles(81, m1=10, m2=20)
        cfg = config(tau=0.2, kernel="gaussian", sigma=0.3)
    return fit_frlstsvm(LabeledDataset(x, y), cfg), x


def assert_same_bits(a: TwinPlaneModel, b: TwinPlaneModel, x) -> None:
    for pa, pb in ((a.plane1, b.plane1), (a.plane2, b.plane2)):
        assert pa.w.tobytes() == pb.w.tobytes()
        assert pa.b == pb.b and pa.norm == pb.norm
    for got, want in zip(predict(a, x, return_distances=True),
                         predict(b, x, return_distances=True)):
        assert got.tobytes() == want.tobytes()


class TestFormatVersions:
    @pytest.mark.parametrize("kind", ["linear", "gaussian"])
    def test_v1_file_loads_the_bits_of_its_fit(self, kind):
        model, x = v1_fit(kind)
        back = load_model(V1_MODELS[kind])
        assert back.config == model.config
        assert_same_bits(back, model, x)

    @pytest.mark.parametrize("kind", ["linear", "gaussian"])
    def test_v1_file_is_saved_back_as_v2(self, tmp_path, kind):
        model, x = v1_fit(kind)
        path = tmp_path / "resaved.model"
        save_model(load_model(V1_MODELS[kind]), path)
        assert path.read_text().startswith(f"FRLSTSVM/2 {kind}\n")
        assert_same_bits(load_model(path), model, x)
        fresh = tmp_path / "fresh.model"
        save_model(model, fresh)
        assert path.read_bytes() == fresh.read_bytes()

    def test_v2_sections(self, tmp_path):
        # config loses the constant implicator and subsample lines; a
        # gaussian model's coefficients carry each plane's norm
        model, _ = v1_fit("gaussian")
        path = tmp_path / "m.model"
        save_model(model, path)
        lines = path.read_text().splitlines()
        cfg = lines.index("config 10")
        assert [ln.split()[0] for ln in lines[cfg + 1:cfg + 11]] == [
            "c1", "c2", "delta", "tau", "gamma", "tnorm", "score_mode",
            "kernel", "sigma", "weights"]
        assert lines[-7] == "coefficients 6"
        assert [ln.split()[0] for ln in lines[-6:]] == [
            "w1", "b1", "n1", "w2", "b2", "n2"]
        assert float(lines[-4].split()[1]) == model.plane1.norm
        assert float(lines[-1].split()[1]) == model.plane2.norm

    def test_v2_gaussian_load_builds_no_gram(self, tmp_path, monkeypatch):
        model, x = v1_fit("gaussian")
        path = tmp_path / "m.model"
        save_model(model, path)

        def refused(*args):
            raise AssertionError("gaussian_gram called")

        monkeypatch.setattr(classifier, "gaussian_gram", refused)
        back = load_model(path)
        monkeypatch.undo()
        assert_same_bits(back, model, x)

    def test_stored_zero_norm_is_a_degenerate_plane(self, tmp_path):
        model, x = v1_fit("gaussian")
        path = tmp_path / "m.model"
        save_model(model, path)
        lines = path.read_text().splitlines()
        lines[-4] = "n1 0"
        path.write_text("\n".join(lines) + "\n")
        back = load_model(path)
        assert back.plane1.norm == 0.0
        labels, d1, _ = predict(back, x, return_distances=True)
        assert np.all(d1 == np.inf) and np.all(labels == -1)

    @pytest.mark.parametrize("edit,message", [
        pytest.param(lambda lines: lines.pop(-4),
                     r"expected 'n1' at line \d+, got 'w2", id="missing"),
        pytest.param(lambda lines: lines.pop(), "truncated model file",
                     id="missing-last"),
        pytest.param(lambda lines: lines.__setitem__(-4, "n1 abc"),
                     r"non-numeric value under 'n1' at line \d+$",
                     id="non-numeric"),
        pytest.param(lambda lines: lines.__setitem__(-1, "n2 nan"),
                     r"non-finite value under 'n2' at line \d+$", id="nan"),
        pytest.param(lambda lines: lines.__setitem__(-1, "n2 inf"),
                     r"non-finite value under 'n2' at line \d+$", id="inf"),
        pytest.param(lambda lines: lines.__setitem__(-4, "n1 -0.5"),
                     r"'n1' at line \d+ must be one value >= 0$",
                     id="negative"),
        pytest.param(lambda lines: lines.__setitem__(-1, "n2 1 2"),
                     r"'n2' at line \d+ must be one value >= 0$",
                     id="two-values"),
        pytest.param(lambda lines: lines.__setitem__(-1, "n2"),
                     r"'n2' at line \d+ must be one value >= 0$",
                     id="no-value"),
        pytest.param(lambda lines: lines.__setitem__(-7, "coefficients 4"),
                     "coefficients section must have 6 lines",
                     id="section-count"),
    ])
    def test_rejects_bad_norm_lines(self, tmp_path, edit, message):
        model, _ = v1_fit("gaussian")
        path = tmp_path / "m.model"
        save_model(model, path)
        lines = path.read_text().splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=message):
            load_model(path)

    def test_v1_gaussian_file_has_no_norm_lines(self, tmp_path):
        # a /1 file's coefficients section has 4 lines, a /2 file's 6
        text = V1_MODELS["gaussian"].read_text()
        path = tmp_path / "m.model"
        path.write_text(text.replace("coefficients 4", "coefficients 6"))
        with pytest.raises(DataError,
                           match="coefficients section must have 4 lines"):
            load_model(path)

    @pytest.mark.parametrize("version", ["1", "2"])
    def test_config_length_follows_the_version(self, tmp_path, version):
        text = V1_MODELS["linear"].read_text()
        if version == "2":
            save_model(v1_fit("linear")[0], tmp_path / "v2.model")
            text = (tmp_path / "v2.model").read_text()
        n = "12" if version == "1" else "10"
        other = "10" if version == "1" else "12"
        path = tmp_path / "m.model"
        path.write_text(text.replace(f"config {n}\n", f"config {other}\n"))
        with pytest.raises(DataError,
                           match=f"config section must have {n} lines"):
            load_model(path)


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
        # the norms are stored, at 17 digits, and read back exactly
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
        path = V1_MODELS["linear"]
        assert path.read_text().splitlines()[0] == "FRLSTSVM/1 linear"
        model, _ = self.linear_model()
        path = tmp_path / "m.model"
        save_model(model, str(path))
        assert path.read_text().splitlines()[0] == "FRLSTSVM/2 linear"

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

    @pytest.mark.parametrize("kind", ["linear", "gaussian"])
    @pytest.mark.parametrize("tail", ["second model", "garbage"])
    def test_rejects_a_line_after_the_last_plane(self, tmp_path, kind,
                                                  tail):
        model, _ = (self.linear_model() if kind == "linear"
                    else self.kernel_model())
        path = tmp_path / "m.model"
        save_model(model, str(path))
        text = path.read_text()
        n_lines = len(text.splitlines())
        if tail == "second model":
            path.write_text(text + text)
            line, shown = n_lines + 1, f"'FRLSTSVM/2 {kind}'"
        else:
            path.write_text(text + "\n  oops\n")
            line, shown = n_lines + 2, "'  oops'"
        with pytest.raises(DataError, match=(
                f"unexpected line {line} after the last section: "
                f"{shown}$")):
            load_model(str(path))

    @pytest.mark.parametrize("kind", ["linear", "gaussian"])
    def test_blank_lines_after_the_last_plane_are_read(self, tmp_path,
                                                       kind):
        path = tmp_path / "m.model"
        path.write_text(V1_MODELS[kind].read_text() + "\n  \n\n")
        model, x = v1_fit(kind)
        assert_same_bits(load_model(path), model, x)

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

    def test_reference_rows_accept_what_float_accepts(self, tmp_path):
        # the one-pass parse of the xref block reads a sign, padding and
        # digit separators as float() does
        model, _ = self.kernel_model()
        path = tmp_path / "m.model"
        save_model(model, str(path))
        lines = path.read_text().splitlines()
        row = lines.index(f"xref {model.x_ref.shape[0]}") + 1
        lines[row] = "  +1_0   -0.25e1 "
        path.write_text("\n".join(lines) + "\n")
        back = load_model(str(path))
        assert back.x_ref[0].tolist() == [10.0, -2.5]
        assert np.array_equal(back.x_ref[1:], model.x_ref[1:])

    @pytest.mark.parametrize("text,error", [
        ("0.5 1_0", None),
        ("0.5 # 1", "non-numeric value in reference row at line {line}$"),
        ("0.5 #1", "non-numeric value in reference row at line {line}$"),
        ("", "ragged or empty reference rows"),
        ("0.5", "ragged or empty reference rows"),
        ("0.5 1 2", "ragged or empty reference rows"),
        ("nan 1", "non-finite value in reference row at line {line}$"),
    ])
    @pytest.mark.parametrize("index", [0, 2])
    def test_reference_rows_that_fail_the_one_pass_parse(self, tmp_path,
                                                         text, error,
                                                         index):
        # np.loadtxt skips a blank line and refuses digit separators,
        # where a line-by-line parse refuses the one and accepts the
        # other; either way the result or error is the line-by-line one
        model, _ = self.kernel_model()
        path = tmp_path / "m.model"
        save_model(model, str(path))
        lines = path.read_text().splitlines()
        row = lines.index(f"xref {model.x_ref.shape[0]}") + 1 + index
        lines[row] = text
        path.write_text("\n".join(lines) + "\n")
        if error is not None:
            with pytest.raises(DataError, match=error.format(line=row + 1)):
                load_model(str(path))
            return
        back = load_model(str(path))
        want = model.x_ref.copy()
        want[index] = [0.5, 10.0]
        assert np.array_equal(back.x_ref, want)

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

    @pytest.mark.parametrize("tag,values,message", [
        ("range", "0 1", "scaling ranges must be positive"),
        ("range", "-1 1", "scaling ranges must be positive"),
        ("min", "0", "scaling parameters must be matching 1-D arrays"),
        ("min", "0 0 0", "scaling parameters must be matching 1-D arrays"),
    ])
    def test_bad_scaling_section_names_file_and_lines(self, tmp_path, tag,
                                                      values, message):
        model, _ = self.linear_model()
        path = tmp_path / "m.model"
        save_model(model, str(path))
        lines = path.read_text().splitlines()
        assert [ln.split()[0] for ln in lines[2:4]] == ["min", "range"]
        lines[2 if tag == "min" else 3] = f"{tag} {values}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError) as err:
            load_model(str(path))
        assert str(err.value) == (
            f"{path}: bad scaling section at lines 3-4 ({message})")

    def test_either_implicator_line_loads_the_same_model(self, tmp_path):
        # files written while the implicator was an option may name
        # kleene_dienes; it gives the same scores, so the same model
        path = V1_MODELS["linear"]
        _, x = v1_fit("linear")
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
        model, x = v1_fit("linear")
        assert model.config.tau == 0.0
        text = V1_MODELS["linear"].read_text()
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
        path = tmp_path / "m.model"
        save_model(model, str(path))
        assert resaved.read_text() == path.read_text()
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
        # and every config check names the file; the subsample flag is
        # only in FRLSTSVM/1 files
        path = tmp_path / "m.model"
        key = line.split()[0]
        if key == "subsample":
            text = V1_MODELS["linear"].read_text()
        else:
            save_model(self.linear_model()[0], str(path))
            text = path.read_text()
        lines = [line if ln.split()[0] == key else ln
                 for ln in text.splitlines()]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"bad config section .*{message}"):
            load_model(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_model(str(tmp_path / "absent.model"))
