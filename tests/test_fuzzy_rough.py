"""Similarity, positive-region scoring, subsampling, and weights."""
from __future__ import annotations

import numpy as np
import pytest

from frlstsvm.dataset import ScalingParams, minmax_apply, minmax_fit
from frlstsvm.errors import ConfigurationError, DataError
from frlstsvm.fuzzy_rough import (
    WEIGHT_FLOOR,
    FuzzyParams,
    PositiveRegionScores,
    class_weights,
    indiscernibility_matrix,
    positive_region_scores,
    subsample_majority,
)

from helpers import brute_density_scores, brute_lower_approx_scores, \
    brute_pair_sim, dyadic_matrix


def params(gamma=1.0, **kw):
    return FuzzyParams(gamma=gamma, **kw)


def attr_sim(ax: float, ay: float, gamma: float) -> float:
    """Similarity of two one-attribute rows, read off the library's
    pairwise matrix."""
    x = np.array([[ax], [ay]])
    return float(indiscernibility_matrix(x, params(gamma=gamma))[0, 1])


class TestAttributeSimilarity:
    def test_formula(self):
        assert attr_sim(0.3, 0.5, 1.0) == pytest.approx(0.8)

    def test_identity_is_exactly_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = float(rng.uniform(-5, 5))
            g = float(rng.uniform(0.01, 50))
            assert attr_sim(v, v, g) == 1.0

    def test_truncates_to_zero(self):
        assert attr_sim(0.0, 0.6, 2.0) == 0.0

    def test_range_normalizes_distance(self):
        # l(a) enters through min-max scaling: 2 and 6 on a 0..10
        # column are 0.2 and 0.6 on the unit range
        raw = np.array([[0.0], [2.0], [6.0], [10.0]])
        xs = minmax_apply(minmax_fit(raw), raw)
        a = indiscernibility_matrix(xs, params())[1, 2]
        assert a == pytest.approx(attr_sim(0.2, 0.6, 1.0))

    def test_nonincreasing_in_gamma(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            ax, ay = rng.uniform(0, 1, size=2)
            sims = [
                attr_sim(ax, ay, g)
                for g in (0.1, 0.5, 1.0, 2.0, 5.0, 20.0)
            ]
            assert all(s0 >= s1 for s0, s1 in zip(sims, sims[1:]))

    def test_rejects_bad_range(self):
        with pytest.raises(DataError, match="range"):
            ScalingParams(mins=np.zeros(2), ranges=np.array([1.0, 0.0]))


class TestFuzzyParams:
    def test_defaults(self):
        p = FuzzyParams(gamma=2.0)
        assert p.tnorm == "minimum"
        assert p.implicator == "lukasiewicz"
        assert p.score_mode == "density"

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_rejects_bad_gamma(self, bad):
        with pytest.raises(ConfigurationError, match="gamma"):
            FuzzyParams(gamma=bad)

    def test_rejects_unknown_names(self):
        with pytest.raises(ConfigurationError, match="tnorm"):
            FuzzyParams(gamma=1.0, tnorm="max")
        with pytest.raises(ConfigurationError, match="implicator"):
            FuzzyParams(gamma=1.0, implicator="godel")
        with pytest.raises(ConfigurationError, match="score_mode"):
            FuzzyParams(gamma=1.0, score_mode="upper")


class TestIndiscernibility:
    def test_identical_rows(self):
        x = np.array([[0.3, 0.7], [0.3, 0.7]])
        sim = indiscernibility_matrix(x, params())
        assert sim[0, 1] == 1.0 and sim[1, 0] == 1.0

    def test_disjoint_rows(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        sim = indiscernibility_matrix(x, params())
        assert sim[0, 1] == 0.0

    def test_minimum_tnorm_picks_worst_attribute(self):
        x = np.array([[0.2, 0.4], [0.4, 0.5]])
        sim = indiscernibility_matrix(x, params())
        assert sim[0, 1] == pytest.approx(0.8)

    @pytest.mark.parametrize("tnorm", ["minimum", "product", "lukasiewicz"])
    def test_matches_pairwise_oracle(self, tnorm):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, size=(8, 3))
        sim = indiscernibility_matrix(x, params(gamma=1.7, tnorm=tnorm))
        for i in range(8):
            for j in range(8):
                if i == j:
                    continue
                a, b = (i, j) if i < j else (j, i)
                want = brute_pair_sim(x[a], x[b], 1.7, tnorm)
                assert sim[i, j] == pytest.approx(want, abs=1e-14)

    def test_exact_symmetry_and_bounds(self):
        rng = np.random.default_rng(6)
        for tnorm in ("minimum", "product", "lukasiewicz"):
            x = rng.uniform(0, 1, size=(17, 4))
            sim = indiscernibility_matrix(x, params(gamma=2.3, tnorm=tnorm))
            assert np.array_equal(sim, sim.T)
            assert np.all(np.diag(sim) == 1.0)
            assert np.all(sim >= 0.0)
            assert np.all(sim <= 1.0)

    def test_affine_rescaling_is_bit_invariant(self):
        # exact when the shift is integral and the scale a power of two
        rng = np.random.default_rng(7)
        raw = dyadic_matrix(rng, 12, 3)
        moved = raw * 4.0 + np.array([3.0, -2.0, 10.0])
        base = minmax_apply(minmax_fit(raw), raw)
        other = minmax_apply(minmax_fit(moved), moved)
        p = params(gamma=1.5)
        assert np.array_equal(
            indiscernibility_matrix(base, p),
            indiscernibility_matrix(other, p),
        )

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            indiscernibility_matrix(np.zeros((0, 2)), params())


def lower_approx(x, labels, implicator="lukasiewicz"):
    p = params(implicator=implicator, score_mode="lower_approx")
    return positive_region_scores(np.array(x), np.array(labels), p).scores


class TestLowerApproxMembership:
    def test_full_concept_gives_one(self):
        got = lower_approx([[0.2], [0.7]], [-1, -1])
        assert np.array_equal(got, [1.0, 1.0])

    def test_lukasiewicz_residual(self):
        # similarity 0.9 to a row outside the concept
        got = lower_approx([[0.0], [0.1]], [-1, 1])
        assert got[0] == pytest.approx(0.1)

    def test_kleene_dienes_takes_minimum(self):
        # similarities 0.6 and 0.3 to rows outside the concept
        got = lower_approx([[0.0], [0.4], [0.7]], [-1, 1, 1],
                           "kleene_dienes")
        assert got[0] == pytest.approx(0.4)

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ConfigurationError):
            lower_approx([[0.2], [0.7]], [1, 1])
        with pytest.raises(ValueError):
            lower_approx([[0.2], [0.7]], [-1, 1, -1])


class TestPositiveRegionScores:
    def test_identical_pair_density(self):
        x = np.array([[0.4], [0.4], [0.9]])
        labels = np.array([-1, -1, 1])
        got = positive_region_scores(x[:2].repeat(1, axis=0), labels[:2],
                                     params(), target_class=-1)
        assert np.array_equal(got.scores, [1.0, 1.0])

    def test_three_point_density_example(self):
        x = np.array([[0.0], [0.1], [0.9], [0.5]])
        labels = np.array([-1, -1, -1, 1])
        got = positive_region_scores(x, labels, params())
        assert got.scores == pytest.approx([0.50, 0.55, 0.15])
        assert int(np.argmin(got.scores)) == 2
        assert np.array_equal(got.row_indices, [0, 1, 2])

    def test_density_matches_brute_force(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            p = int(rng.integers(1, 12))
            x = rng.uniform(0, 1, size=(p + 2, int(rng.integers(1, 4))))
            labels = np.array([-1] * p + [1, 1])
            g = float(rng.uniform(0.2, 3.0))
            got = positive_region_scores(x, labels, params(gamma=g))
            want = brute_density_scores(x[:p], g)
            assert got.scores == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("implicator", ["lukasiewicz", "kleene_dienes"])
    def test_lower_approx_matches_brute_force(self, implicator):
        rng = np.random.default_rng(10)
        for trial in range(6):
            m = int(rng.integers(3, 14))
            x = rng.uniform(0, 1, size=(m, 2))
            labels = np.where(rng.random(m) < 0.4, 1, -1)
            labels[0], labels[1] = -1, 1
            p = params(gamma=1.3, implicator=implicator,
                       score_mode="lower_approx")
            got = positive_region_scores(x, labels, p)
            want = brute_lower_approx_scores(x, labels, -1, 1.3,
                                             "minimum", implicator)
            assert got.scores == pytest.approx(want, abs=1e-12)

    def test_duplicates_score_one_until_outlier_arrives(self):
        x = np.full((4, 2), 0.3)
        labels = np.array([-1, -1, -1, 1])
        got = positive_region_scores(x, labels, params())
        assert np.array_equal(got.scores, [1.0, 1.0, 1.0])
        x2 = np.vstack([x, [[1.0, 1.0]]])
        labels2 = np.append(labels, -1)
        got2 = positive_region_scores(x2, labels2, params(gamma=2.0))
        assert np.all(got2.scores[:3] < 1.0)
        assert got2.scores[3] < got2.scores[0]

    def test_lower_approx_overlap_scores_zero(self):
        x = np.array([[0.5], [0.5]])
        labels = np.array([-1, 1])
        got = positive_region_scores(
            x, labels, params(score_mode="lower_approx")
        )
        assert got.scores[0] == 0.0

    def test_lower_approx_single_class_scores_one(self):
        x = np.array([[0.1], [0.4], [0.8]])
        labels = np.array([-1, -1, -1])
        got = positive_region_scores(
            x, labels, params(score_mode="lower_approx")
        )
        assert np.array_equal(got.scores, [1.0, 1.0, 1.0])

    def test_singleton_target_density(self):
        x = np.array([[0.2], [0.6]])
        got = positive_region_scores(x, np.array([-1, 1]), params())
        assert np.array_equal(got.scores, [1.0])

    def test_absent_target_class(self):
        with pytest.raises(ConfigurationError, match="target"):
            positive_region_scores(
                np.zeros((2, 1)), np.array([1, 1]), params()
            )


def manual_scores(values):
    return PositiveRegionScores(
        scores=np.asarray(values, dtype=np.float64),
        mode="density",
        params=params(),
        row_indices=np.arange(len(values)),
    )


class TestSubsample:
    def test_threshold_example(self):
        got = subsample_majority(manual_scores([0.50, 0.55, 0.15]), 0.4)
        assert np.array_equal(got.kept_indices, [0, 1])
        assert np.array_equal(got.removed_indices, [2])

    def test_tau_zero_keeps_everything(self):
        got = subsample_majority(manual_scores([0.0, 0.3, 1.0]), 0.0)
        assert np.array_equal(got.kept_indices, [0, 1, 2])
        assert got.removed_indices.size == 0

    def test_equal_score_is_kept(self):
        got = subsample_majority(manual_scores([0.5, 0.25]), 0.5)
        assert np.array_equal(got.kept_indices, [0])

    def test_empty_kept_set_is_an_error(self):
        with pytest.raises(ConfigurationError, match="tau"):
            subsample_majority(manual_scores([0.2, 0.3]), 0.9)

    def test_rejects_tau_outside_unit_interval(self):
        scores = manual_scores([0.5])
        for bad in (-0.1, 1.5, float("nan")):
            with pytest.raises(ConfigurationError):
                subsample_majority(scores, bad)

    def test_kept_sets_shrink_as_tau_grows(self):
        rng = np.random.default_rng(13)
        scores = manual_scores(rng.uniform(0, 1, size=40))
        taus = np.linspace(0.0, float(scores.scores.max()), 12)
        previous = None
        for tau in taus:
            kept = set(subsample_majority(scores, float(tau))
                       .kept_indices.tolist())
            if previous is not None:
                assert kept <= previous
            previous = kept

    def test_partition(self):
        rng = np.random.default_rng(14)
        scores = manual_scores(rng.uniform(0, 1, size=25))
        got = subsample_majority(scores, 0.5)
        both = np.concatenate([got.kept_indices, got.removed_indices])
        assert np.array_equal(np.sort(both), np.arange(25))


class TestClassWeights:
    def test_identical_pair(self):
        w = class_weights(np.array([[0.2, 0.2], [0.2, 0.2]]), params())
        assert np.array_equal(w, [1.0, 1.0])

    def test_three_point_example(self):
        x = np.array([[0.0], [0.1], [0.9]])
        w = class_weights(x, params())
        assert w == pytest.approx([0.50, 0.55, 0.15])

    def test_floor_when_everything_truncates(self):
        x = np.array([[0.0], [0.5], [1.0]])
        w = class_weights(x, params(gamma=100.0))
        assert np.all(w == WEIGHT_FLOOR)

    def test_singleton(self):
        w = class_weights(np.array([[0.7]]), params())
        assert np.array_equal(w, [1.0])

    def test_bounds_and_permutation_consistency(self):
        rng = np.random.default_rng(15)
        x = rng.uniform(0, 1, size=(20, 3))
        w = class_weights(x, params(gamma=2.0))
        assert np.all(w >= WEIGHT_FLOOR) and np.all(w <= 1.0)
        perm = rng.permutation(20)
        wp = class_weights(x[perm], params(gamma=2.0))
        assert wp == pytest.approx(w[perm], abs=1e-12)
