"""Similarity, positive-region scoring, subsampling, and weights."""
from __future__ import annotations

import itertools
import threading
import tracemalloc

import numpy as np
import pytest

from frlstsvm import fuzzy_rough, linalg
from frlstsvm.dataset import ScalingParams, minmax_apply, minmax_fit
from frlstsvm.errors import ConfigurationError, DataError
from frlstsvm.fuzzy_rough import (
    T_NORMS,
    WEIGHT_FLOOR,
    FuzzyParams,
    PositiveRegionScores,
    _KEPT_BLOCK_ENTRIES,
    _THREADED_ENTRIES,
    _cross_similarity,
    chebyshev_distances,
    class_weights,
    indiscernibility_matrix,
    row_sums,
    positive_region_scores,
    subsample_majority,
)

from helpers import brute_density_scores, brute_lower_approx_scores, \
    brute_pair_sim, count_threads, dyadic_matrix, loop_lower_approx_scores, \
    loop_similarity


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
        assert p.score_mode == "density"

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_rejects_bad_gamma(self, bad):
        with pytest.raises(ConfigurationError, match="gamma"):
            FuzzyParams(gamma=bad)

    def test_rejects_unknown_names(self):
        with pytest.raises(ConfigurationError, match="tnorm"):
            FuzzyParams(gamma=1.0, tnorm="max")
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


ORACLE_GAMMAS = (0.05, 0.5, 1.0, 1.7, 3.0)

# the two implicators the lower_approx oracles implement; the library
# takes none, since both give every lower_approx score the same bits
IMPLICATORS = ("lukasiewicz", "kleene_dienes")


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestSimilarityMatchesLoopOracle:
    """The library's similarity (one Chebyshev distance for the minimum
    t-norm, an in-place fold for the others) has the bits of the
    per-attribute loop in tests/helpers.py."""

    @pytest.mark.parametrize("tnorm", T_NORMS)
    @pytest.mark.parametrize("width", [0, 1, 2, 5, 13])
    def test_cross_similarity_is_bit_equal(self, tnorm, width):
        rng = np.random.default_rng(40 + width)
        xa = rng.uniform(0, 1, size=(23, width))
        xb = rng.uniform(0, 1, size=(31, width))
        xb[:4] = xa[:4]
        if width > 1:
            # tied columns: two attributes give the same term
            xa[:, -1] = xa[:, 0]
            xb[:, -1] = xb[:, 0]
        for gamma in ORACLE_GAMMAS:
            p = params(gamma=gamma, tnorm=tnorm)
            for a, b in ((xa, xb), (xb, xa), (xa, xa)):
                assert_same_bits(_cross_similarity(a, b, p),
                                 loop_similarity(a, b, gamma, tnorm))

    @pytest.mark.parametrize("tnorm", T_NORMS)
    def test_gamma_that_zeroes_every_distinct_pair(self, tnorm):
        # distinct rows on a 1/64 grid differ by at least 1/64 in some
        # attribute, so gamma 64 zeroes every off-diagonal pair
        rng = np.random.default_rng(47)
        x = np.unique(dyadic_matrix(rng, 60, 4, denom=64), axis=0)
        sim = indiscernibility_matrix(x, params(gamma=64.0, tnorm=tnorm))
        assert_same_bits(sim, loop_similarity(x, x, 64.0, tnorm))
        assert_same_bits(sim, np.eye(x.shape[0]))

    @pytest.mark.parametrize("tnorm", T_NORMS)
    @pytest.mark.parametrize("implicator", IMPLICATORS)
    def test_lower_approx_scores_are_bit_equal(self, tnorm, implicator):
        # 1 - the largest similarity to the other class has the bits of
        # the infimum of the implication under either implicator, for
        # both target classes, with tied rows across the classes
        rng = np.random.default_rng(48)
        x = rng.uniform(0, 1, size=(70, 5))
        labels = np.where(rng.uniform(size=70) < 0.3, 1, -1)
        pos, neg = np.flatnonzero(labels == 1), np.flatnonzero(labels == -1)
        x[pos[:3]] = x[neg[:3]]
        for gamma in ORACLE_GAMMAS:
            p = params(gamma=gamma, tnorm=tnorm, score_mode="lower_approx")
            for target in (-1, 1):
                got = positive_region_scores(x, labels, p,
                                             target_class=target)
                assert_same_bits(got.scores, loop_lower_approx_scores(
                    x, labels, target, gamma, tnorm, implicator))


def lower_approx(x, labels):
    p = params(score_mode="lower_approx")
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
        x, labels = np.array([[0.0], [0.4], [0.7]]), np.array([-1, 1, 1])
        got = lower_approx(x, labels)
        assert got[0] == pytest.approx(0.4)
        assert got.tolist() == brute_lower_approx_scores(
            x, labels, -1, 1.0, "minimum", "kleene_dienes")

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
            p = params(gamma=1.3, score_mode="lower_approx")
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

    def test_lower_approx_peak_memory_is_the_cross_class_block(self):
        # an abalone19-sized majority (4142 x 8) against 32 minority
        # rows: scoring builds the 4142 x 32 similarity (1 MB), not a
        # majority-by-all-rows one (132 MB)
        rng = np.random.default_rng(97)
        m1, m2 = 32, 4142
        x = np.vstack([rng.uniform(0.4, 0.7, size=(m1, 8)),
                       rng.uniform(0.0, 1.0, size=(m2, 8))])
        labels = np.array([1] * m1 + [-1] * m2)
        p = params(score_mode="lower_approx")
        tracemalloc.start()
        try:
            got = positive_region_scores(x, labels, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.scores.shape == (m2,)
        assert 0.0 < got.scores.max() and got.scores.min() < 1.0
        assert peak < 8 * 2 ** 20

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


class TestRowSums:
    def test_distances_give_the_sums_of_each_gammas_similarity(self):
        # a majority of 400 rows spans several row blocks; gammas on
        # both sides of 1 / (largest distance), where the clip acts
        rng = np.random.default_rng(16)
        x = rng.uniform(0, 1, size=(400, 3)) * [1.0, 0.5, 0.25]
        d = chebyshev_distances(x)
        assert 400 * 400 > 3 * _KEPT_BLOCK_ENTRIES
        dmax = float(d.max())
        rows = (None, np.arange(400), np.sort(rng.permutation(400)[:250]),
                np.array([7]))
        for gamma in (0.25 / dmax, 1.0 / dmax, 1.5, 9.0):
            sim = indiscernibility_matrix(x, params(gamma=gamma))
            for r in rows:
                want = (sim.sum(axis=1) if r is None
                        else sim[np.ix_(r, r)].sum(axis=1))
                assert row_sums(d, r, gamma).tobytes() == want.tobytes()
                assert row_sums(sim, r).tobytes() == want.tobytes()
                if gamma * dmax <= 1.0:
                    # no 1 - gamma d is negative: the clip is idle
                    assert (row_sums(d, r, gamma, clip=False).tobytes()
                            == want.tobytes())

    @pytest.mark.parametrize("columns", [3, 0])
    @pytest.mark.parametrize("tnorm", T_NORMS)
    def test_points_give_the_sums_of_the_held_similarity(self, tnorm,
                                                         columns):
        # row blocks built from the rows themselves, full or restricted,
        # have the bits of the held similarity's rows; gammas on both
        # sides of 1 / (largest distance), where the clip acts. Rows
        # without attributes are all alike
        rng = np.random.default_rng(17)
        x = rng.uniform(0, 1, size=(400, columns)) * [1.0, 0.5, 0.25][
            :columns]
        dmax = float(chebyshev_distances(x).max())
        rows = (None, np.arange(400), np.sort(rng.permutation(400)[:250]),
                np.array([7]))
        for gamma in (0.25 / max(dmax, 0.25), 9.0):
            fz = params(gamma=gamma, tnorm=tnorm)
            sim = indiscernibility_matrix(x, fz)
            # the minimum t-norm maps each block's distances with gamma
            how = ({} if tnorm != "minimum"
                   else dict(gamma=gamma, clip=gamma * dmax > 1.0))
            for r in rows:
                want = row_sums(sim, r)
                got = row_sums(x, r, points=fz, **how)
                assert got.tobytes() == want.tobytes()
            if tnorm == "minimum" and columns:
                assert (gamma * dmax > 1.0) == (gamma == 9.0)

    @staticmethod
    def threaded_sources(x: np.ndarray):
        """(pairs, rows, keywords) of row_sums for each source of a
        threaded pass: the held distance over every row and over a
        subset, and the rows themselves under each t-norm, mapped with
        and without the clip under the minimum."""
        p = x.shape[0]
        d = chebyshev_distances(x)
        kept = np.sort(np.random.default_rng(19).permutation(p)[:p - 50])
        dmax = float(d.max())
        sources = [(d, rows, how) for rows in (None, kept)
                   for how in (dict(gamma=9.0),
                               dict(gamma=0.5 / dmax, clip=False))]
        for tnorm in T_NORMS:
            fz = params(gamma=9.0, tnorm=tnorm)
            hows = ([dict(gamma=9.0), dict(gamma=0.5 / dmax, clip=False)]
                    if tnorm == "minimum" else [{}])
            sources += [(x, rows, dict(how, points=fz))
                        for rows in (None, kept) for how in hows]
        return sources

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_threaded_passes_keep_the_bits_of_one_cpu(self, monkeypatch,
                                                       cpus):
        # a pass over at least 2^20 entries runs its blocks on min(cpus,
        # blocks) workers, each pinned to its own CPU of the mask, or on
        # the calling thread when that is 1
        x = np.random.default_rng(18).uniform(0, 1, size=(1100, 3))
        mask = list(range(10, 10 + cpus))
        started, pinned = count_threads(monkeypatch)
        for pairs, rows, how in self.threaded_sources(x):
            p = x.shape[0] if rows is None else rows.size
            assert p * p >= _THREADED_ENTRIES
            monkeypatch.setattr(linalg, "_usable_cpus", lambda: [0])
            want = row_sums(pairs, rows, **how)
            assert started == [] and pinned == []
            monkeypatch.setattr(linalg, "_usable_cpus", lambda: mask)
            before = threading.active_count()
            got = row_sums(pairs, rows, **how)
            assert threading.active_count() == before
            assert got.tobytes() == want.tobytes()
            workers = 0 if cpus == 1 else cpus
            assert len(started) == workers
            assert sorted(pinned, key=min) == [{c} for c in mask[:workers]]
            del started[:], pinned[:]

    def test_a_smaller_pass_runs_on_the_calling_thread(self, monkeypatch):
        started, _ = count_threads(monkeypatch)
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: [0, 1, 2, 3])
        x = np.random.default_rng(20).uniform(0, 1, size=(1024, 3))
        assert 1023 * 1023 < _THREADED_ENTRIES <= 1024 * 1024
        row_sums(x[:1023], points=params(gamma=2.0), gamma=2.0)
        row_sums(x, np.arange(1023), points=params(gamma=2.0), gamma=2.0)
        assert started == []
        row_sums(x, points=params(gamma=2.0), gamma=2.0)
        assert len(started) == 4

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_a_failed_block_raises_after_every_thread_joins(
            self, monkeypatch, cpus):
        # CPUs this box may not have: a worker that cannot be pinned runs
        # where the OS puts it
        monkeypatch.setattr(linalg, "_usable_cpus",
                            lambda: list(range(cpus)))
        failure = MemoryError("second block")
        calls = itertools.count(1)
        lock = threading.Lock()
        real_cdist = fuzzy_rough.cdist

        def cdist(*args, **kw):
            with lock:
                call = next(calls)
            if call == 2:
                raise failure
            return real_cdist(*args, **kw)

        monkeypatch.setattr(fuzzy_rough, "cdist", cdist)
        x = np.random.default_rng(21).uniform(0, 1, size=(1100, 3))
        before = threading.active_count()
        with pytest.raises(MemoryError) as info:
            row_sums(x, points=params(gamma=2.0), gamma=2.0)
        assert info.value is failure
        assert threading.active_count() == before
        if cpus == 1:
            # no block is taken after the one that failed
            assert next(calls) == 3

    @pytest.mark.parametrize("tnorm", T_NORMS)
    def test_an_empty_row_set_gives_empty_sums(self, tnorm):
        # as row_means does: no rows, no blocks, no sums
        x = np.random.default_rng(22).uniform(0, 1, size=(5, 3))
        none = np.array([], dtype=int)
        fuzzy = params(gamma=2.0, tnorm=tnorm)
        # the held distance and the points under the minimum t-norm map
        # Chebyshev distances; the other forms read the similarity
        how = dict(gamma=2.0) if tnorm == "minimum" else {}
        for got in (row_sums(chebyshev_distances(x), none, gamma=2.0),
                    row_sums(indiscernibility_matrix(x, fuzzy), none),
                    row_sums(x, none, points=fuzzy, **how)):
            assert got.shape == (0,) and got.dtype == np.float64

    def test_distances_are_the_chebyshev_metric(self):
        x = np.array([[0.0, 0.5], [0.25, 0.0], [1.0, 1.0]])
        assert np.array_equal(chebyshev_distances(x), [
            [0.0, 0.5, 1.0], [0.5, 0.0, 1.0], [1.0, 1.0, 0.0]])
        # rows without attributes are all alike, as the similarity says
        empty = np.empty((3, 0))
        assert np.array_equal(chebyshev_distances(empty), np.zeros((3, 3)))
        assert np.array_equal(
            row_sums(chebyshev_distances(empty), gamma=2.0),
            indiscernibility_matrix(empty, params(gamma=2.0)).sum(axis=1))
