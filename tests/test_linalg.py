import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dpotrf

from frlstsvm.errors import SingularSystemError
from frlstsvm.linalg import (
    RESIDUAL_RTOL,
    RIDGE_STEPS,
    add_scaled_identity,
    gram,
    spd_solve,
    spd_solve_stack,
)


def checked_cholesky_ladder(a, b):
    """The ridge ladder through scipy's checked cho_factor/cho_solve on
    a symmetrised copy of A: (x, ridge, attempts), or None when no
    attempt meets the residual threshold."""
    a = (a + a.T) * 0.5
    n = a.shape[0]
    trace = float(np.trace(a))
    ridge_unit = trace / n if trace > 0 else 1.0
    b2 = b.reshape(n, -1)
    threshold = RESIDUAL_RTOL * max(1.0, float(np.linalg.norm(b2)))
    for attempts, step in enumerate((0.0,) + RIDGE_STEPS, start=1):
        ridge = step * ridge_unit
        a_try = a if ridge == 0.0 else add_scaled_identity(a, ridge)
        try:
            factor = scipy.linalg.cho_factor(a_try, lower=True)
        except scipy.linalg.LinAlgError:
            continue
        x = scipy.linalg.cho_solve(factor, b2)
        if (np.all(np.isfinite(x))
                and np.linalg.norm(a_try @ x - b2) <= threshold):
            return x.reshape(b.shape), ridge, attempts
    return None


class TestGram:
    def test_identity(self):
        assert np.array_equal(gram(np.eye(2)), np.eye(2))

    def test_single_row(self):
        assert np.array_equal(gram([[1.0, 2.0]]), [[1.0, 2.0], [2.0, 4.0]])

    def test_exact_symmetry(self):
        rng = np.random.default_rng(0)
        g = gram(rng.normal(size=(5, 3)))
        assert np.array_equal(g, g.T)

    def test_bits_of_the_symmetrized_product(self):
        a = np.random.default_rng(2).normal(size=(40, 30))
        raw = a.T @ a
        assert gram(a).tobytes() == ((raw + raw.T) * 0.5).tobytes()

    @pytest.mark.parametrize("rows", [0, 1, 2, 7, 64, 301])
    @pytest.mark.parametrize("cols", [1, 2, 5, 33, 257])
    def test_every_layout_is_exactly_symmetric(self, rows, cols):
        # A^T A with no symmetrising pass: C-ordered, F-ordered and
        # strided inputs alike give the bits of (g + g^T) / 2 on the
        # contiguous copy, and their own transpose
        rng = np.random.default_rng(rows * 1000 + cols)
        wide = rng.normal(size=(rows, 2 * cols + 1))
        layouts = {
            "C": np.ascontiguousarray(wide[:, :cols]),
            "F": np.asfortranarray(wide[:, :cols]),
            "column slice": wide[:, :cols],
            "column step": wide[:, ::2][:, :cols],
            "row step": np.repeat(wide[:, :cols], 2, axis=0)[::2],
        }
        for name, a in layouts.items():
            c = np.ascontiguousarray(a)
            raw = c.T @ c
            g = gram(a)
            assert np.array_equal(g, (raw + raw.T) * 0.5), name
            assert np.array_equal(g, g.T), name

    def test_quadratic_form_nonnegative(self):
        rng = np.random.default_rng(1)
        g = gram(rng.normal(size=(6, 4)))
        for _ in range(100):
            x = rng.normal(size=4)
            assert x @ g @ x >= -1e-12


class TestProducts:
    def test_add_scaled_identity(self):
        assert np.array_equal(add_scaled_identity(np.eye(2), 1.0),
                              2.0 * np.eye(2))

    def test_add_scaled_identity_requires_square(self):
        with pytest.raises(ValueError, match="square"):
            add_scaled_identity(np.ones((2, 3)), 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            gram([[np.nan, 1.0]])

    def test_strided_diagonal_has_the_bits_of_diag_indices(self):
        rng = np.random.default_rng(9)
        moved = 0
        for _ in range(300):
            n = int(rng.integers(1, 60))
            a = gram(rng.normal(size=(n + 2, n)) * 10.0 ** rng.integers(-8, 8))
            delta = float(rng.choice([0.0, 1e-6, rng.uniform(0, 1e3)]))
            want = a.copy()
            want[np.diag_indices_from(want)] += delta
            got = add_scaled_identity(a, delta)
            assert got.tobytes() == want.tobytes()
            moved += got.tobytes() != a.tobytes()
        assert moved > 100

    def test_checked_gram_skips_only_the_check(self):
        m = np.random.default_rng(10).normal(size=(7, 4))
        assert gram(m, checked=True).tobytes() == gram(m).tobytes()


class TestSpdSolve:
    def test_identity_system(self):
        x, rep = spd_solve(np.eye(3), np.asarray([1.0, 0.0, 0.0]))
        assert np.array_equal(x, [1.0, 0.0, 0.0])
        assert rep.ridge_added == 0.0
        assert rep.factorization_attempts == 1

    def test_diagonal_system(self):
        x, _ = spd_solve(np.diag([2.0, 2.0]), np.asarray([2.0, 4.0]))
        assert np.allclose(x, [1.0, 2.0], rtol=0, atol=1e-14)

    def test_zero_matrix_contract(self):
        # degenerate input: either a ridged solve with X ~ B / ridge, or
        # a singular-system error
        b = np.asarray([1.0, 0.0])
        try:
            x, rep = spd_solve(np.zeros((2, 2)), b)
        except SingularSystemError as exc:
            assert exc.report is not None
            return
        assert rep.ridge_added > 0.0
        assert rep.factorization_attempts >= 2
        assert np.allclose(x, b / rep.ridge_added, rtol=1e-9)

    def test_random_spd_no_ridge(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            m = rng.normal(size=(6, 6))
            a = m.T @ m + np.eye(6)
            a = (a + a.T) / 2
            b = rng.normal(size=(6, 2))
            x, rep = spd_solve(a, b)
            assert rep.ridge_added == 0.0
            assert np.linalg.norm(a @ x - b) <= 1e-8 * max(
                1.0, np.linalg.norm(b))

    def test_residual_reported(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(4, 4))
        a = (m.T @ m + np.eye(4))
        a = (a + a.T) / 2
        b = rng.normal(size=4)
        x, rep = spd_solve(a, b)
        assert rep.residual_norm == pytest.approx(
            float(np.linalg.norm(a @ x - b)), abs=1e-15)

    def test_matrix_rhs_shape(self):
        x, _ = spd_solve(np.eye(2), np.ones((2, 3)))
        assert x.shape == (2, 3)

    @pytest.mark.parametrize("a, b, match", [
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), np.ones(2), "A contains"),
        (np.eye(2), np.array([1.0, np.nan]), "B contains"),
    ], ids=["inf_in_a", "nan_in_b"])
    def test_rejects_non_finite_entries(self, a, b, match):
        with pytest.raises(ValueError, match=match):
            spd_solve(a, b)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            spd_solve(np.asarray([[1.0, 2.0], [0.0, 1.0]]), np.ones(2))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            spd_solve(np.ones((2, 3)), np.ones(2))

    def test_rejects_bad_rhs_length(self):
        with pytest.raises(ValueError, match="incompatible"):
            spd_solve(np.eye(2), np.ones(3))

    def test_bits_of_scipy_cholesky_on_random_spd_systems(self):
        rng = np.random.default_rng(6)
        for trial in range(1200):
            n = int(rng.integers(1, 41))
            m = rng.normal(size=(n + int(rng.integers(0, 5)), n))
            a = gram(m) + 1e-3 * np.eye(n)
            b = rng.normal(size=n if trial % 2 else (n, 3))
            x, rep = spd_solve(a, b)
            expected = scipy.linalg.cho_solve(
                scipy.linalg.cho_factor(a, lower=True), b)
            assert x.shape == b.shape
            assert x.tobytes() == expected.tobytes()
            assert rep.ridge_added == 0.0
            assert rep.factorization_attempts == 1

    @pytest.mark.parametrize("n", [64, 65, 128, 257, 513, 1457])
    def test_bits_of_scipy_cholesky_where_dpotrf_blocks(self, n):
        # from some order on, OpenBLAS's dpotrf factors in blocks; the
        # factor of A' in Fortran order must still have the bits of
        # cho_factor's, whichever order A itself is stored in
        rng = np.random.default_rng(n)
        a = gram(rng.normal(size=(n + 3, n))) + 1e-3 * np.eye(n)
        for b in (rng.normal(size=n), rng.normal(size=(n, 2))):
            expected = scipy.linalg.cho_solve(
                scipy.linalg.cho_factor(a, lower=True), b)
            for a_in in (a, np.asfortranarray(a)):
                x, rep = spd_solve(a_in, b)
                assert x.tobytes() == expected.tobytes()
                assert rep.factorization_attempts == 1

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("case", ["bare", "ridged", "singular"])
    def test_writes_neither_a_nor_b(self, case, order):
        # the residual and every rung of the ridge ladder read A again,
        # and the grid builds each c's system in one reused buffer
        rng = np.random.default_rng(9)
        n = 70
        a = gram(rng.normal(size=(5 if case == "ridged" else n + 3, n)))
        if case == "singular":
            a[-1, -1] = -1.0  # indefinite at every ridge
        a = np.array(a, order=order)
        b = rng.normal(size=(n, 2))
        a_bits, b_bits = a.tobytes(), b.tobytes()
        if case == "singular":
            with pytest.raises(SingularSystemError) as exc:
                spd_solve(a, b)
            assert exc.value.report.factorization_attempts == 5
        else:
            _, rep = spd_solve(a, b)
            assert (rep.ridge_added > 0) == (case == "ridged")
        assert a.tobytes() == a_bits and b.tobytes() == b_bits

    def test_rank_deficient_gram_escalates_like_the_checked_ladder(self):
        rng = np.random.default_rng(7)
        escalated = 0
        for rank, n in ((1, 4), (2, 6), (3, 8), (5, 12)):
            a = gram(rng.normal(size=(rank, n)))
            for b in (rng.normal(size=n), rng.normal(size=(n, 3))):
                expected = checked_cholesky_ladder(a, b)
                assert expected is not None
                x_ref, ridge, attempts = expected
                x, rep = spd_solve(a, b)
                assert rep.ridge_added == ridge
                assert rep.factorization_attempts == attempts
                assert x.tobytes() == x_ref.tobytes()
                escalated += attempts > 1
        assert escalated == 8

    def test_rejects_one_ulp_of_asymmetry(self):
        a = gram(np.random.default_rng(8).normal(size=(5, 3)))
        a[0, 1] = np.nextafter(a[0, 1], np.inf)
        with pytest.raises(ValueError, match="not symmetric"):
            spd_solve(a, np.ones(3))



def conditioned_stack(rng, count: int, n: int, worst: float):
    """count exactly symmetric SPD systems of order n, each with
    eigenvalues spread log-evenly from 1 down to 1 / cond, cond drawn
    log-uniformly up to worst, and normal right-hand sides."""
    a = np.empty((count, n, n))
    for k in range(count):
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        m = (q * np.logspace(0, -rng.uniform(0, np.log10(worst)), n)) @ q.T
        a[k] = np.triu(m) + np.triu(m, 1).T
    return a, rng.normal(size=(count, n))


class TestSpdSolveStack:
    def test_bits_of_spd_solve_up_to_condition_1e12(self):
        # each solved system has the bits of spd_solve's unridged
        # attempt, and each miss is a system whose unridged attempt
        # spd_solve rejects too
        a, b = conditioned_stack(np.random.default_rng(21), 600, 9, 1e12)
        a_bits, b_bits = a.tobytes(), b.tobytes()
        x, solved = spd_solve_stack(a, b)
        assert a.tobytes() == a_bits and b.tobytes() == b_bits
        assert x.shape == b.shape and solved.shape == (600,)
        assert 0 < solved.sum() < 600
        for k in range(600):
            want, rep = spd_solve(a[k], b[k])
            if solved[k]:
                assert rep.factorization_attempts == 1
                assert x[k].tobytes() == want.tobytes()
            else:
                assert rep.factorization_attempts > 1
                assert not x[k].any()

    def test_misses_go_to_spd_solve_as_a_lone_system_would(self):
        # one system that factors and solves, one that does not factor
        # at any ridge, and one that factors but misses the residual
        # gate, from which spd_solve's ridge ladder recovers
        rng = np.random.default_rng(22)
        good = gram(rng.normal(size=(12, 9))) + 1e-3 * np.eye(9)
        indefinite = good.copy()
        indefinite[-1, -1] = -1.0
        rank_six = gram(np.random.default_rng(1).normal(size=(6, 9)))
        assert dpotrf(rank_six.T, lower=1, clean=0)[1] == 0
        systems = [good, indefinite, rank_six]
        rhs = [rng.normal(size=9), rng.normal(size=9),
               np.random.default_rng(101).normal(size=9)]
        x, solved = spd_solve_stack(np.array(systems), np.array(rhs))
        assert solved.tolist() == [True, False, False]
        with pytest.raises(SingularSystemError) as exc:
            spd_solve(indefinite, rhs[1])
        assert exc.value.report.factorization_attempts == 5
        lone, lone_rep = spd_solve(rank_six.copy(), rhs[2].copy())
        assert lone_rep.factorization_attempts > 1
        # the stack's own rows, as the grid hands them to spd_solve
        stack, stack_rhs = np.array(systems), np.array(rhs)
        again, rep = spd_solve(stack[2], stack_rhs[2])
        assert rep == lone_rep and again.tobytes() == lone.tobytes()
        with pytest.raises(SingularSystemError) as again_exc:
            spd_solve(stack[1], stack_rhs[1])
        assert again_exc.value.report == exc.value.report
        assert str(again_exc.value) == str(exc.value)
        assert x[0].tobytes() == spd_solve(good, rhs[0])[0].tobytes()

    @pytest.mark.parametrize("case", ["asymmetric", "inf_in_a", "nan_in_b"])
    def test_refuses_what_spd_solve_refuses_with_its_message(self, case):
        a, b = conditioned_stack(np.random.default_rng(23), 5, 4, 1e3)
        if case == "asymmetric":
            a[3, 0, 1] = np.nextafter(a[3, 0, 1], np.inf)
        elif case == "inf_in_a":
            a[2, 1, 1] = np.inf
        else:
            b[4, 0] = np.nan
        k = {"asymmetric": 3, "inf_in_a": 2, "nan_in_b": 4}[case]
        with pytest.raises(ValueError) as lone:
            spd_solve(a[k], b[k])
        with pytest.raises(ValueError) as stacked:
            spd_solve_stack(a, b)
        assert str(stacked.value) == str(lone.value)

    @pytest.mark.parametrize("a_shape, b_shape, match", [
        ((2, 3, 4), (2, 3), "square"), ((3, 3), (3,), "square"),
        ((2, 3, 3), (2, 4), "incompatible"), ((2, 3, 3), (3, 3),
                                              "incompatible"),
        ((2, 3, 3), (2,), "incompatible"),
        ((2, 3, 3), (2, 3, 1), "incompatible"),
    ])
    def test_rejects_bad_shapes(self, a_shape, b_shape, match):
        with pytest.raises(ValueError, match=match):
            spd_solve_stack(np.ones(a_shape), np.ones(b_shape))
