import numpy as np
import pytest

from frlstsvm.errors import SingularSystemError
from frlstsvm.linalg import (
    add_scaled_identity,
    gram,
    spd_solve,
)


class TestGram:
    def test_identity(self):
        assert np.array_equal(gram(np.eye(2)), np.eye(2))

    def test_single_row(self):
        assert np.array_equal(gram([[1.0, 2.0]]), [[1.0, 2.0], [2.0, 4.0]])

    def test_exact_symmetry(self):
        rng = np.random.default_rng(0)
        g = gram(rng.normal(size=(5, 3)))
        assert np.array_equal(g, g.T)

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

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            spd_solve(np.asarray([[1.0, 2.0], [0.0, 1.0]]), np.ones(2))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            spd_solve(np.ones((2, 3)), np.ones(2))

    def test_rejects_bad_rhs_length(self):
        with pytest.raises(ValueError, match="incompatible"):
            spd_solve(np.eye(2), np.ones(3))
