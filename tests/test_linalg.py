"""The Jacobi engine against numpy's LAPACK-backed reference."""

import warnings

import numpy as np
import pytest

import qhm
from qhm.errors import ConvergenceWarning
from qhm.linalg import (
    double_center,
    eigh_pinv_solve,
    gram_rank,
    jacobi_eigh,
    lstsq_minnorm,
    symmetric_rank_and_nullspace,
)


def random_symmetric(n, rng):
    a = rng.normal(size=(n, n))
    return a + a.T


def test_eigenvalues_match_numpy():
    rng = np.random.default_rng(1)
    # odd sizes run the padded round-robin schedule
    for n in (1, 2, 3, 5, 8, 13, 16, 33, 64):
        a = random_symmetric(n, rng)
        w, v = jacobi_eigh(a)
        ref = np.linalg.eigvalsh(a)
        assert np.allclose(w, ref, atol=1e-12 * max(1.0, np.abs(ref).max()))
        assert np.linalg.norm(a @ v - v * w) <= 1e-13 * max(1.0, np.linalg.norm(a))
        # reconstruction and orthogonality
        assert np.allclose(v @ np.diag(w) @ v.T, a, atol=1e-12 * max(1.0, np.abs(a).max()))
        assert np.allclose(v.T @ v, np.eye(n), atol=1e-13)


def test_eigenvectors_are_eigenvectors():
    rng = np.random.default_rng(2)
    a = random_symmetric(6, rng)
    w, v = jacobi_eigh(a)
    for i in range(6):
        assert np.allclose(a @ v[:, i], w[i] * v[:, i], atol=1e-12)


def test_deterministic_bitwise():
    rng = np.random.default_rng(3)
    for n in (7, 8, 33):
        a = random_symmetric(n, rng)
        w1, v1 = jacobi_eigh(a)
        w2, v2 = jacobi_eigh(a)
        assert w1.tobytes() == w2.tobytes()
        assert v1.tobytes() == v2.tobytes()


@pytest.mark.parametrize("name", ["cycle4_arclength", "equilateral3_6"])
def test_repeated_eigenvalues(name):
    # P d P of these spaces has multiple eigenvalues (and a zero one)
    a = double_center(qhm.make_fixture(name).dist)
    w, v = jacobi_eigh(a)
    ref = np.linalg.eigvalsh(a)
    assert np.unique(np.round(ref, 9)).size < ref.size
    assert np.allclose(w, ref, atol=1e-13 * np.abs(ref).max())
    assert np.allclose(a @ v, v * w, atol=1e-13 * np.abs(ref).max())
    assert np.allclose(v.T @ v, np.eye(a.shape[0]), atol=1e-14)


def test_tiny_off_diagonal_rotates_without_overflow():
    # the tiny-angle regime: theta = (a_qq - a_pp) / (2 a_pq) is 5e169 and 1e308, and
    # |theta| + hypot(theta, 1) overflows at the second; sweep_tol=0 keeps the rotation
    for a in ([[0.0, 1e-200], [1e-200, 1e-30]], [[0.0, 5e-159], [5e-159, 1e150]]):
        a = np.array(a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, v = jacobi_eigh(a, sweep_tol=0.0)
        assert np.allclose(w, np.linalg.eigvalsh(a), rtol=1e-15, atol=1e-300)
        assert w[1] == a[1, 1] and v[0, 0] == 1.0 and v[1, 1] == 1.0
        assert abs(v[1, 0]) == pytest.approx(a[0, 1] / a[1, 1])


def test_sweep_cap_warns():
    a = random_symmetric(8, np.random.default_rng(7))
    with pytest.warns(ConvergenceWarning, match="cap of 1 sweeps"):
        w, _ = jacobi_eigh(a, max_sweeps=1)
    assert w.shape == (8,)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jacobi_eigh(a)


def test_zero_and_diagonal_matrices():
    w, v = jacobi_eigh(np.zeros((3, 3)))
    assert np.all(w == 0.0) and np.allclose(v, np.eye(3))
    w, _ = jacobi_eigh(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(w, [-1.0, 2.0, 3.0])


def test_pinv_solve_nonsingular():
    rng = np.random.default_rng(4)
    a = random_symmetric(5, rng) + 10 * np.eye(5)
    b = rng.normal(size=5)
    x, res, rank, null = eigh_pinv_solve(a, b)
    assert rank == 5 and null.shape == (5, 0)
    assert res < 1e-12
    assert np.allclose(x, np.linalg.solve(a, b))


def test_pinv_solve_singular_consistent_gives_minimum_norm():
    # the 4-cycle distance matrix: rank 3, kernel spanned by (1,-1,1,-1)
    a = np.array([[0, 2, 4, 2], [2, 0, 2, 4], [4, 2, 0, 2], [2, 4, 2, 0]], float)
    b = np.ones(4)
    x, res, rank, null = eigh_pinv_solve(a, b)
    assert rank == 3 and null.shape == (4, 1)
    assert res < 1e-12
    ref = np.linalg.lstsq(a, b, rcond=None)[0]
    assert np.allclose(x, ref, atol=1e-12)
    assert np.allclose(a @ null[:, 0], 0.0, atol=1e-12)
    assert abs(np.linalg.norm(null[:, 0]) - 1.0) < 1e-12


def test_pinv_solve_inconsistent_reports_residual():
    a = np.zeros((2, 2))
    x, res, rank, null = eigh_pinv_solve(a, np.ones(2))
    assert rank == 0 and null.shape == (2, 2)
    assert np.all(x == 0.0)
    assert abs(res - np.sqrt(2.0)) < 1e-15


def test_gram_rank():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert gram_rank(pts) == 1
    homog = np.hstack([pts, np.ones((3, 1))])
    assert gram_rank(homog) == 2  # collinear: affinely dependent


def test_lstsq_minnorm_matches_numpy():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 3))
    b = rng.normal(size=6)
    x, res = lstsq_minnorm(a, b)
    ref = np.linalg.lstsq(a, b, rcond=None)[0]
    assert np.allclose(x, ref, atol=1e-10)
    assert abs(res - np.linalg.norm(a @ ref - b)) < 1e-10


def test_double_center_equals_projector_conjugation():
    rng = np.random.default_rng(6)
    a = random_symmetric(5, rng)
    p = np.eye(5) - np.ones((5, 5)) / 5
    assert np.allclose(double_center(a), p @ a @ p, atol=1e-13)


def test_symmetric_rank_and_nullspace():
    a = np.diag([1.0, 0.0, 2.0])
    rank, null = symmetric_rank_and_nullspace(a)
    assert rank == 2
    assert null.shape == (3, 1)
    assert abs(abs(null[1, 0]) - 1.0) < 1e-14
