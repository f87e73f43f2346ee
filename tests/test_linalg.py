"""The Jacobi engine against numpy's LAPACK-backed reference."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qhm
from qhm.errors import ConvergenceWarning
from qhm.linalg import (
    _round_robin,
    _rotation,
    SOLVE_BLOCK,
    cholesky,
    definite_solve,
    eigh_pinv_solve,
    gram_rank,
    jacobi_eigh,
    lstsq_minnorm,
    one_sided_jacobi,
    semidefinite_solve,
    symmetric_rank_and_nullspace,
)

from conftest import projector_centred


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
    a = projector_centred(qhm.make_fixture(name).dist)
    w, v = jacobi_eigh(a)
    ref = np.linalg.eigvalsh(a)
    assert np.unique(np.round(ref, 9)).size < ref.size
    assert np.allclose(w, ref, atol=1e-13 * np.abs(ref).max())
    assert np.allclose(a @ v, v * w, atol=1e-13 * np.abs(ref).max())
    assert np.allclose(v.T @ v, np.eye(a.shape[0]), atol=1e-14)


def test_tiny_off_diagonal_rotates_without_overflow():
    # the tiny-angle regime: theta = (a_qq - a_pp) / (2 a_pq) is 5e169 and 1e308, and
    # |theta| + hypot(theta, 1) overflows at the second; the tangent is a_pq / d
    d = np.array([1e-30, 1e150])
    apq = np.array([1e-200, 5e-159])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c, s = _rotation(d, apq)
    assert np.array_equal(c, [1.0, 1.0])
    assert s == pytest.approx(apq / d, rel=1e-15)


def test_sweep_cap_warns(monkeypatch):
    a = random_symmetric(8, np.random.default_rng(7))
    with monkeypatch.context() as patch:
        patch.setattr(qhm.linalg, "MAX_SWEEPS", 1)
        with pytest.warns(ConvergenceWarning, match="cap of 1 sweeps"):
            w, _ = jacobi_eigh(a)
    assert w.shape == (8,)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jacobi_eigh(a)


def test_zero_and_diagonal_matrices():
    w, v = jacobi_eigh(np.zeros((3, 3)))
    assert np.all(w == 0.0) and np.allclose(v, np.eye(3))
    w, _ = jacobi_eigh(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(w, [-1.0, 2.0, 3.0])


def test_non_finite_input_is_a_value_error():
    # no shift makes such a matrix definite
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            jacobi_eigh(np.array([[1.0, bad], [bad, 0.0]]))


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


def test_symmetric_rank_and_nullspace():
    a = np.diag([1.0, 0.0, 2.0])
    rank, null = symmetric_rank_and_nullspace(a)
    assert rank == 2
    assert null.shape == (3, 1)
    assert abs(abs(null[1, 0]) - 1.0) < 1e-14


def random_pd(n, rng):
    x = rng.normal(size=(n, n))
    return x @ x.T + n * np.eye(n)


def schoenberg_form(space):
    g = space.dist[:-1, -1]
    return g[:, None] + g[None, :] - space.dist[:-1, :-1]


def test_cholesky_matches_numpy():
    rng = np.random.default_rng(11)
    for n in range(1, 65):
        a = random_pd(n, rng)
        low = cholesky(a)
        ref = np.linalg.cholesky(a)
        assert np.allclose(low, ref, rtol=0.0, atol=1e-13 * np.abs(ref).max())
        assert np.array_equal(np.triu(low, 1), np.zeros((n, n)))


def test_cholesky_refuses_indefinite_and_singular():
    rng = np.random.default_rng(12)
    for n in (2, 5, 17, 40):
        a = random_pd(n, rng)
        lowest = np.linalg.eigvalsh(a)[0]
        assert cholesky(a - 1.001 * lowest * np.eye(n)) is None
        assert cholesky(-a) is None
        assert cholesky(random_symmetric(n, rng)) is None
    assert cholesky(np.ones((3, 3))) is None
    assert cholesky(np.zeros((1, 1))) is None
    # Gram forms of spaces that are quasihypermetric but not strictly so:
    # positive semidefinite with a null vector
    circle = qhm.CompactSpaceDescriptor(kind="circle", circumference=8.0)
    for space in [qhm.make_fixture("cycle4_arclength")] + [circle.sample_space(n) for n in (4, 8, 16)]:
        k = schoenberg_form(space)
        assert np.linalg.eigvalsh(k)[0] <= 1e-12 * np.abs(k).max()
        assert cholesky(k) is None


def test_cholesky_deterministic_bitwise():
    rng = np.random.default_rng(13)
    # n = 300 is three blocks of the solves' block inverses
    for n in (7, 33, 64, 300):
        a = random_pd(n, rng)
        b = rng.normal(size=n)
        assert cholesky(a).tobytes() == cholesky(a).tobytes()
        (low, x), (low2, x2) = definite_solve(a, b), definite_solve(a, b)
        assert low.tobytes() == low2.tobytes() and x.tobytes() == x2.tobytes()


def test_cholesky_solve_residual_at_rounding_level():
    rng = np.random.default_rng(14)
    eps = np.finfo(float).eps
    for n in (1, 2, 9, 32, 64, 300):
        a = random_pd(n, rng)
        b = rng.normal(size=n)
        x = definite_solve(a, b)[1]
        assert np.linalg.norm(a @ x - b) <= 10 * n * eps * np.linalg.norm(a) * np.linalg.norm(x)
        assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-10, atol=0.0)


def test_semidefinite_solve_skips_columns_across_block_boundaries():
    """Rows of a = Y Y' that repeat earlier rows of Y are skipped on both
    sides of the kept order's block boundaries at 128 and 256."""
    rng = np.random.default_rng(15)
    n = 300
    y = rng.normal(size=(n, n)) + 2.0 * np.sqrt(n) * np.eye(n)
    dependent = [40, 127, 131, 200, 262, 299]
    for j in dependent:
        y[j] = y[j - 1] - 0.5 * y[j - 7]
    a = y @ y.T
    kept, schur, sol, z = semidefinite_solve(a, a @ rng.normal(size=n), 1e-10 * a.diagonal().max(), 1e-8)
    assert np.flatnonzero(~kept).tolist() == dependent and z is None
    positions = np.cumsum(kept)[dependent]  # kept rows before each skipped one
    assert positions.min() < SOLVE_BLOCK < positions.max() and positions.max() > 2 * SOLVE_BLOCK
    assert np.abs(schur).max() <= 1e-10 * a.diagonal().max()
    b = rng.normal(size=n)
    kept, _, sol, z = semidefinite_solve(a, b, 1e-10 * a.diagonal().max(), 1e-8)
    block = np.ix_(kept, kept)
    assert np.allclose(sol[kept], np.linalg.solve(a[block], b[kept]), rtol=1e-10, atol=0.0)
    assert np.all(sol[~kept] == 0.0) and z is not None
    assert z[~kept].tolist().count(1.0) == 1 and np.count_nonzero(z[~kept]) == 1
    assert np.linalg.norm(a @ z) <= 1e-10 * np.linalg.norm(a) * np.linalg.norm(z)


def test_one_sided_jacobi_orthogonalizes_rows():
    rng = np.random.default_rng(11)
    # odd row counts run the padded round-robin schedule
    for m, k in ((1, 1), (2, 2), (3, 5), (8, 8), (13, 13), (33, 20), (64, 64)):
        a = rng.normal(size=(m, k))
        z = one_sided_jacobi(a)
        g = z @ z.T
        scale = float(np.max(np.diag(g)))
        assert np.max(np.abs(g - np.diag(np.diag(g)))) <= 1e-13 * scale
        assert np.allclose(z.T @ z, a.T @ a, rtol=0.0, atol=1e-12 * scale)
        ref = np.linalg.eigvalsh(a @ a.T)  # the same nonzero spectrum as a'a
        assert np.allclose(np.sort(np.diag(g)), ref, rtol=0.0, atol=1e-13 * scale)
    z = one_sided_jacobi(a)
    assert np.array_equal(z, one_sided_jacobi(a))  # bit-reproducible
    assert np.array_equal(one_sided_jacobi(np.zeros((4, 3))), np.zeros((4, 3)))


def test_one_sided_jacobi_sweep_cap_warns(monkeypatch):
    a = random_symmetric(8, np.random.default_rng(7))
    with monkeypatch.context() as patch:
        patch.setattr(qhm.linalg, "MAX_SWEEPS", 1)
        with pytest.warns(ConvergenceWarning, match="cap of 1 sweeps"):
            z = one_sided_jacobi(a)
    assert z.shape == (8, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one_sided_jacobi(a)


def test_unshifted_route_is_as_accurate_as_the_shifted_one(monkeypatch):
    """On the centred kernels of Gaussian point sets, n = 16..128, the
    unshifted one-sided eigenvalues of a certified strict space are no
    farther from LAPACK's than ``jacobi_eigh``'s on the shifted factor of the
    same deflated kernel, at the worst of each size, relative to the largest,
    and within 2e-15 of it from n = 64. Rounds turned by the plain
    [[c, -s], [s, c]] product in place of the correction form drift to about
    2.5e-14 at n = 128."""
    rng = np.random.default_rng(41)
    for n, count in ((16, 3), (32, 3), (64, 2), (128, 1)):
        worst_one, worst_shifted = 0.0, 0.0
        for _ in range(count):
            space = qhm.from_euclidean(rng.normal(size=(n, 3)))
            ref = np.linalg.eigvalsh(-0.5 * projector_centred(space.dist))[:0:-1]
            one = qhm.classify.Analysis(space).kernel[0]
            with monkeypatch.context() as patch:
                patch.setattr(qhm.classify, "cholesky", lambda a: None)
                shifted = qhm.classify.Analysis(space).kernel[0]
            worst_one = max(worst_one, float(np.max(np.abs(one - ref))) / ref[0])
            worst_shifted = max(worst_shifted, float(np.max(np.abs(shifted - ref))) / ref[0])
        assert worst_one <= worst_shifted, (n, worst_one, worst_shifted)
        assert n < 64 or worst_one <= 2e-15, (n, worst_one)


# Frozen reference: one_sided_jacobi's round loop as plain sweeps, repeated
# until one rotates no pair, with x'x, y'y and x'y each by its own einsum. The
# kernel must match it bit for bit.


def _ref_rotation(d, apq):
    t = np.copysign(2.0, d) * apq / (np.abs(d) + np.hypot(d, 2.0 * apq))
    t = np.concatenate((-t, t))[:, None]
    cc = 1.0 / np.sqrt(t * t + 1.0)
    return cc, t * cc


def _ref_correct_pairs(z, p, q, cc, ss):
    # [z_p; z_q] += [[-s tau, -s], [s, -s tau]] [z_p; z_q], tau = s / (1 + c), by
    # the kernel's product on operands laid out as the kernel's: numpy's matmul
    # rounds the sum of the two terms one way or the other by layout and shape
    c, s = cc[len(p) :, 0], ss[len(p) :, 0]
    st = -s * (s / (1.0 + c))
    y = np.stack((z[p], z[q]))
    y += (np.array([[st, -s], [s, st]]).transpose(2, 0, 1) @ y.transpose(1, 0, 2)).transpose(1, 0, 2)
    z[p], z[q] = y


def _ref_rotate_rows_nearly_orthogonal(z, p, q, cc, ss):
    # the kernel's elementwise form before the batched 2x2 correction:
    # [z_p; z_q] + s [-z_q - tau z_p; z_p - tau z_q]
    pq, qp = np.concatenate((p, q)), np.concatenate((q, p))
    x, y = z[pq], z[qp]
    y -= (ss / (1.0 + cc)) * x
    y *= ss
    x += y
    z[pq] = x


def _ref_one_sided_jacobi(a, rotate=_ref_correct_pairs, max_sweeps=64, sweep_tol=1e-14):
    z = np.array(a, dtype=float)
    skip = sweep_tol * float(np.sum(z * z)) / max(len(z), 1) ** 2
    for sweep in range(max_sweeps + 1 if len(z) > 1 else 0):
        if sweep == max_sweeps:
            msg = f"one-sided Jacobi hit the cap of {max_sweeps} sweeps"
            warnings.warn(ConvergenceWarning(msg), stacklevel=2)
            break
        rotated = False
        for p, q, _ in _round_robin(len(z)):
            x, y = z[p], z[q]
            xx, yy = np.einsum("ij,ij->i", x, x), np.einsum("ij,ij->i", y, y)
            xy = np.einsum("ij,ij->i", x, y)
            active = np.abs(xy) > np.maximum(sweep_tol * np.sqrt(xx * yy), skip)
            if active.any():
                rotated = True
                cc, ss = _ref_rotation(yy[active] - xx[active], xy[active])
                rotate(z, p[active], q[active], cc, ss)
        if not rotated:
            break
    return z


def _symmetric_corpus():
    """(label, matrix) pairs for n = 1..33: random symmetric matrices, d of
    random metrics and of Euclidean points, circle-sample d (repeated
    eigenvalues and an exact zero one), centred kernels, and matrices with
    exactly zero off-diagonal entries, so that whole rounds, or some pairs of
    a round, are skipped."""
    rng = np.random.default_rng(20260)
    circle = qhm.CompactSpaceDescriptor(kind="circle", circumference=3.0)
    for n in range(1, 34):
        yield "symmetric", random_symmetric(n, rng)
        yield "random_metric", qhm.random_metric(n, seed=500 + n).dist
        euclid = qhm.from_euclidean(rng.normal(size=(n, 2)))
        yield "euclidean", euclid.dist
        yield "circle", circle.sample_space(n).dist
        yield "kernel", -0.5 * projector_centred(qhm.random_metric(n, seed=900 + n).dist)
        yield "kernel", -0.5 * projector_centred(euclid.dist)
        yield "diagonal", np.diag(rng.normal(size=n))
        sparse = random_symmetric(n, rng)
        sparse[np.add.outer(np.arange(n), np.arange(n)) % 3 == 1] = 0.0
        yield "sparse", sparse
        block = np.zeros((n, n))
        block[: n // 2, : n // 2] = random_symmetric(n // 2, rng)
        yield "block", block


def test_jacobi_eigh_eigenvalues_are_within_1e_14_sigma_of_lapack():
    """On the corpus, each eigenvalue is within 1e-14 sigma of LAPACK's,
    sigma the shift, the largest absolute row sum: the shifted factor's
    accuracy is absolute. The worst seen is about 3e-15 sigma."""
    kinds = set()
    for kind, a in _symmetric_corpus():
        kinds.add(kind)
        w, v = jacobi_eigh(a)
        sigma = float(np.abs(a).sum(axis=1).max())
        assert np.max(np.abs(w - np.linalg.eigvalsh(a))) <= 1e-14 * sigma, (kind, len(a))
        assert np.max(np.abs(v.T @ v - np.eye(len(a)))) <= 1e-13
    assert kinds == {"symmetric", "random_metric", "euclidean", "circle", "kernel", "diagonal", "sparse", "block"}
    # the corpus holds quasihypermetric d and d that is not
    verdicts = {qhm.check_quasihypermetric(qhm.random_metric(n, seed=500 + n)).holds for n in (3, 12)}
    assert verdicts == {True, False}


def _one_sided_inputs():
    rng = np.random.default_rng(20261)
    for n in range(1, 34):
        yield rng.normal(size=(n, n))
        yield rng.normal(size=(n, n + 3))  # rectangular, both ways
        yield rng.normal(size=(n, max(n - 4, 1)))  # more rows than rank
        yield rng.normal(size=(n, 1)) @ rng.normal(size=(1, n))  # rank one
        yield np.zeros((n, n))
        yield cholesky(random_pd(n, rng))


def test_one_sided_jacobi_matches_the_frozen_reference_bit_for_bit(monkeypatch):
    """Bit for bit against sweeps that repeat until one rotates nothing, so
    stopping after a sweep's worth of quiet rounds changes no decision; under
    a cap of 1 and of 2 sweeps, the warnings match too."""
    inputs = list(_one_sided_inputs())
    for a in inputs:
        assert np.array_equal(one_sided_jacobi(a), _ref_one_sided_jacobi(a))
    capped = 0
    for max_sweeps in (1, 2):
        monkeypatch.setattr(qhm.linalg, "MAX_SWEEPS", max_sweeps)
        for a in inputs[::7]:
            with warnings.catch_warnings(record=True) as got:
                warnings.simplefilter("always")
                z = one_sided_jacobi(a)
            with warnings.catch_warnings(record=True) as ref:
                warnings.simplefilter("always")
                z0 = _ref_one_sided_jacobi(a, max_sweeps=max_sweeps)
            assert np.array_equal(z, z0)
            assert [str(x.message) for x in got] == [str(x.message) for x in ref]
            capped += len(got)
    assert 0 < capped < 2 * len(inputs[::7])  # some runs hit the cap, some finish


def test_one_sided_jacobi_agrees_with_the_elementwise_update():
    """The update as elementwise passes over the rows, the kernel's form
    before the batched 2x2 correction, gives z'z and the squared row norms
    within 1e-14 of the largest."""
    for a in _one_sided_inputs():
        z, z0 = one_sided_jacobi(a), _ref_one_sided_jacobi(a, _ref_rotate_rows_nearly_orthogonal)
        gram, gram0 = z.T @ z, z0.T @ z0
        assert np.max(np.abs(gram - gram0), initial=0.0) <= 1e-14 * np.max(np.abs(gram0), initial=0.0)
        w, w0 = np.einsum("ij,ij->i", z, z), np.einsum("ij,ij->i", z0, z0)
        assert np.max(np.abs(w - w0), initial=0.0) <= 1e-14 * np.max(w0, initial=0.0)


# The README's promise: embeddings bit-for-bit across runs and BLAS thread counts.
_KERNEL_DIGESTS = """
import hashlib
import numpy as np
import qhm
rng = np.random.default_rng(47)
digests = []
for n in (16, 64, 128, 200):
    w, v = qhm.classify.Analysis(qhm.from_euclidean(rng.normal(size=(n, 3)))).kernel
    digests.append(hashlib.sha256(w.tobytes() + v.tobytes()).hexdigest())
"""


def test_kernel_is_the_same_bytes_with_two_blas_threads():
    """A fresh process with two BLAS threads makes the same ``Analysis.kernel``
    bytes at n = 16, 64, 128 and 200 as this one, with its own thread count."""
    here = {}
    exec(_KERNEL_DIGESTS, here)
    src = str(Path(qhm.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", _KERNEL_DIGESTS + "print(' '.join(digests))"],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    assert out.stdout.split() == here["digests"]
