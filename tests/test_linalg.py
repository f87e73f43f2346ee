"""The Jacobi engine against numpy's LAPACK-backed reference."""

import math
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
    cholesky,
    cholesky_solve,
    double_center,
    eigh_pinv_solve,
    gram_rank,
    jacobi_eigh,
    lstsq_minnorm,
    one_sided_jacobi,
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


def test_tiny_off_diagonal_rotates_without_overflow(monkeypatch):
    # the tiny-angle regime: theta = (a_qq - a_pp) / (2 a_pq) is 5e169 and 1e308, and
    # |theta| + hypot(theta, 1) overflows at the second; SWEEP_TOL = 0 keeps the rotation
    monkeypatch.setattr(qhm.linalg, "SWEEP_TOL", 0.0)
    for a in ([[0.0, 1e-200], [1e-200, 1e-30]], [[0.0, 5e-159], [5e-159, 1e150]]):
        a = np.array(a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, v = jacobi_eigh(a)
        assert np.allclose(w, np.linalg.eigvalsh(a), rtol=1e-15, atol=1e-300)
        assert w[1] == a[1, 1] and v[0, 0] == 1.0 and v[1, 1] == 1.0
        assert abs(v[1, 0]) == pytest.approx(a[0, 1] / a[1, 1])


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
    for n in (7, 33, 64):
        a = random_pd(n, rng)
        b = rng.normal(size=n)
        assert cholesky(a).tobytes() == cholesky(a).tobytes()
        low = cholesky(a)
        assert cholesky_solve(low, b).tobytes() == cholesky_solve(low, b).tobytes()


def test_cholesky_solve_residual_at_rounding_level():
    rng = np.random.default_rng(14)
    eps = np.finfo(float).eps
    for n in (1, 2, 9, 32, 64):
        a = random_pd(n, rng)
        b = rng.normal(size=n)
        x = cholesky_solve(cholesky(a), b)
        assert np.linalg.norm(a @ x - b) <= 10 * n * eps * np.linalg.norm(a) * np.linalg.norm(x)
        assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-10, atol=0.0)


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


def test_one_sided_route_is_as_accurate_as_two_sided_jacobi():
    """On the centred kernels of Gaussian point sets, n = 16..128, the
    embedding's one-sided eigenvalues are no farther from LAPACK's than the
    two-sided kernel's, at the worst of each size, relative to the largest,
    and within 2e-15 of it from n = 64. Rounds turned by the plain
    [[c, -s], [s, c]] product in place of the correction form drift to about
    2.5e-14 at n = 128."""
    rng = np.random.default_rng(41)
    for n, count in ((16, 3), (32, 3), (64, 2), (128, 1)):
        worst_one, worst_two = 0.0, 0.0
        for _ in range(count):
            space = qhm.from_euclidean(rng.normal(size=(n, 3)))
            ref = np.linalg.eigvalsh(-0.5 * double_center(space.dist))[::-1]
            a = qhm.classify.Analysis(space)
            one = a.kernel_coords[0]
            two = a.kernel_eig[0]
            worst_one = max(worst_one, float(np.max(np.abs(one - ref))) / ref[0])
            worst_two = max(worst_two, float(np.max(np.abs(two - ref))) / ref[0])
        assert worst_one <= worst_two, (n, worst_one, worst_two)
        assert n < 64 or worst_one <= 2e-15, (n, worst_one)


# Frozen references: the round loops of jacobi_eigh and one_sided_jacobi as
# plain sweeps. jacobi_eigh's is its loop before [A | V'] and the alternating
# orientation, with a transpose copy between two row rotations and each row
# pair gathered twice. one_sided_jacobi's repeats whole sweeps until one
# rotates no pair, with x'x, y'y and x'y each by its own einsum. The kernels
# must match them bit for bit.


def _ref_rotate_rows(m, pq, qp, cc, ss):
    x, y = m[pq], m[qp]
    x *= cc
    y *= ss
    x += y
    m[pq] = x


def _ref_rotation(d, apq):
    t = np.copysign(2.0, d) * apq / (np.abs(d) + np.hypot(d, 2.0 * apq))
    t = np.concatenate((-t, t))[:, None]
    cc = 1.0 / np.sqrt(t * t + 1.0)
    return cc, t * cc


def _ref_jacobi_eigh(a, sweep_tol=1e-14, max_sweeps=64):
    a = np.array(a, dtype=float)
    n = a.shape[0]
    vt = np.eye(n)
    scale = float(np.linalg.norm(a))
    if n > 1 and scale > 0.0:
        skip = sweep_tol * scale / (n * n)
        buf = np.empty_like(a)
        for sweep in range(max_sweeps + 1):
            off = math.sqrt(2.0 * float(np.sum(np.triu(a, 1) ** 2)))
            if off <= sweep_tol * scale:
                break
            if sweep == max_sweeps:
                msg = f"Jacobi hit the cap of {max_sweeps} sweeps (off-norm {off:.3e})"
                warnings.warn(ConvergenceWarning(msg), stacklevel=2)
                break
            for p, q, pq, qp in _round_robin(n):
                apq = a[p, q]
                active = np.abs(apq) > skip
                if not active.all():
                    if not active.any():
                        continue
                    p, q, apq = p[active], q[active], apq[active]
                    pq, qp = np.concatenate((p, q)), np.concatenate((q, p))
                cc, ss = _ref_rotation(a[q, q] - a[p, p], apq)
                _ref_rotate_rows(a, pq, qp, cc, ss)
                np.copyto(buf, a.T)
                a, buf = buf, a
                _ref_rotate_rows(a, pq, qp, cc, ss)
                a[pq, qp] = 0.0
                _ref_rotate_rows(vt, pq, qp, cc, ss)
    order = np.argsort(np.diag(a), kind="stable")
    w = np.diag(a)[order]
    v = vt[order].T
    for j in range(n):  # the first entry within 1e-12 of the largest magnitude is positive
        mag = np.abs(v[:, j])
        if v[np.flatnonzero(mag >= (1.0 - 1e-12) * mag.max())[0], j] < 0.0:
            v[:, j] = -v[:, j]
    return w, v


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
        for p, q, _, _ in _round_robin(len(z)):
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
        yield "kernel", -0.5 * double_center(qhm.random_metric(n, seed=900 + n).dist)
        yield "kernel", -0.5 * double_center(euclid.dist)
        yield "diagonal", np.diag(rng.normal(size=n))
        sparse = random_symmetric(n, rng)
        sparse[np.add.outer(np.arange(n), np.arange(n)) % 3 == 1] = 0.0
        yield "sparse", sparse
        block = np.zeros((n, n))
        block[: n // 2, : n // 2] = random_symmetric(n // 2, rng)
        yield "block", block


def _assert_same_eigh(a, **kw):
    """``jacobi_eigh`` against the reference, bit for bit and warning for
    warning, with ``SWEEP_TOL`` and ``MAX_SWEEPS`` set to the reference's
    ``sweep_tol`` and ``max_sweeps`` in ``kw``."""
    with pytest.MonkeyPatch.context() as patch:
        for key, value in kw.items():
            patch.setattr(qhm.linalg, key.upper(), value)
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            w, v = jacobi_eigh(a)
    with warnings.catch_warnings(record=True) as ref:
        warnings.simplefilter("always")
        w0, v0 = _ref_jacobi_eigh(a, **kw)
    assert np.array_equal(w, w0) and np.array_equal(v, v0)
    assert [str(x.message) for x in got] == [str(x.message) for x in ref]
    return len(got)


def test_jacobi_eigh_matches_the_frozen_reference_bit_for_bit():
    kinds, capped = set(), 0
    for kind, a in _symmetric_corpus():
        kinds.add(kind)
        _assert_same_eigh(a)
        _assert_same_eigh(np.asfortranarray(a))
        if len(a) in (2, 7, 16, 33):
            _assert_same_eigh(a, sweep_tol=0.0)
            capped += _assert_same_eigh(a, max_sweeps=1)
    assert capped >= 20  # the cap and its message, compared above
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
_KERNEL_COORDS_DIGESTS = """
import hashlib
import numpy as np
import qhm
rng = np.random.default_rng(47)
digests = []
for n in (16, 64, 128, 200):
    w, y = qhm.classify.Analysis(qhm.from_euclidean(rng.normal(size=(n, 3)))).kernel_coords
    digests.append(hashlib.sha256(w.tobytes() + y.tobytes()).hexdigest())
"""


def test_kernel_coords_are_the_same_bytes_with_two_blas_threads():
    """A fresh process with two BLAS threads makes the same ``kernel_coords``
    bytes at n = 16, 64, 128 and 200 as this one, with its own thread count."""
    here = {}
    exec(_KERNEL_COORDS_DIGESTS, here)
    src = str(Path(qhm.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", _KERNEL_COORDS_DIGESTS + "print(' '.join(digests))"],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    assert out.stdout.split() == here["digests"]
