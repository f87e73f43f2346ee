"""Deterministic dense linear algebra for small symmetric problems.

Two numpy kernels without LAPACK, so results are bit-reproducible from run to
run. A Cholesky factorization, refusing a pivot at or below its cut, decides
positive definiteness. One row loop, refusing such pivots or skipping them,
solves positive definite systems and eliminates semidefinite ones (the null
vector of an inconsistent one too); it carries the right-hand side and inverts
the factor's diagonal blocks, so a solve is one product per block each way.
One-sided Jacobi (Hestenes) in the Brent-Luk round-robin order, on a Cholesky
factor L of a positive definite A = L L', gives A's eigenvalues, each to a
relative error of about eps times the condition number of A scaled to unit
diagonal, not of A itself (Demmel & Veselic 1992). It turns a round's pairs by
one batched 2x2 correction (Rutishauser) until a sweep's worth of rounds in a
row turns none. It is the one eigensolver: ``_factor_eigh`` turns a given
factor, which on a certified strictly QH space is that of the deflated centred
kernel itself, and ``jacobi_eigh`` a factor of A + sigma I, sigma a Gershgorin
bound that makes any symmetric A definite, for every other eigendecomposition,
rank and the pseudoinverse of ``lstsq_minnorm``.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np

from .errors import ConvergenceWarning


@lru_cache(maxsize=128)
def _round_robin(n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Rounds ``(p, q, [p; q])`` of disjoint pairs p < q that meet every pair
    once: seat 0 stays, the others turn one seat a round, and for odd n the
    pair with the padding index n sits the round out."""
    m = n + n % 2
    seats = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = sorted(tuple(sorted((seats[k], seats[m - 1 - k]))) for k in range(m // 2))
        p, q = np.array([pq for pq in pairs if pq[1] < n], dtype=np.intp).T.copy()
        rounds.append((p, q, np.concatenate((p, q))))
        for ix in rounds[-1]:
            ix.flags.writeable = False  # shared by every call through the cache
        seats.insert(1, seats.pop())
    return tuple(rounds)


def _rotation(d, apq):
    """``(c, s)`` of the rotations that zero a_pq in the pairs'
    [[a_pp, a_pq], [a_pq, a_qq]], with d = a_qq - a_pp."""
    # t = tan of the angle, sign(d) 2a_pq / (|d| + hypot(d, 2a_pq)) rounded the
    # same; the form with theta = d / (2 a_pq) overflows as a_pq -> 0
    t = (apq := 2.0 * apq) / (d + np.copysign(np.hypot(d, apq), d))
    c = 1.0 / np.sqrt(t * t + 1.0)
    return c, t * c


# one_sided_jacobi's cosine of two rows below which the pair is not turned,
# and the sweeps it makes before ConvergenceWarning
SWEEP_TOL = 1e-14
MAX_SWEEPS = 64


def jacobi_eigh(a):
    """Eigendecomposition of a real symmetric matrix by one-sided Jacobi on
    the Cholesky factor of a shifted copy.

    With sigma the largest absolute row sum of ``a`` times 1 + 1e-8, a + sigma I
    is positive definite by Gershgorin, and ``_factor_eigh`` of its Cholesky
    factor, less sigma, is the decomposition. So each eigenvalue is accurate
    to about eps sigma, absolutely; every caller decides relative to the
    largest one or to a tolerance. The zero matrix gives w = 0 and V = I.

    Returns
    -------
    w : ndarray
        Eigenvalues in ascending order.
    v : ndarray
        Matching orthonormal eigenvectors as columns, signed by ``_sign_columns``.
    """
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    n = len(a)
    shift = float(np.abs(a).sum(axis=1).max(initial=0.0)) * (1.0 + 1e-8)
    if not math.isfinite(shift):
        raise ValueError("expected a finite matrix")
    if shift == 0.0:
        return np.zeros(n), np.eye(n)
    return _factor_eigh(cholesky(a + shift * np.eye(n)), shift)


def _factor_eigh(low, shift=0.0):
    """The eigenpairs of low low' - shift I, eigenvalues ascending, for a lower
    factor ``low`` from ``cholesky``: ``one_sided_jacobi`` turns the rows of
    low' to z, whose squared row norms are the eigenvalues of low low' and
    whose normalized rows are its eigenvectors, signed by ``_sign_columns``.
    Unshifted, each eigenvalue is accurate relative to itself."""
    z = one_sided_jacobi(low.T)
    sq = np.einsum("ij,ij->i", z, z)
    order = np.argsort(sq, kind="stable")
    return sq[order] - shift, _sign_columns((z[order] / np.sqrt(sq[order])[:, None]).T)


def _sign_columns(v) -> np.ndarray:
    """``v``, each column negated where its first entry within a relative 1e-12
    of its largest magnitude is negative: mirror-image ties sign by position."""
    lead = np.argmax((mag := np.abs(v)) >= (1.0 - 1e-12) * mag.max(axis=0), axis=0)
    flip = v[lead, np.arange(v.shape[1])] < 0.0
    v[:, flip] = -v[:, flip]
    return v


def one_sided_jacobi(a) -> np.ndarray:
    """The rows of ``a`` rotated to mutual orthogonality by round-robin
    one-sided Jacobi (Hestenes): z = Q a with Q orthogonal, so z'z = a'a and z z'
    is diagonal. The squared row norms of z are the eigenvalues of a'a, and its
    rows, normalized, the eigenvectors, with no rotation accumulated.

    The rounds are ``_round_robin``'s. Each pair turns by the Jacobi angle
    of its Gram matrix, the one that zeroes z_p . z_q, a round's pairs by one
    batched 2x2 product in Rutishauser's correction form [z_p; z_q] +=
    [[-s tau, -s], [s, -s tau]] [z_p; z_q], tau = s / (1 + c), which keeps the
    row norms, the eigenvalues, from drifting with the rounding of c. A pair is
    skipped when the cosine of its rows is at most ``SWEEP_TOL``, or z_p . z_q
    at most ``SWEEP_TOL`` |a|_F^2 / m^2 for m rows, so that rows at rounding
    level of a rank-deficient a settle. Rounds run until a sweep's worth in a
    row rotates nothing (whole sweeps would stop with the same z), or emit
    ``ConvergenceWarning`` after ``MAX_SWEEPS`` sweeps.
    """
    z = np.array(a, dtype=float)
    if z.ndim != 2:
        raise ValueError("expected a matrix")
    rounds = _round_robin(len(z)) if len(z) > 1 else ()  # a single row is done
    skip = SWEEP_TOL * float(np.sum(z * z)) / max(len(z), 1) ** 2
    quiet = 0  # rounds in a row that rotated no pair
    for r in range(MAX_SWEEPS * len(rounds)):
        if quiet == len(rounds):
            break
        p, q, pq = rounds[r % len(rounds)]
        y = z[pq].reshape(2, len(p), -1)  # rows [p; q]; y[:, i] is pair i's [z_p; z_q]
        g = np.einsum("aij,bij->abi", y, y)  # the pairs' Gram matrices
        xx, yy, xy = g[0, 0], g[1, 1], g[0, 1]
        active = np.abs(xy) > np.maximum(SWEEP_TOL * np.sqrt(xx * yy), skip)
        if (k := np.count_nonzero(active)) == 0:
            quiet += 1
            continue
        quiet = 0
        if k < len(p):
            p, q, xx, yy, xy = p[active], q[active], xx[active], yy[active], xy[active]
            y = z[pq := np.concatenate((p, q))].reshape(2, k, -1)
        c, s = _rotation(yy - xx, xy)
        st = (ns := -s) * (s / (1.0 + c))  # -s tau
        corr = np.array([[st, ns], [s, st]]).transpose(2, 0, 1)  # k corrections, 2 x 2
        y += (corr @ y.transpose(1, 0, 2)).transpose(1, 0, 2)
        z[pq] = y.reshape(2 * k, -1)
    if quiet < len(rounds):
        msg = f"one-sided Jacobi hit the cap of {MAX_SWEEPS} sweeps"
        warnings.warn(ConvergenceWarning(msg), stacklevel=2)
    return z


# default relative level at which an eigenvalue counts as zero
RANK_REL = 1e-10


def _nonzero(w, rank_rel):
    """The mask of the eigenvalues ``w`` that count as nonzero: those of
    magnitude above ``rank_rel`` times the largest."""
    largest = float(np.max(np.abs(w))) if w.size else 0.0
    return np.abs(w) > rank_rel * largest


def eigh_pinv_solve(a, b, rank_rel: float = RANK_REL):
    """Minimum-norm least-squares solution of a symmetric system ``a x = b``.

    Solved through the eigendecomposition pseudoinverse: eigenvalues of
    magnitude at most ``rank_rel`` times the largest are treated as zero.

    Returns ``(x, residual, rank, null_basis)`` where ``null_basis`` has the
    orthonormal near-null eigenvectors as columns.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    w, v = jacobi_eigh(a)
    keep = _nonzero(w, rank_rel)
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / w[keep]
    x = v @ (inv * (v.T @ b))
    residual = float(np.linalg.norm(a @ x - b))
    return x, residual, int(np.count_nonzero(keep)), v[:, ~keep]


def cholesky(a, cut=0.0):
    """Lower Cholesky factor of a symmetric matrix, or None at the first pivot
    at most ``cut`` (``semidefinite_solve`` skips such a pivot). One numpy
    step per row of the upper factor."""
    a = np.asarray(a, dtype=float)
    up = np.zeros_like(a)
    for k in range(len(a)):
        row = a[k, k:] - up[:k, k] @ up[:k, k:]
        if not row[0] > cut:
            return None
        up[k, k:] = row / math.sqrt(row[0])
    return up.T


SOLVE_BLOCK = 128  # rows of the factor's diagonal blocks that the solves invert


def _eliminate(a, b, cut, skip):
    """``(u, c, inv, kept)``, the kept rows of the upper Cholesky factor of
    [a | b | I]: u = low' on a's columns, c = low^-1 b, inv the inverses of
    low's diagonal blocks of ``SOLVE_BLOCK`` rows, and the kept rows' mask. A
    row is one numpy step over its block's rows and one more over any earlier
    blocks' rows. A pivot at most ``cut`` gives None, or with ``skip`` leaves
    its row out, and then u's rows are whole, not only right of the diagonal."""
    n, width = len(a), min(len(a), SOLVE_BLOCK)
    up = np.zeros_like(work := np.column_stack((a, b, np.zeros((n, width)))))
    m, kept, i = up.shape[1] - width, np.zeros(n, dtype=bool), 0
    for k in range(n):
        lo, b0 = 0 if skip else k, i - i % SOLVE_BLOCK
        end = m + i - b0 + 1  # the block's inverse is lower triangular
        row = work[k, lo:end] - up[b0:i, k] @ up[b0:i, lo:end]
        if b0:
            row[: m - lo] -= up[:b0, k] @ up[:b0, lo:m]
        if not row[k - lo] > cut:
            if skip:
                continue
            return None
        row[-1] += 1.0
        up[i, lo:end] = row / math.sqrt(row[k - lo])
        kept[k], i = True, i + 1
    return up[:i, :n], up[:i, n:m].reshape((i,) + np.shape(b)[1:]), up[:i, m:], kept


def _substitute(u, inv, r, back):
    """low^-1 r, or low'^-1 r with ``back``, for square u = low' and inv from
    ``_eliminate``: per block, one product off it and one with its inverse."""
    if (m := len(u)) <= SOLVE_BLOCK:
        return (inv[:, :m].T if back else inv[:, :m]) @ r
    x = np.array(r, dtype=float)
    for b0 in sorted(range(0, m, SOLVE_BLOCK), reverse=back):
        b1 = min(b0 + SOLVE_BLOCK, m)
        off = u[b0:b1, b1:] @ x[b1:] if back else u[:b0, b0:b1].T @ x[:b0]
        block = inv[b0:b1, : b1 - b0]
        x[b0:b1] = (block.T if back else block) @ (x[b0:b1] - off)
    return x


def definite_solve(a, b, cut=0.0):
    """``(low, x)`` with ``low`` the Cholesky factor of ``a`` and ``x`` the
    solution of ``a x = b`` after one step of iterative refinement, when every
    pivot exceeds ``cut``; None otherwise. Both solves are block products."""
    if (done := _eliminate(a, b, cut, skip=False)) is None:
        return None
    u, c, inv, _ = done
    x = _substitute(u, inv, c, back=True)
    x += _substitute(u, inv, _substitute(u, inv, b - a @ x, back=False), back=True)
    return u.T, x


def semidefinite_solve(a, b, cut, level):
    """``(kept, schur, y, z)`` for a positive semidefinite ``a``, eliminated as
    ``cholesky`` factors it but skipping each column whose pivot is at most
    ``cut``, each step eliminating a column from every row: the mask of the
    kept columns (a's lowest-index column basis), the Schur complement on the
    skipped ones, y solving a[kept, kept] y = b[kept] with 0 on the skipped
    columns, and z, None unless a skipped row's residual b_j - a[j, kept] y
    exceeds ``level``; then the null vector of the worst such column j
    (z_j = 1, z_kept = -a[kept, kept]^-1 a[kept, j]), along which b'z is that
    residual. A ``b`` of several columns counts a row's largest residual. The
    elimination carries the forward solves, so y and z are back products."""
    a = np.asarray(a, dtype=float)
    u, c, inv, kept = _eliminate(a, b, cut, skip=True)
    skip, low_t = ~kept, u[:, kept]
    schur = a[np.ix_(skip, skip)] - u[:, skip].T @ u[:, skip]
    y = np.zeros(b.shape)
    y[kept] = _substitute(low_t, inv, c, back=True)
    residual = np.abs(b[skip] - a[skip] @ y)
    if residual.ndim > 1:
        residual = residual.max(axis=1)
    if not (residual > level).any():
        return kept, schur, y, None
    z = np.zeros(len(a))
    j = np.flatnonzero(skip)[int(np.argmax(residual))]
    z[j], z[kept] = 1.0, -_substitute(low_t, inv, u[:, j], back=True)
    return kept, schur, y, z


def ratio_step(x, v):
    """x + t v for the largest t >= 0 that keeps the weights ``x`` nonnegative,
    the first weight it zeroes (ties to the lowest) set to exactly 0."""
    out = np.flatnonzero(v < 0.0)
    ratios = np.maximum(x[out], 0.0) / -v[out]
    k = int(np.argmin(ratios))
    x = x + ratios[k] * v
    x[out[k]] = 0.0
    return x


def symmetric_rank_and_nullspace(a, rank_rel: float = RANK_REL):
    """Rank of a symmetric matrix and an orthonormal basis of its nullspace."""
    w, v = jacobi_eigh(np.asarray(a, dtype=float))
    keep = _nonzero(w, rank_rel)
    return int(np.count_nonzero(keep)), v[:, ~keep]


def gram_rank(a, rank_rel: float = RANK_REL) -> int:
    """Rank of a rectangular matrix, decided on the eigenvalues of its Gram
    matrix a'a: the squared row norms of a' turned by ``one_sided_jacobi``,
    with no Gram matrix formed.

    The effective singular-value cutoff is ``sqrt(rank_rel)`` relative, which
    is ample for the structural rank questions asked here; an eigenvalue of
    exactly zero never counts.
    """
    z = one_sided_jacobi(np.asarray(a, dtype=float).T)
    w = np.einsum("ij,ij->i", z, z)
    return int(np.count_nonzero(_nonzero(w, rank_rel) & (w > 0.0)))


def lstsq_minnorm(a, b, rank_rel: float = RANK_REL):
    """Minimum-norm least squares for a rectangular system via normal equations.

    Returns ``(x, residual)`` with ``residual = ||a x - b||_2``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x, _, _, _ = eigh_pinv_solve(a.T @ a, a.T @ b, rank_rel=rank_rel)
    return x, float(np.linalg.norm(a @ x - b))

