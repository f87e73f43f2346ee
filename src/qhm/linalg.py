"""Deterministic dense linear algebra for small symmetric problems.

Three numpy kernels without LAPACK, so results are bit-reproducible from run
to run. A Jacobi eigendecomposition in the Brent-Luk round-robin order gives
eigenvalues, ranks and pseudoinverse solutions, and is exceptionally accurate
on these matrices (Demmel & Veselic 1992). A Cholesky factorization decides
positive definiteness and solves positive definite systems. One-sided Jacobi
(Hestenes) on a Cholesky factor L of a positive definite A = L L' gives A's
eigenvalues, each to a relative error of about eps times the condition number
of A scaled to unit diagonal, not of A itself (Demmel & Veselic). Turning a
round's pairs by one batched 2x2 correction (Rutishauser) until a sweep's worth
of rounds in a row turns none, it embeds every certified strictly QH space; the
two-sided kernel does every other decomposition, on one array [A | V'] of A
and its eigenvector rows that holds A or A' in turn, never copying a transpose.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np

from .errors import ConvergenceWarning


@lru_cache(maxsize=128)
def _round_robin(n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Rounds ``(p, q, [p; q], [q; p])`` of disjoint pairs p < q that meet every
    pair once: seat 0 stays, the others turn one seat a round, and for odd n
    the pair with the padding index n sits the round out."""
    m = n + n % 2
    seats = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = sorted(tuple(sorted((seats[k], seats[m - 1 - k]))) for k in range(m // 2))
        p, q = np.array([pq for pq in pairs if pq[1] < n], dtype=np.intp).T.copy()
        rounds.append((p, q, np.concatenate((p, q)), np.concatenate((q, p))))
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


# the Jacobi kernels' relative off-diagonal size below which a rotation is
# skipped, and the sweeps they make before ConvergenceWarning
SWEEP_TOL = 1e-14
MAX_SWEEPS = 64


def jacobi_eigh(a):
    """Eigendecomposition of a real symmetric matrix by round-robin Jacobi rotations.

    A sweep is n - 1 rounds (n for odd n) of floor(n/2) disjoint rotations J,
    each round applied as whole-row numpy updates: O(n) Python steps a sweep.
    One update of [A | V'] turns A's rows and the eigenvector rows V'; the
    same update of the view A' turns A's columns. Rows go first on every
    other rotating round, so J'AJ is held as itself or as its transpose in
    turn, bit for bit as two row updates around a transpose copy make it.
    Sweeps repeat until the off-diagonal Frobenius norm drops below
    ``SWEEP_TOL`` times the norm of the input, or emit ``ConvergenceWarning``
    when ``MAX_SWEEPS`` runs out first.

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
    n = a.shape[0]
    av_vt = np.hstack((a, np.eye(n)))  # [A | V'], eigenvectors as rows
    av = av_vt[:, :n]
    flipped = False  # av holds A' rather than A
    scale = float(np.linalg.norm(a))
    if n > 1 and scale > 0.0:
        # rotations with |a_pq| below this move the off-norm negligibly
        skip = SWEEP_TOL * scale / (n * n)
        for sweep in range(MAX_SWEEPS + 1):
            off = math.sqrt(2.0 * float(np.sum(np.triu(a, 1) ** 2)))
            if off <= SWEEP_TOL * scale:
                break
            if sweep == MAX_SWEEPS:
                msg = f"Jacobi hit the cap of {MAX_SWEEPS} sweeps (off-norm {off:.3e})"
                warnings.warn(ConvergenceWarning(msg), stacklevel=2)
                break
            for p, q, pq, qp in _round_robin(n):
                apq = av[q, p] if flipped else av[p, q]
                active = np.abs(apq) > skip
                if (k := np.count_nonzero(active)) < len(p):
                    if k == 0:
                        continue
                    p, q, apq = p[active], q[active], apq[active]
                    pq, qp = np.concatenate((p, q)), np.concatenate((q, p))
                c, s = _rotation(av[q, q] - av[p, p], apq)
                cc, ss = np.concatenate((c, c))[:, None], np.concatenate((-s, s))[:, None]
                # A <- J'AJ: rows [p; q] to [c m_p - s m_q; s m_p + c m_q], first of the
                # view that holds A, then of its transpose, av's on [A | V'] to turn V' too
                for m in (av.T, av_vt) if flipped else (av_vt, av.T):
                    x, y = m[pq], m[qp]
                    x *= cc
                    y *= ss
                    x += y
                    m[pq] = x
                av[pq, qp] = 0.0
                flipped = not flipped
            # A, in the input's memory order, fixes the order of the off-norm's sum
            np.copyto(a, av.T if flipped else av)
    order = np.argsort(np.diag(av), kind="stable")
    return np.diag(av)[order], _sign_columns(av_vt[order, n:].T)


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

    The rounds are ``jacobi_eigh``'s. Each pair turns by the angle that zeroes
    z_p . z_q, ``jacobi_eigh``'s on the pair's Gram matrix, a round's pairs by
    one batched 2x2 product in Rutishauser's correction form [z_p; z_q] +=
    [[-s tau, -s], [s, -s tau]] [z_p; z_q], tau = s / (1 + c), which keeps the
    row norms, the eigenvalues, from drifting with the rounding of c. A pair is
    skipped when the cosine of its rows is at most ``SWEEP_TOL``, or z_p . z_q
    at most ``SWEEP_TOL`` |a|_F^2 / m^2 for m rows (``jacobi_eigh``'s skip on
    z z', so that rows at rounding level of a rank-deficient a settle). Rounds
    run until a sweep's worth in a row rotates nothing (whole sweeps would stop
    with the same z), or emit ``ConvergenceWarning`` after ``MAX_SWEEPS`` sweeps.
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
        p, q, pq, _ = rounds[r % len(rounds)]
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


def cholesky(a):
    """Lower Cholesky factor of a symmetric matrix, or None at the first pivot
    that is not positive. One numpy step per row of the upper factor."""
    a = np.asarray(a, dtype=float)
    up = np.zeros_like(a)
    for k in range(len(a)):
        row = a[k, k:] - up[:k, k] @ up[:k, k:]
        if not row[0] > 0.0:
            return None
        up[k, k:] = row / math.sqrt(row[0])
    return up.T


def semidefinite_cholesky(a, cut):
    """``cholesky`` skipping each column whose pivot is at most ``cut``:
    ``(kept, low, schur)``, the mask of the columns kept, the lower factor of
    a[kept, kept] and its Schur complement on the skipped columns, each step
    eliminating a column from every row. On a positive semidefinite matrix
    the kept columns are its lowest-index column basis."""
    a = np.asarray(a, dtype=float)
    up = np.zeros_like(a)
    kept = np.zeros(len(a), dtype=bool)
    for k in range(len(a)):
        row = a[k] - up[:k, k] @ up[:k]
        if row[k] > cut:
            up[k] = row / math.sqrt(row[k])
            kept[k] = True
    u, skip = up[kept], ~kept
    return kept, np.triu(u[:, kept]).T, a[np.ix_(skip, skip)] - u[:, skip].T @ u[:, skip]


def cholesky_solve(low, b) -> np.ndarray:
    """Solve ``(low low') x = b`` for a lower factor from ``cholesky``."""
    x = np.array(b, dtype=float)
    for i in range(len(x)):  # forward substitution, low z = b
        x[i] = (x[i] - low[i, :i] @ x[:i]) / low[i, i]
    for i in reversed(range(len(x))):  # back substitution, low' x = z
        x[i] = (x[i] - low[i + 1 :, i] @ x[i + 1 :]) / low[i, i]
    return x


def definite_solve(a, b, shift=None):
    """``(low, x)`` with ``low`` the Cholesky factor of ``a`` and ``x`` the
    solution of ``a x = b`` after one step of iterative refinement, when
    ``a - shift`` (``a`` when no shift is given) is positive definite; None
    otherwise."""
    if (shift is not None and cholesky(a - shift) is None) or (low := cholesky(a)) is None:
        return None
    x = cholesky_solve(low, b)
    x += cholesky_solve(low, b - a @ x)
    return low, x


def symmetric_rank_and_nullspace(a, rank_rel: float = RANK_REL):
    """Rank of a symmetric matrix and an orthonormal basis of its nullspace."""
    w, v = jacobi_eigh(np.asarray(a, dtype=float))
    keep = _nonzero(w, rank_rel)
    return int(np.count_nonzero(keep)), v[:, ~keep]


def gram_rank(a, rank_rel: float = RANK_REL) -> int:
    """Rank of a rectangular matrix, decided on the eigenvalues of its Gram matrix.

    The effective singular-value cutoff is ``sqrt(rank_rel)`` relative, which
    is ample for the structural rank questions asked here; a negative
    eigenvalue, which only rounding makes, never counts.
    """
    a = np.asarray(a, dtype=float)
    w, _ = jacobi_eigh(a.T @ a)
    return int(np.count_nonzero(_nonzero(w, rank_rel) & (w > 0.0)))


def lstsq_minnorm(a, b, rank_rel: float = RANK_REL):
    """Minimum-norm least squares for a rectangular system via normal equations.

    Returns ``(x, residual)`` with ``residual = ||a x - b||_2``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x, _, _, _ = eigh_pinv_solve(a.T @ a, a.T @ b, rank_rel=rank_rel)
    return x, float(np.linalg.norm(a @ x - b))


def double_center(a) -> np.ndarray:
    """Conjugate a symmetric matrix by the centering projector ``I - J/n``."""
    a = np.asarray(a, dtype=float)
    row = a.mean(axis=0)
    return a - row[None, :] - row[:, None] + row.mean()
