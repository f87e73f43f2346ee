"""Deterministic dense linear algebra for small symmetric problems.

Two numpy kernels without LAPACK, so results are bit-reproducible from run to
run: a Jacobi eigendecomposition in the Brent-Luk round-robin order for
eigenvalues, ranks and pseudoinverse solutions, exceptionally accurate on
these matrices (Demmel & Veselic 1992), and a Cholesky factorization that
decides positive definiteness and solves positive definite systems.
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


def _rotate_rows(m, pq, qp, cc, ss) -> None:
    # rows [p; q] of m become [c m_p - s m_q; s m_p + c m_q], in one update
    x, y = m[pq], m[qp]
    x *= cc
    y *= ss
    x += y
    m[pq] = x


def jacobi_eigh(a, sweep_tol: float = 1e-14, max_sweeps: int = 64):
    """Eigendecomposition of a real symmetric matrix by round-robin Jacobi rotations.

    A sweep is n - 1 rounds (n for odd n) of floor(n/2) disjoint rotations,
    each round applied as whole-row numpy updates: O(n) Python steps a sweep.
    Sweeps repeat until the off-diagonal Frobenius norm drops below
    ``sweep_tol`` times the norm of the input, or emit ``ConvergenceWarning``
    when ``max_sweeps`` runs out first.

    Returns
    -------
    w : ndarray
        Eigenvalues in ascending order.
    v : ndarray
        Matching orthonormal eigenvectors as columns. Each column's sign is
        normalized so its largest-magnitude entry is positive.
    """
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    n = a.shape[0]
    vt = np.eye(n)  # eigenvectors as rows, so their update is row-wise too
    scale = float(np.linalg.norm(a))
    if n > 1 and scale > 0.0:
        # rotations with |a_pq| below this move the off-norm negligibly
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
                # t = tan of the angle that zeroes a_pq; the form with
                # theta = (a_qq - a_pp) / (2 a_pq) overflows as a_pq -> 0
                d = a[q, q] - a[p, p]
                t = np.copysign(2.0, d) * apq / (np.abs(d) + np.hypot(d, 2.0 * apq))
                t = np.concatenate((-t, t))[:, None]
                cc = 1.0 / np.sqrt(t * t + 1.0)  # [c; c]
                ss = t * cc  # [-s; s]
                # a <- J' a J as two row rotations around a transpose
                _rotate_rows(a, pq, qp, cc, ss)
                np.copyto(buf, a.T)
                a, buf = buf, a
                _rotate_rows(a, pq, qp, cc, ss)
                a[pq, qp] = 0.0
                _rotate_rows(vt, pq, qp, cc, ss)
    order = np.argsort(np.diag(a), kind="stable")
    w = np.diag(a)[order]
    v = vt[order].T
    flip = v[np.argmax(np.abs(v), axis=0), np.arange(n)] < 0.0
    v[:, flip] = -v[:, flip]
    return w, v


# default relative level at which an eigenvalue counts as zero
RANK_REL = 1e-10


def eigh_pinv_solve(a, b, rank_rel: float = RANK_REL, eig=None):
    """Minimum-norm least-squares solution of a symmetric system ``a x = b``.

    Solved through the eigendecomposition pseudoinverse: eigenvalues of
    magnitude at most ``rank_rel`` times the largest are treated as zero.
    ``eig``, the ``jacobi_eigh`` pair of ``a`` if already made, saves making it.

    Returns ``(x, residual, rank, null_basis)`` where ``null_basis`` has the
    orthonormal near-null eigenvectors as columns.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    w, v = jacobi_eigh(a) if eig is None else eig
    largest = float(np.max(np.abs(w))) if w.size else 0.0
    keep = np.abs(w) > rank_rel * largest
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


def symmetric_rank_and_nullspace(a, rank_rel: float = RANK_REL, eig=None):
    """Rank of a symmetric matrix and an orthonormal basis of its nullspace
    (from ``eig``, as in ``eigh_pinv_solve``, when given)."""
    w, v = jacobi_eigh(np.asarray(a, dtype=float)) if eig is None else eig
    largest = float(np.max(np.abs(w))) if w.size else 0.0
    keep = np.abs(w) > rank_rel * largest
    return int(np.count_nonzero(keep)), v[:, ~keep]


def gram_rank(a, rank_rel: float = RANK_REL) -> int:
    """Rank of a rectangular matrix, decided on the eigenvalues of its Gram matrix.

    The effective singular-value cutoff is ``sqrt(rank_rel)`` relative, which
    is ample for the structural rank questions asked here.
    """
    a = np.asarray(a, dtype=float)
    w, _ = jacobi_eigh(a.T @ a)
    largest = float(np.max(np.abs(w))) if w.size else 0.0
    return int(np.count_nonzero(w > rank_rel * largest))


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
