"""Maximization of a quadratic over the probability simplex by an exact active set.

The active set starts from the support of a given point, or else from the
diametral pair, the lowest-index pair where q is largest (on a distance
matrix its uniform measure has energy D/2, the lower bound for M+). It solves
each face's stationarity system exactly, by Cholesky of the face's Schoenberg
form or, where it is singular, its elimination, drops every vertex of negative
weight at once, and grows the face by the best outside vertex until the gap
criterion is met. So a start that holds the optimal support and a few more
vertices mostly costs one drop, not one face per extra vertex. The gap
criterion decides the result whatever the start. If the active set stalls
first, the result says so and carries the best point found.

Ties in vertex selection break toward the lowest index, so runs are fully
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import RANK_REL, cholesky_solve, definite_solve, semidefinite_cholesky
from .metric import schoenberg_form


@dataclass(frozen=True)
class SimplexMaxResult:
    weights: np.ndarray
    value: float
    gap: float
    iterations: int  # face solves
    converged: bool


def _face_stationary(q: np.ndarray, support: np.ndarray) -> np.ndarray | None:
    """Weights solving 2 q x = nu 1, sumable to 1, on one face of the simplex.

    With c the face's last diagonal entry, x = [y; 1 - sum y] has
    x'qx = c + 2 g'y - y'Ky for (K, g) Schoenberg's form of q - c, and
    K = -B'qB. Cholesky solves K y = g when K is positive definite. Otherwise
    the semidefinite elimination of K, skipping pivots at most ``RANK_REL``
    times its largest diagonal entry, solves the kept block, with y = 0 on
    the skipped columns, as ``compute_m``'s band does. Returns the raw face
    weights (possibly negative), or None when K y = g is inconsistent: the
    skipped rows' residual exceeds 1e-9 max|q|.
    """
    face = q[np.ix_(support, support)]
    k, g, _ = schoenberg_form(face - face[-1, -1])
    if (solved := definite_solve(k, g)) is not None:
        return np.append(solved[1], 1.0 - solved[1].sum())
    kept, low, _ = semidefinite_cholesky(k, RANK_REL * float(k.diagonal().max()))
    y = np.zeros(len(k))
    y[kept] = cholesky_solve(low, g[kept])
    if np.linalg.norm(k[~kept] @ y - g[~kept]) > 1e-9 * float(np.max(np.abs(q))):
        return None
    return np.append(y, 1.0 - y.sum())


def maximize_quadratic_on_simplex(
    q: np.ndarray,
    gap_tol: float,
    max_iter: int = 100000,
    x0: np.ndarray | None = None,
) -> SimplexMaxResult:
    """Maximize ``x' q x`` over the probability simplex.

    ``q`` must be symmetric and concave along simplex directions (negative
    semidefinite on mass-zero vectors); then the gap ``max_i g_i - g.x`` of
    the gradient ``g = 2 q x`` upper-bounds the suboptimality and is the
    stopping criterion. The active set starts from the support of ``x0`` when
    given, n nonnegative weights summing to 1 within rounding (else
    ``ValueError``), and else from the diametral pair. Each face solve drops
    every vertex of weight below -1e-12 at once (the weights sum to 1, so one
    at least stays), or else adds the vertex of largest gradient; an accepted
    face sheds its vertices of weight at most 1e-12, rounding of zero, with no
    further solve.
    At most ``min(2n, max_iter)`` faces are solved, and ``iterations`` counts
    them. A face is accepted only if it does not lose objective value, so
    when the active set stalls (a face solve fails, the best vertex is
    already in the face, or the cap is reached) the result is the best point
    found, with ``converged`` False.
    """
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    if x0 is None:
        x = np.bincount(np.unravel_index(int(np.argmax(q)), q.shape), minlength=n) / 2.0
    else:
        x = np.array(x0, dtype=float)
        # NaN fails both tests, and +inf the sum's
        if x.shape != (n,) or not (
            np.all(x >= 0.0) and abs(x.sum() - 1.0) <= 4.0 * n * np.finfo(float).eps
        ):
            raise ValueError(f"x0 must be {n} nonnegative weights summing to 1, got {x0!r}")
    support = np.flatnonzero(x > 0.0)
    faces = 0
    for faces in range(1, min(2 * n, max_iter) + 1):
        w = _face_stationary(q, support)
        if w is None:
            break
        if float(w.min()) < -1e-12:
            support = support[w >= -1e-12]
            continue
        candidate = np.zeros(n)
        candidate[support] = np.where(w > 1e-12, w, 0.0)
        candidate /= candidate.sum()
        if float(candidate @ q @ candidate) >= float(x @ q @ x):
            x, support = candidate, support[w > 1e-12]
        g = 2.0 * (q @ x)
        if float(g.max()) - float(g @ x) <= gap_tol:
            break
        j = int(np.argmax(g))
        if j in support:
            break
        support = np.sort(np.append(support, j))
    g = 2.0 * (q @ x)
    gap = float(g.max()) - float(g @ x)
    return SimplexMaxResult(x, float(x @ q @ x), gap, faces, gap <= gap_tol)
