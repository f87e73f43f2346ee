"""Maximization of a quadratic over the probability simplex by an exact active set.

The active set starts from the support of a given point, or else from the
diametral pair, the lowest-index pair where q is largest (on a distance
matrix its uniform measure has energy D/2, the lower bound for M+). It solves
each face's stationarity system exactly, by Cholesky of the face's Schoenberg
form, drops every vertex of negative weight at once, and grows the face by the
best outside vertex until the gap criterion is met. So a start that holds the
optimal support and a few more vertices mostly costs one drop, not one face
per extra vertex. The gap criterion decides the result whatever the start. If
the active set stalls first, the result says so and carries the best point
found.

Ties in vertex selection break toward the lowest index, so runs are fully
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import definite_solve, eigh_pinv_solve
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
    K = -B'qB. Cholesky solves K y = g when K is positive definite; otherwise
    the bordered system, its Gram block normalized so the constraint row is
    not drowned at large distance scales, goes through the eigendecomposition
    pseudoinverse. Returns the raw face weights (possibly negative), or None
    when the bordered system is inconsistent.
    """
    face = q[np.ix_(support, support)]
    k, g, _ = schoenberg_form(face - face[-1, -1])
    if (solved := definite_solve(k, g)) is not None:
        return np.append(solved[1], 1.0 - solved[1].sum())
    m = support.size
    scale = float(np.max(np.abs(q))) if q.size else 0.0
    system = np.zeros((m + 1, m + 1))
    system[:m, :m] = 2.0 * face / max(scale, 1e-300)
    system[:m, m] = 1.0
    system[m, :m] = 1.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    sol, residual, _, _ = eigh_pinv_solve(system, rhs)
    if not (residual <= 1e-9 and abs(sol[:m].sum() - 1.0) <= 1e-9):
        return None
    return sol[:m]


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
    given, a probability vector, and else from the diametral pair. Each face
    solve drops every vertex of weight below -1e-12 at once (the weights sum
    to 1, so one at least stays), or else adds the vertex of largest gradient.
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
        candidate[support] = np.maximum(w, 0.0)
        candidate /= candidate.sum()
        if float(candidate @ q @ candidate) >= float(x @ q @ x):
            x = candidate
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
