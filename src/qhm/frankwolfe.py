"""Maximization of the energy x'qx of a distance matrix q over the probability
simplex by an exact active set.

The active set starts from the support of a given point, or else from the
diametral pair, the lowest-index pair where q is largest (energy D/2, the
lower bound for M+). The paper gives M+ = M(F) for F the support of a
maximal probability measure, so each face is solved as ``compute_m`` solves
a space, by the one elimination of its Schoenberg form at the same cuts. An
unbounded face (M(F) = inf) takes a ray step to its first zero weight; a
bounded one drops every vertex of negative weight at once, or else the face
grows by the best outside vertex until the gap criterion is met, whatever
the start. If the active set stalls first, the result says so
and carries the best point found. Ties break toward the lowest index, so runs
are fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import _cuts
from .linalg import ratio_step, semidefinite_solve
from .metric import schoenberg_form
from .tolerances import DEFAULT_TOLERANCES, Tolerances

ZERO_WEIGHT = 1e-12  # rounding of zero in an M+ weight: the drop, the shed and the warm start


@dataclass(frozen=True)
class SimplexMaxResult:
    weights: np.ndarray
    value: float
    gap: float
    iterations: int  # face solves
    converged: bool


def _face_stationary(q: np.ndarray, support: np.ndarray, t: Tolerances):
    """``(w, None)``, w the raw weights summing to 1 that solve 2 q x = nu 1 on
    one face of the simplex, or ``(None, v)``, v a ray of an unbounded face.

    With x = (1 - sum y, y), x'qx = 2 g'y - y'Ky for (K, g) Schoenberg's form
    of the face. As ``Analysis.elimination`` solves a space, one
    ``semidefinite_solve`` at ``classify._cuts`` solves K y = g, with y = 0 on
    the skipped columns. Where a skipped row's residual exceeds ``inv_tol``
    of the face, its null vector z gives v = (-sum z, z), signed so that
    g'z > 0: v'qv = 0 and q v is constant at g'z, so the energy rises
    linearly along v.
    """
    face = q[np.ix_(support, support)]
    k, g, _ = schoenberg_form(face)
    _, _, y, z = semidefinite_solve(k, g, *_cuts(g, float(face.max()), t))
    if z is not None:
        return None, np.append(-z.sum(), z) * np.sign(g @ z)
    return np.append(1.0 - y.sum(), y), None


def maximize_quadratic_on_simplex(
    q: np.ndarray, tol: Tolerances | None = None, x0: np.ndarray | None = None
) -> SimplexMaxResult:
    """Maximize ``x' q x`` over the probability simplex for a distance matrix
    ``q``, reading ``fw_gap`` (times q's diameter), ``fw_max_iter``, ``rank``
    and ``invariant`` from ``tol``.

    q must be quasihypermetric: then the energy is concave along simplex
    directions, so the gap ``max_i g_i - g.x`` of the gradient ``g = 2 q x``
    bounds the suboptimality and is the stopping criterion. Off QH nothing is
    refused and ``converged`` certifies only a KKT point. The active set
    starts from the support of ``x0`` when given, n nonnegative weights
    summing to 1 within rounding (else ``ValueError``), and else from the
    diametral pair. A face with weights below -``ZERO_WEIGHT`` (1e-12) drops
    all those vertices at once (one at least stays). An unbounded face steps
    from x's part on it, normalized, along its ray to the first zero weight.
    That point, or else the face's weights, is a candidate for x, accepted if
    it loses no objective value, and the face sheds its weights of at most
    ``ZERO_WEIGHT``; a ray step's face is solved next, and any other grows by
    the vertex of largest gradient. At most ``min(2n, fw_max_iter)`` faces
    are solved, and ``iterations`` counts them. When the active set stalls
    (the best vertex is already in the face, or the cap is reached) the
    result is the best point found, with ``converged`` False. A ``q`` that is
    not a non-empty, square, finite matrix raises ``ValueError``.
    """
    t = tol if tol is not None else DEFAULT_TOLERANCES
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1] or q.size == 0 or not np.isfinite(q).all():
        raise ValueError(f"q must be a non-empty, square, finite matrix, got shape {q.shape}")
    n = q.shape[0]
    gap_tol = t.fw_tol(float(q.max()))
    if x0 is None:
        x = np.bincount(np.unravel_index(int(np.argmax(q)), q.shape), minlength=n) / 2.0
    else:
        x = np.array(x0, dtype=float)
        # NaN fails both tests, and +inf the sum's; n additions round the sum
        rounding = 4.0 * n * np.finfo(float).eps
        if x.shape != (n,) or not (np.all(x >= 0.0) and abs(x.sum() - 1.0) <= rounding):
            raise ValueError(f"x0 must be {n} nonnegative weights summing to 1, got {x0!r}")
    support = np.flatnonzero(x > 0.0)
    faces = 0
    for faces in range(1, min(2 * n, t.fw_max_iter) + 1):
        w, ray = _face_stationary(q, support, t)
        if ray is not None:
            w = ratio_step(x[support] / x[support].sum(), ray)
        elif float(w.min()) < -ZERO_WEIGHT:
            support = support[w >= -ZERO_WEIGHT]
            continue
        candidate = np.zeros(n)
        candidate[support] = np.where(w > ZERO_WEIGHT, w, 0.0)
        candidate /= candidate.sum()
        if float(candidate @ q @ candidate) >= float(x @ q @ x):
            x = candidate
        support = support[w > ZERO_WEIGHT]
        if ray is not None:
            continue
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
