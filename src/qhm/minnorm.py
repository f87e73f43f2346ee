"""Minimum-norm point in the convex hull of a finite point set (Wolfe's method).

Maintains a "corral": an affinely independent subset of the input points
whose affine minimizer has positive hull coordinates. Each major cycle adds
the vertex most violating the optimality condition  x.p_j >= |x|^2  and the
minor cycle walks back toward the previous iterate until the new affine
minimizer is again a proper convex combination. Terminates after finitely
many corrals in exact arithmetic; a generous iteration cap guards the
floating-point version.

The affine subproblem min |P λ| s.t. sum λ = 1 is solved on the corral's
differences q_i = p_i - p_last: affine independence makes their Gram matrix
Q Q' (half the corral's Schoenberg form) positive definite. One
``semidefinite_solve``, as for ``compute_m`` and each M+ face, solves
(Q Q') μ = -Q p_last and λ = (μ, 1 - sum μ), skipping each pivot at most
``RANK_REL`` times the largest diagonal entry (a nearly dependent row). A
skipped column's null vector is an affine dependency of the corral, along
which every weight vector gives the same point; the weights are moved along it
(Caratheodory) until a point other than the newest has weight zero, so that
the minor cycle drops that point and the corral is independent again.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .linalg import RANK_REL, ratio_step, semidefinite_solve
from .tolerances import DEFAULT_TOLERANCES, Tolerances


@dataclass(frozen=True)
class MinNormResult:
    point: np.ndarray  # the nearest point of the hull to the origin
    weights: np.ndarray  # simplex weights over the input points producing it
    distance: float
    iterations: int
    converged: bool


def _affine_minimizer(pts: np.ndarray) -> np.ndarray:
    diff = pts[:-1] - pts[-1]
    qq = diff @ diff.T
    rhs = np.column_stack((-(diff @ pts[-1]), np.ones(len(qq))))
    # a null vector z of qq is the dependency alpha = (z, -sum z), and sum z is
    # the residual of qq mu = 1 on z's column: the ones column picks the
    # dependency of largest weight on the newest point
    _, _, mu, z = semidefinite_solve(qq, rhs, RANK_REL * float(qq.diagonal().max(initial=0.0)), 0.0)
    lam = np.append(mu[:, 0], 1.0 - mu[:, 0].sum())
    if z is None or abs(z.sum()) <= RANK_REL * float(np.abs(z).max()):
        return lam
    # from the weights with the newest point at zero, the outgoing point is the
    # first whose weight reaches zero as the newest one's grows
    alpha = np.append(z, -z.sum()) / -z.sum()
    return lam if np.all(alpha >= 0.0) else ratio_step(lam - lam[-1] * alpha, alpha)


def min_norm_point_in_hull(points, tol: Tolerances | None = None, start=None) -> MinNormResult:
    """Nearest point of conv{rows of ``points``} to the origin.

    ``minnorm`` of the record ``tol`` is both the optimality slack (relative
    to the squared point scale, and at least 8 eps) and the weight cleanup
    inside corral updates. ``start``, a collection of point indices, is the
    first corral when its affine minimizer has every weight above
    ``minnorm``; the weights are that minimizer's, so any start is a valid
    corral or is not used. Otherwise the first corral is the input point
    nearest the origin. All ties break toward the lowest index, making the
    run deterministic, and only the optimality test ends a run as converged,
    whatever its start, within 16 n^2 + 64 major cycles. No points, a point
    that is not finite, or a start index outside [0, n) raises
    ``ValueError``, and a start index that is not an integer ``TypeError``.
    """
    t = tol if tol is not None else DEFAULT_TOLERANCES
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("expected an (n, k) array of points")
    n = pts.shape[0]
    if n == 0 or not np.all(np.isfinite(pts)):
        raise ValueError("expected one or more points, all of them finite")
    try:
        corral = sorted({operator.index(i) for i in start}) if start is not None else []
    except TypeError:
        raise TypeError(f"start must hold integer indices, got {start!r}") from None
    if corral and (corral[0] < 0 or corral[-1] >= n):
        raise ValueError(f"start indices must lie in [0, {n}), got {list(start)!r}")

    # work on unit-scale points so the affine subproblem's Gram block and its
    # constraint row stay comparable and all tolerances are scale-free; the
    # answer is rescaled at the end. A zero-dimensional hull, or one of points
    # at the origin only, is the origin
    unit = float(np.max(np.abs(pts), initial=0.0))
    if unit == 0.0:
        return MinNormResult(np.zeros(pts.shape[1]), np.eye(n)[0], 0.0, 0, True)
    pts = pts / unit

    norms = np.einsum("ij,ij->i", pts, pts)
    # floored at a few ulps of the point scale: at minnorm = 0 a corral whose
    # point is at rounding level would fail the test forever
    stop_slack = max(t.minnorm, 8.0 * np.finfo(float).eps) * max(float(np.max(norms)), 1.0)

    idx, lam = [int(np.argmin(norms))], np.array([1.0])
    if corral:
        mu = _affine_minimizer(pts[corral])
        if np.all(mu > t.minnorm):
            idx, lam = corral, mu
    x = lam @ pts[idx]
    it, converged = 0, False
    for it in range(1, 16 * n * n + 64 + 1):
        scores = pts @ x
        j = int(np.argmin(scores))
        if scores[j] >= float(x @ x) - stop_slack:
            converged = True
            break
        if j in idx:
            # numerically stuck: the best vertex is already in the corral,
            # and it has just failed the optimality test
            break
        idx.append(j)
        lam = np.append(lam, 0.0)
        while True:
            mu = _affine_minimizer(pts[idx])
            if np.all(mu > t.minnorm):
                lam = mu
                break
            shrink = np.flatnonzero(mu <= t.minnorm)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = lam[shrink] / (lam[shrink] - mu[shrink])
            theta = float(np.min(ratios[np.isfinite(ratios)], initial=1.0))
            theta = min(max(theta, 0.0), 1.0)
            lam = (1.0 - theta) * lam + theta * mu
            keep = lam > t.minnorm
            if keep.all():
                # keep at least the touched coordinate out to avoid stalling
                keep[shrink[0]] = False
            idx = [i for i, k in zip(idx, keep) if k]
            lam = lam[keep]
            lam /= lam.sum()
        x = lam @ pts[idx]

    weights = np.zeros(n)
    weights[idx] = lam
    x = unit * x
    return MinNormResult(x, weights, float(np.linalg.norm(x)), it, converged)
