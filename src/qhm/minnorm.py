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
Q Q' positive definite, so a Cholesky factorization solves (Q Q') μ = -Q p_last
and λ = (μ, 1 - sum μ). Only when Q Q' is singular or within ``RANK_REL`` of
its trace of being so (nearly affinely dependent rows, where an unguarded
factorization would accept a tiny pivot) is the symmetric bordered system
[[P P', 1], [1', 0]] solved, by the deterministic eigendecomposition
pseudoinverse. Its near-null vector is then an affine dependency of the
corral, along which every weight vector gives the same point; the weights are
moved along it (Caratheodory) until a point other than the newest has weight
zero, so that the minor cycle drops that point and the corral is independent
again. The pseudoinverse's own weights would keep the dependent corral, whose
point misses the newest direction, and the next major cycle would pick a
vertex already in it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import RANK_REL, definite_solve, eigh_pinv_solve


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
    floor = RANK_REL * np.trace(qq) * np.eye(len(qq))
    if (solved := definite_solve(qq, -(diff @ pts[-1]), floor)) is not None:
        return np.append(solved[1], 1.0 - solved[1].sum())
    m = pts.shape[0]
    gram = pts @ pts.T
    system = np.zeros((m + 1, m + 1))
    system[:m, :m] = gram
    system[:m, m] = 1.0
    system[m, :m] = 1.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    sol, _, _, null = eigh_pinv_solve(system, rhs)
    lam = sol[:m]
    if null.shape[1] == 0:
        return lam
    # an affine dependency through the newest point, scaled to weight 1 there:
    # from the weights with the newest point at zero, the outgoing point is the
    # first whose weight reaches zero as the newest one's grows
    alpha = null[:m, int(np.argmax(np.abs(null[m - 1])))]
    out = np.flatnonzero(alpha[:-1] * alpha[-1] < 0.0)
    if abs(alpha[-1]) <= RANK_REL * float(np.max(np.abs(alpha))) or out.size == 0:
        return lam
    alpha = alpha / alpha[-1]
    lam = lam - lam[-1] * alpha
    ratios = np.maximum(lam[out], 0.0) / -alpha[out]
    k = int(np.argmin(ratios))
    lam += ratios[k] * alpha
    lam[out[k]] = 0.0
    return lam


def min_norm_point_in_hull(
    points, tol: float = 1e-12, max_iter: int | None = None, start=None
) -> MinNormResult:
    """Nearest point of conv{rows of ``points``} to the origin.

    ``tol`` controls both the optimality slack (relative to the squared point
    scale, and at least 8 eps) and the weight cleanup inside corral updates.
    ``start``, a collection of point indices, is the first corral when its
    affine minimizer has every weight above ``tol``; the weights are that
    minimizer's, so any start is a valid corral or is not used. Otherwise the
    first corral is the input point nearest the origin. All ties break toward
    the lowest index, making the run deterministic, and only the optimality
    test ends a run as converged, whatever its start.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("expected an (n, k) array of points")
    n = pts.shape[0]
    if pts.shape[1] == 0:
        # zero-dimensional hull: everything sits at the origin
        w = np.zeros(n)
        w[0] = 1.0
        return MinNormResult(np.zeros(0), w, 0.0, 0, True)
    if max_iter is None:
        max_iter = 16 * n * n + 64

    # work on unit-scale points so the affine subproblem's Gram block and its
    # constraint row stay comparable and all tolerances are scale-free; the
    # answer is rescaled at the end
    unit = float(np.max(np.abs(pts)))
    if unit == 0.0:
        return MinNormResult(np.zeros(pts.shape[1]), np.eye(n)[0], 0.0, 0, True)
    pts = pts / unit

    norms = np.einsum("ij,ij->i", pts, pts)
    # floored at a few ulps of the point scale: at tol = 0 a corral whose
    # point is at rounding level would fail the test forever
    stop_slack = max(tol, 8.0 * np.finfo(float).eps) * max(float(np.max(norms)), 1.0)

    idx, lam = [int(np.argmin(norms))], np.array([1.0])
    if start is not None and len(start) > 0:
        corral = sorted({int(i) for i in start})
        mu = _affine_minimizer(pts[corral])
        if np.all(mu > tol):
            idx, lam = corral, mu
    x = lam @ pts[idx]
    it = 0
    converged = False
    for it in range(1, max_iter + 1):
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
            if np.all(mu > tol):
                lam = mu
                break
            shrink = np.flatnonzero(mu <= tol)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = lam[shrink] / (lam[shrink] - mu[shrink])
            theta = float(np.min(ratios[np.isfinite(ratios)], initial=1.0))
            theta = min(max(theta, 0.0), 1.0)
            lam = (1.0 - theta) * lam + theta * mu
            keep = lam > tol
            if keep.all():
                # keep at least the touched coordinate out to avoid stalling
                keep[shrink[0]] = False
            idx = [i for i, k in zip(idx, keep) if k]
            lam = lam[keep]
            lam /= lam.sum()
        x = lam @ pts[idx]

    weights = np.zeros(n)
    for i, l in zip(idx, lam):
        weights[i] = l
    x = unit * x
    return MinNormResult(x, weights, float(np.linalg.norm(x)), it, converged)
