"""Schoenberg embeddings: realizing (X, sqrt(d)) as points in Euclidean space.

A finite space is quasihypermetric exactly when the doubly centred kernel
G = -1/2 P d P is positive semidefinite; its spectral square root then gives
coordinates whose squared Euclidean distances reproduce d, with the centroid
at the origin and the dimension equal to the rank of G. On such an embedding
the energy of a mass-1 weight vector w is  2 r^2 - 2 |sum_i w_i y_i - z|^2
whenever the points lie on a sphere (centre z, radius r), which ties the
sphere data to the energy constants: M = 2 r^2 and M+ = 2 (r^2 - s^2), with
s the distance from the centre to the convex hull of the points.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .classify import Analysis, _centred_verdicts
from .errors import ContradictionError, ConvergenceWarning, NotQuasihypermetricError, PreconditionError
from .linalg import RANK_REL, lstsq_minnorm
from .metric import MetricSpace
from .minnorm import min_norm_point_in_hull
from .tolerances import DEFAULT_TOLERANCES, Tolerances
from . import mconstant


@dataclass(frozen=True)
class Sphere:
    centre: np.ndarray
    radius: float
    residual: float  # relative least-squares residual of the sphere conditions


@dataclass(frozen=True)
class SEmbedding:
    """Coordinates of a Schoenberg embedding, plus optional sphere geometry.

    ``points`` is an (n, dim) array whose rows satisfy
    |y_i - y_j|^2 = d(i, j); ``dim`` is the numerical rank of the centred
    kernel, i.e. the minimal embedding dimension. ``gram_eigenvalues`` keeps
    the full kernel spectrum for diagnostics: its n - 1 eigenvalues on the
    mass-zero hyperplane, descending, then the constants direction's exact 0.
    """

    space: MetricSpace
    points: np.ndarray
    dim: int
    gram_eigenvalues: np.ndarray
    sphere: Sphere | None = None
    hull_distance: float | None = None

    @property
    def m_plus_geometric(self) -> float | None:
        """2 (r^2 - s^2), when both sphere and hull distance are known."""
        if self.sphere is None or self.hull_distance is None:
            return None
        return 2.0 * (self.sphere.radius**2 - self.hull_distance**2)

    def squared_point_distances(self) -> np.ndarray:
        # one coordinate at a time, in n^2 memory rather than n^2 * dim
        n = self.points.shape[0]
        return sum(((x[:, None] - x[None, :]) ** 2 for x in self.points.T), np.zeros((n, n)))


def s_embed(space: MetricSpace, tol: Tolerances | None = None, *, analysis=None) -> SEmbedding:
    """Embed (X, sqrt(d)) in Euclidean space of minimal dimension.

    The coordinates are the analysis' ``kernel`` eigenvectors scaled by the
    square roots of their eigenvalues, those above ``rank`` times the
    largest: where ``Analysis.strict`` holds, from one-sided Jacobi on an
    unshifted Cholesky factor of the deflated centred kernel,
    and else from ``jacobi_eigh`` of that kernel.

    Raises ``NotQuasihypermetricError``, with the witness of the
    classification's quasihypermetric verdict, where that verdict fails.
    """
    a = analysis or Analysis(space, tol)
    space, t = a.space, a.tol
    if not (qh := _centred_verdicts(a)[0]):
        raise NotQuasihypermetricError(
            f"centred kernel has negative eigenvalue {a.kernel[0][-1]:.3e}; "
            "no Schoenberg embedding",
            witness=qh.witness,
        )
    w, v = a.kernel
    keep = (w >= t.rank * w.max(initial=0.0)) & (w > 0.0)
    points = v[:, keep] * np.sqrt(w[keep])
    emb = SEmbedding(space, points, int(np.count_nonzero(keep)), np.append(w, 0.0))
    err = float(np.max(np.abs(emb.squared_point_distances() - space.dist)))
    if err > t.emb_tol(space.diameter):
        raise ContradictionError(
            f"embedding is not isometric within tolerance (max deviation {err:.3e})"
        )
    return emb


def fit_circumsphere(emb: SEmbedding) -> Sphere:
    """Least-squares circumsphere of the embedded points, never thresholded.

    In centred coordinates yc_i = y_i - mean(y), with s_i = |yc_i|^2, the
    conditions |yc_i - z|^2 = r^2 become 2 Yc z = s - mean(s). On ``s_embed``
    output Yc'Yc is diagonal: where Gershgorin's discs show it so within
    sqrt(eps), clear of ``RANK_REL`` trace(Yc'Yc), the diagonal solve and one
    Jacobi step solve the normal equations; other points, rotated or
    rank-deficient, take ``lstsq_minnorm``'s minimum-norm solution.
    The residual per equation is relative to max(1, diameter).
    """
    pts = emb.points
    n = pts.shape[0]
    if n == 1:
        return Sphere(pts[0].copy(), 0.0, 0.0)
    centroid = pts.mean(axis=0)
    yc = pts - centroid[None, :]
    sq = np.einsum("ij,ij->i", yc, yc)
    b = sq - sq.mean()
    a, c = yc.T @ yc, 0.5 * (yc.T @ b)
    d, cut = np.diag(a), RANK_REL * sq.sum()
    if np.all(np.abs(a - np.diag(d)).sum(axis=1) < np.sqrt(np.finfo(float).eps) * (d - cut)):
        zc = (2.0 * c - a @ (c / d)) / d
    else:
        zc = lstsq_minnorm(2.0 * yc, b)[0]
    rel = float(np.linalg.norm(2.0 * yc @ zc - b)) / (math.sqrt(n) * max(1.0, emb.space.diameter))
    return Sphere(zc + centroid, float(np.linalg.norm(yc - zc, axis=1).mean()), rel)


def circumsphere(emb: SEmbedding, tol: Tolerances | None = None) -> Sphere | None:
    """The circumsphere of the embedding, or None when the points are not
    concyclic within tolerance (equivalently, when M(X) is infinite)."""
    t = tol if tol is not None else DEFAULT_TOLERANCES
    sphere = fit_circumsphere(emb)
    if sphere.residual <= t.sphere:
        return sphere
    return None


def with_circumsphere(emb: SEmbedding, tol: Tolerances | None = None) -> SEmbedding:
    return replace(emb, sphere=circumsphere(emb, tol=tol))


def hull_distance(emb: SEmbedding, tol: Tolerances | None = None, start=None) -> float:
    """Distance from the sphere centre to the convex hull of the points.

    Computed by the min-norm-point method on the centred points, from the
    corral ``start`` (point indices) when its affine minimizer lies strictly
    inside its simplex. Requires the circumsphere; warns if the solver hits
    its cap.
    """
    if emb.sphere is None:
        raise PreconditionError("hull distance needs the circumsphere; attach it first")
    centred = emb.points - emb.sphere.centre[None, :]
    result = min_norm_point_in_hull(centred, tol=tol, start=start)
    if not result.converged:
        warnings.warn(
            ConvergenceWarning("min-norm-point hit its iteration cap; value may be loose"),
            stacklevel=2,
        )
    return result.distance


def with_hull_distance(emb: SEmbedding, tol: Tolerances | None = None, start=None) -> SEmbedding:
    return replace(emb, hull_distance=hull_distance(emb, tol=tol, start=start))


def full_embedding(space: MetricSpace, tol: Tolerances | None = None, *, analysis=None) -> SEmbedding:
    """Embedding with circumsphere and, when it exists, hull distance attached."""
    emb = with_circumsphere(s_embed(space, tol=tol, analysis=analysis), tol=tol)
    if emb.sphere is not None:
        emb = with_hull_distance(emb, tol=tol)
    return emb


def recentred_embedding(space: MetricSpace, tol: Tolerances | None = None) -> SEmbedding:
    """Embedding translated so the circumsphere centre is the origin.

    Requires finite M(X); then every point satisfies |y_i|^2 = M/2, which is
    verified. A missing circumsphere alongside finite M is a contradiction
    (tolerance failure) and raises.
    """
    a = Analysis(space, tol)
    t = a.tol
    report = mconstant.compute_m(space, tol=t, analysis=a)
    if not report.is_finite:
        raise PreconditionError("recentred embedding needs finite M(X)")
    emb = s_embed(space, tol=t, analysis=a)
    sphere = circumsphere(emb, tol=t)
    if sphere is None:
        raise ContradictionError(
            "M(X) is finite but the embedding has no circumsphere within tolerance "
            f"(residual {fit_circumsphere(emb).residual:.3e})"
        )
    points = emb.points - sphere.centre[None, :]
    half_m = 0.5 * report.m_value
    dev = float(np.max(np.abs(np.einsum("ij,ij->i", points, points) - half_m)))
    if dev > t.emb_tol(max(space.diameter, report.m_value)):
        raise ContradictionError(
            f"recentred points do not satisfy |y|^2 = M/2 within tolerance (deviation {dev:.3e})"
        )
    return replace(emb, points=points, sphere=replace(sphere, centre=np.zeros(emb.dim)))


def affinely_independent(emb: SEmbedding) -> bool:
    """Whether the embedded points are affinely independent: iff the embedding
    dimension, the rank ``s_embed`` found for the centred kernel, is n - 1."""
    return emb.dim == emb.points.shape[0] - 1


def embedding_to_json(emb: SEmbedding) -> dict:
    """JSON-ready form: {"dim", "points", "sphere", "hull_distance"}."""
    doc: dict = {
        "dim": emb.dim,
        "points": [[float(x) for x in row] for row in emb.points],
        "sphere": None,
        "hull_distance": emb.hull_distance,
    }
    if emb.sphere is not None:
        doc["sphere"] = {
            "centre": [float(x) for x in emb.sphere.centre],
            "radius": emb.sphere.radius,
            "residual": emb.sphere.residual,
        }
    return doc
