"""Finite metric spaces, signed measures on them, and the distance-energy forms.

A space is its symmetric distance matrix, validated against the metric axioms
at construction; a subspace inherits that validation, triangle slack relative
to the parent's diameter included. A signed measure is a real weight vector
over the points. The mutual energy of two measures is the bilinear form
w1' * dist * w2; the potential of a measure is the vector dist * w; mass-zero
measures carry the seminorm sqrt(-energy), which is real precisely on
quasihypermetric spaces.

All values are immutable after construction and every operation is a pure
function of its inputs, so concurrent use on shared objects is safe.
"""

from __future__ import annotations

import math
import operator
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import (
    AsymmetryError,
    DiagonalError,
    DimensionMismatchError,
    DuplicatePointError,
    MassError,
    NegativeDistanceError,
    NegativityError,
    NonFiniteEntryError,
    ShapeError,
    TriangleViolationError,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances


def validate_distance_matrix(dist: np.ndarray, tol: Tolerances, n_labels: int | None = None) -> None:
    """Check the metric axioms, raising the specific violation found first."""
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ShapeError(f"distance matrix must be square, got shape {dist.shape}")
    n = dist.shape[0]
    if n == 0:
        raise ShapeError("a metric space needs at least one point")
    if n_labels is not None and n_labels != n:
        raise ShapeError(f"{n_labels} labels for {n} points")
    # each axiom is one reduction on the clean path; argwhere runs only on failure
    if not np.isfinite(dist).all():
        i, j = np.argwhere(~np.isfinite(dist))[0]
        raise NonFiniteEntryError(f"at ({i},{j})")
    if (dist < 0).any():
        i, j = np.argwhere(dist < 0)[0]
        raise NegativeDistanceError(int(i), int(j), float(dist[i, j]))
    diag = np.diagonal(dist)
    if np.any(diag != 0.0):
        i = int(np.argmax(diag != 0.0))
        raise DiagonalError(i, float(dist[i, i]))
    if (dist != dist.T).any():
        i, j = np.argwhere(dist != dist.T)[0]
        raise AsymmetryError(int(i), int(j), float(dist[i, j]), float(dist[j, i]))
    if np.count_nonzero(dist == 0.0) > n:
        i, j = np.argwhere(dist + np.diag(np.full(n, np.inf)) == 0.0)[0]
        raise DuplicatePointError(int(i), int(j))
    if n >= 3:
        # detour[i,j] = min_k d(k,i) + d(k,j) (d is symmetric by now) over blocks of c
        # points k: one block up to n = 24, one point a block past n = 181; min is exact.
        # Direct paths may exceed it only within the slack (matrices read from decimal text)
        c = max(1, 2**15 // n**2)
        detour = np.full((n, n), np.inf)
        for k in range(0, n, c):
            via = dist[k : k + c, :, None] + dist[k : k + c, None, :]
            np.minimum(detour, via[0] if c == 1 else via.min(axis=0), out=detour)
        slack = tol.triangle_rel * float(dist.max())
        if (dist > detour + slack).any():
            i, j = np.argwhere(dist > detour + slack)[0]
            k = int(np.argmin(dist[i, :] + dist[:, j]))
            raise TriangleViolationError(
                int(i), k, int(j), float(dist[i, j]), float(dist[i, k] + dist[k, j])
            )


@dataclass(frozen=True, eq=False)
class MetricSpace:
    """An n-point metric space stored as its distance matrix, validated at
    construction; a ``subspace`` inherits the validation and runs none."""

    dist: np.ndarray
    labels: tuple[str, ...] | None = None
    tol: InitVar[Tolerances | None] = None

    def __post_init__(self, tol):
        arr = np.array(self.dist, dtype=float)
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        validate_distance_matrix(
            arr,
            tol if tol is not None else DEFAULT_TOLERANCES,
            None if self.labels is None else len(self.labels),
        )
        arr.setflags(write=False)
        object.__setattr__(self, "dist", arr)

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @property
    def diameter(self) -> float:
        """Largest distance in the space."""
        return float(self.dist.max())

    def scaled(self, factor: float) -> "MetricSpace":
        """The same point set with every distance multiplied by ``factor``."""
        if not (math.isfinite(factor) and factor > 0):
            raise ValueError(f"scale factor must be positive and finite, got {factor!r}")
        with np.errstate(over="ignore"):  # an overflow is reported by the validation
            return MetricSpace(self.dist * factor, labels=self.labels)

    def subspace(self, points) -> "MetricSpace":
        """The space on the given distinct point indices, in that order, with
        their labels: a subset of a metric space is one, so no validation runs."""
        idx = list(map(operator.index, points))
        if not idx or len(set(idx)) < len(idx) or min(idx) < 0 or max(idx) >= self.n:
            raise ValueError(f"subspace needs distinct point indices in [0, {self.n}), got {idx}")
        sub = object.__new__(MetricSpace)
        dist = self.dist.take(idx, axis=0).take(idx, axis=1)
        dist.setflags(write=False)
        object.__setattr__(sub, "dist", dist)
        labels = None if self.labels is None else tuple(self.labels[i] for i in idx)
        object.__setattr__(sub, "labels", labels)
        return sub

    def __repr__(self) -> str:
        return f"MetricSpace(n={self.n}, diameter={self.diameter:g})"


@dataclass(frozen=True, eq=False)
class SignedMeasure:
    """A signed measure on a finite space: one real weight per point."""

    space: MetricSpace
    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float).reshape(-1)
        if w.shape[0] != self.space.n:
            raise DimensionMismatchError(
                f"{w.shape[0]} weights for a space of {self.space.n} points"
            )
        if not np.all(np.isfinite(w)):
            raise NonFiniteEntryError("in measure weights")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def mass(self) -> float:
        return float(self.weights.sum())

    @classmethod
    def delta(cls, space: MetricSpace, i: int) -> "SignedMeasure":
        """The unit atom at point ``i``."""
        w = np.zeros(space.n)
        w[i] = 1.0
        return cls(space, w)

    @classmethod
    def uniform(cls, space: MetricSpace) -> "SignedMeasure":
        """The uniform probability measure."""
        return cls(space, np.full(space.n, 1.0 / space.n))

    def __repr__(self) -> str:
        return f"SignedMeasure(n={self.space.n}, mass={self.mass:g})"


def _same_space(mu: SignedMeasure, nu: SignedMeasure) -> MetricSpace:
    if mu.space is nu.space:
        return mu.space
    if mu.space.n == nu.space.n and np.array_equal(mu.space.dist, nu.space.dist):
        return mu.space
    raise DimensionMismatchError("measures live on different metric spaces")


def mutual_energy(mu: SignedMeasure, nu: SignedMeasure) -> float:
    """The energy bilinear form sum_ij mu_i nu_j d(i, j).

    Symmetric in its arguments bit-for-bit: the two weight vectors are put in
    a canonical order before the contraction, so swapping the arguments
    performs the identical float computation.
    """
    space = _same_space(mu, nu)
    a, b = mu.weights, nu.weights
    if b.tobytes() < a.tobytes():
        a, b = b, a
    return float(a @ (space.dist @ b))


def energy(mu: SignedMeasure) -> float:
    """The quadratic energy of a measure against itself."""
    return float(mu.weights @ (mu.space.dist @ mu.weights))


def potential(mu: SignedMeasure) -> np.ndarray:
    """The potential vector: component i is sum_j d(i, j) mu_j.

    The curried form of the energy: ``mutual_energy(mu, nu)`` equals
    ``nu.weights @ potential(mu)`` up to rounding.
    """
    return mu.space.dist @ mu.weights


def schoenberg_form(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schoenberg's form at the last point: ``(K, g, S)`` with
    K_ij = d_in + d_jn - d_ij, g = d[:-1, -1] and S = I + 11'.

    In the basis B = [I; -1'] of the mass-zero hyperplane, K is -d and S is
    B'B. A mass-one vector b = (y, 1 - sum y) has b'db = 2 g'y - y'Ky, so
    when K is positive definite and K y* = g, b'db = M - (y - y*)'K(y - y*)
    with M = g'y* = M(X).
    """
    g = dist[:-1, -1]
    k = g[:, None] + g[None, :] - dist[:-1, :-1]
    return k, g, np.eye(len(g)) + 1.0


def seminorm(mu: SignedMeasure, tol: Tolerances | None = None) -> float:
    """The seminorm sqrt(-energy) of a mass-zero measure.

    Requires total mass zero. On a quasihypermetric space the energy of a
    mass-zero measure is nonpositive; tiny positive values from rounding are
    clamped to zero, while values beyond the clamp window raise
    ``NegativityError`` with the offending measure attached.
    """
    t = tol if tol is not None else DEFAULT_TOLERANCES
    space = mu.space
    if abs(mu.mass) > t.mass_tol(space.n):
        raise MassError(f"seminorm needs total mass 0, got {mu.mass!r}")
    neg = -energy(mu)
    if neg <= 0.0:
        window = t.energy_zero_tol(space.n, space.diameter, float(np.abs(mu.weights).sum()))
        if neg < -window:
            raise NegativityError(
                f"energy form is positive ({-neg!r}) on a mass-zero vector; "
                "the space is not quasihypermetric",
                witness=mu,
            )
        return 0.0
    return math.sqrt(neg)
