"""Metric-property verdicts for finite spaces, each with a checkable witness.

Quasihypermetricity (the distance matrix is negative semidefinite on the
mass-zero hyperplane) is decided through the spectrum of the doubly centred
matrix P d P, where P = I - J/n annihilates constants. Strictness asks the
restricted form to be negative definite, which shows up as "exactly one
near-zero eigenvalue of P d P" (the constants direction). The hypermetric
property is only ever certified up to a coefficient bound: all integer
vectors b with sum(b) = 1 and |b_i| <= B are enumerated.

Failed verdicts carry a witness vector whose energy re-evaluates to a
violation, so every "fails" is machine-checkable downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetExceededError
from .linalg import double_center, jacobi_eigh, symmetric_rank_and_nullspace
from .metric import MetricSpace, SignedMeasure
from .tolerances import DEFAULT_TOLERANCES, Tolerances


@dataclass(frozen=True)
class Verdict:
    """Outcome of a property check; a failing verdict carries its witness."""

    holds: bool
    witness: SignedMeasure | np.ndarray | None = None

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class Classification:
    quasihypermetric: Verdict
    strictly_quasihypermetric: Verdict
    hypermetric_bound: int
    hypermetric_up_to_bound: Verdict
    matrix_rank: int
    nullspace_basis: np.ndarray  # orthonormal columns


def check_quasihypermetric(space: MetricSpace, tol: Tolerances | None = None) -> Verdict:
    """Holds iff the distance matrix is negative semidefinite on mass-zero vectors.

    On failure the witness is the eigenvector of the largest positive
    eigenvalue of P d P, projected back onto the mass-zero hyperplane.
    """
    return _centred_verdicts(space, tol)[0]


def check_strictly_quasihypermetric(space: MetricSpace, tol: Tolerances | None = None) -> Verdict:
    """Holds iff the energy form is negative definite on nonzero mass-zero vectors.

    Judged by counting near-zero eigenvalues of P d P: the constants direction
    always contributes one; any further one belongs to a nonzero mass-zero
    vector of zero energy, which is returned as the witness.
    """
    return _centred_verdicts(space, tol)[1]


def _centred_verdicts(space: MetricSpace, tol: Tolerances | None) -> tuple[Verdict, Verdict]:
    """The quasihypermetric and the strict verdict, from one decomposition of P d P."""
    t = tol if tol is not None else DEFAULT_TOLERANCES
    w, v = jacobi_eigh(double_center(space.dist))
    if w[-1] > t.pos_tol(space.n, space.diameter):
        alpha = v[:, -1] - v[:, -1].mean()
        alpha /= np.linalg.norm(alpha)
        fails = Verdict(False, witness=SignedMeasure(space, alpha))
        return fails, fails
    near = (w >= -t.neg_tol(space.n, space.diameter)) & (
        w <= t.pos_tol(space.n, space.diameter)
    )
    if int(near.sum()) <= 1:
        return Verdict(True), Verdict(True)
    # the near-kernel mixes the constants direction with the degenerate
    # directions; project it off and keep the largest remainder
    cand = v[:, near]
    proj = cand - cand.mean(axis=0, keepdims=True)
    norms = np.linalg.norm(proj, axis=0)
    best = int(np.argmax(norms))
    alpha = proj[:, best] / norms[best]
    if alpha[int(np.argmax(np.abs(alpha)))] < 0:
        alpha = -alpha
    return Verdict(True), Verdict(False, witness=SignedMeasure(space, alpha))


@lru_cache(maxsize=8)
def _mass_one_grid(n: int, bound: int) -> np.ndarray:
    """All integer vectors in [-bound, bound]^n with entries summing to 1,
    in lexicographic order, as a read-only float matrix (one vector per row).

    Built column by column from the row index's base-(2B+1) digits, which is
    the lexicographic order and avoids materializing n meshgrid copies.
    """
    base = 2 * bound + 1
    size = base**n
    vals = np.arange(-bound, bound + 1, dtype=np.int8)
    idx = np.arange(size)
    flat = np.empty((size, n), dtype=np.int8)
    for i in range(n):
        flat[:, i] = vals[(idx // base ** (n - 1 - i)) % base]
    keep = flat.sum(axis=1, dtype=np.int16) == 1
    out = flat[keep].astype(float)
    out.setflags(write=False)
    return out


def check_hypermetric_bounded(
    space: MetricSpace, bound: int = 3, tol: Tolerances | None = None
) -> Verdict:
    """Hypermetric inequality check over all integer vectors with |b_i| <= bound.

    Holds iff b' d b <= 0 (within tolerance) for every integer b with
    sum(b) = 1 and entries bounded by ``bound``. A holds verdict certifies
    the property only up to this bound; a fails verdict returns the
    lexicographically first violating vector, which is a genuine
    counterexample to full hypermetricity.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    t = tol if tol is not None else DEFAULT_TOLERANCES
    work = space.n * float(2 * bound + 1) ** space.n
    if work > t.hyper_budget:
        raise BudgetExceededError(
            f"enumeration work n*(2B+1)^n = {work:.3g} exceeds the budget of "
            f"{t.hyper_budget:.3g} (n={space.n}, bound={bound})"
        )
    grid = _mass_one_grid(space.n, bound)
    q = ((grid @ space.dist) * grid).sum(axis=1)
    viol = q > t.pos_tol(space.n, space.diameter)
    if not viol.any():
        return Verdict(True)
    first = int(np.argmax(viol))
    return Verdict(False, witness=grid[first].astype(int))


def distance_matrix_nullspace(space: MetricSpace, tol: Tolerances | None = None):
    """Rank of the distance matrix and an orthonormal basis of its nullspace.

    Returns ``(rank, basis)`` with the basis vectors as columns; eigenvalues
    of magnitude below ``tol.rank`` relative to the largest count as zero.
    """
    t = tol if tol is not None else DEFAULT_TOLERANCES
    return symmetric_rank_and_nullspace(space.dist, rank_rel=t.rank)


def classify_space(
    space: MetricSpace, hyper_bound: int = 3, tol: Tolerances | None = None
) -> Classification:
    """Run all property checks and bundle the verdicts."""
    t = tol if tol is not None else DEFAULT_TOLERANCES
    rank, basis = distance_matrix_nullspace(space, tol=t)
    qh, strict = _centred_verdicts(space, t)
    return Classification(
        quasihypermetric=qh,
        strictly_quasihypermetric=strict,
        hypermetric_bound=hyper_bound,
        hypermetric_up_to_bound=check_hypermetric_bounded(space, bound=hyper_bound, tol=t),
        matrix_rank=rank,
        nullspace_basis=basis,
    )
