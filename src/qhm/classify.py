"""Metric-property verdicts for finite spaces, each with a checkable witness.

Quasihypermetricity (the distance matrix is negative semidefinite on the
mass-zero hyperplane) is decided through the spectrum of the doubly centred
matrix P d P, where P = I - J/n annihilates constants. Strictness asks the
restricted form to be negative definite, which shows up as "exactly one
near-zero eigenvalue of P d P" (the constants direction). The hypermetric
property is only ever certified up to a coefficient bound B: it asks
b'db <= 0 of every integer b with sum(b) = 1 and |b_i| <= B. On a strictly
quasihypermetric space with maximal measure w*, every mass-one b has
b'db = M - ||b - w*||^2_{-d}, so the violators are the integer points of an
ellipsoid around w*, and only those are enumerated; on any other space the
mass-one points of the (2B+1)^n box are scanned in lexicographic order up to
the first violation.

Failed verdicts carry a witness vector whose energy re-evaluates to a
violation, so every "fails" is machine-checkable downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetExceededError
from .linalg import definite_solve, double_center, jacobi_eigh, symmetric_rank_and_nullspace
from .metric import MetricSpace, SignedMeasure, schoenberg_form
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


# rows of the mass-one grid scanned per step of the box route
_CHUNK_ROWS = 4096


@lru_cache(maxsize=8)
def _mass_one_grid(n: int, bound: int) -> np.ndarray:
    """All integer vectors in [-bound, bound]^n with entries summing to 1,
    in lexicographic order, as a read-only integer matrix (one vector per row).

    The first n - 1 entries run over [-bound, bound]^(n-1) in lexicographic
    order, the last is 1 minus their sum, and rows where it leaves
    [-bound, bound] are dropped. The last entry is fixed by the others, so
    this is the lexicographic order of the whole vectors.
    """
    base = 2 * bound + 1
    vals = np.arange(-bound, bound + 1, dtype=np.min_scalar_type(-bound - 1))
    free = np.empty((base ** (n - 1), n - 1), dtype=vals.dtype)
    for i in range(n - 1):
        free[:, i] = np.tile(np.repeat(vals, base ** (n - 2 - i)), base**i)
    last = 1 - free.sum(axis=1, dtype=np.int64)
    keep = np.abs(last) <= bound
    out = np.empty((int(keep.sum()), n), dtype=vals.dtype)
    out[:, :-1] = free[keep]
    out[:, -1] = last[keep]
    out.setflags(write=False)
    return out


def _box_witness(space: MetricSpace, bound: int, ptol: float) -> np.ndarray | None:
    """The first row of the mass-one grid with b'db > ptol, or None; the
    grid is scanned in chunks of ``_CHUNK_ROWS`` rows, up to the first
    chunk that holds a violation."""
    grid = _mass_one_grid(space.n, bound)
    for start in range(0, len(grid), _CHUNK_ROWS):
        b = grid[start : start + _CHUNK_ROWS].astype(float)
        viol = ((b @ space.dist) * b).sum(axis=1) > ptol
        if viol.any():
            return b[int(np.argmax(viol))].astype(int)
    return None


def _ellipsoid_points(low: np.ndarray, centre: np.ndarray, radius2: float, bound: int) -> np.ndarray:
    """Every integer y in [-bound, bound]^m with (y - c)' low low' (y - c) <=
    radius2, as float rows in no particular order (Fincke & Pohst 1985).

    With U = low' upper triangular, the form is sum_i (U_i (y - c))^2 and its
    i-th term involves y_i .. y_m only. So coordinates are fixed breadth
    first, the last one first: given the fixed ones, y_i ranges over the
    integers of an interval around its conditional centre, whose half-width
    is what the fixed terms leave of radius2.
    """
    ys = np.zeros((1, 0))
    rest = np.array([radius2])
    for i in reversed(range(len(centre))):
        piv = low[i, i]
        c = centre[i] - (ys - centre[i + 1 :]) @ low[i + 1 :, i] / piv
        r = np.sqrt(np.maximum(rest, 0.0)) / piv
        lo = np.maximum(np.ceil(c - r), -bound)
        count = np.maximum(np.minimum(np.floor(c + r), bound) - lo + 1.0, 0.0).astype(np.intp)
        rows = np.repeat(np.arange(len(ys)), count)
        yi = lo[rows] + (np.arange(len(rows)) - np.repeat(np.cumsum(count) - count, count))
        rest = rest[rows] - (piv * (yi - c[rows])) ** 2
        ys = np.column_stack((yi, ys[rows]))
    return ys


def _ellipsoid_witness(
    space: MetricSpace, bound: int, ptol: float, g: np.ndarray, low: np.ndarray, centre: np.ndarray
) -> np.ndarray | None:
    """``_box_witness`` for a strictly quasihypermetric space, from the
    integer points of the ellipsoid (y - y*)'K(y - y*) <= M + margin, where
    K = low low' and K y* = g with y* = ``centre``."""
    # margin = ptol plus a bound on the rounding of M, y* and the partial
    # sums: n^2 products of size trace(K) (B + |y*|)^2, at a few ulps each
    rounding = 8.0 * space.n**2 * np.finfo(float).eps * float((low**2).sum())
    rounding *= (bound + float(np.abs(centre).max(initial=0.0))) ** 2
    ys = _ellipsoid_points(low, centre, float(g @ centre) + ptol + rounding, bound)
    b = np.column_stack((ys, 1.0 - ys.sum(axis=1)))
    b = b[np.abs(b[:, -1]) <= bound]
    viol = b[((b @ space.dist) * b).sum(axis=1) > ptol]
    if not len(viol):
        return None
    return viol[np.lexsort(viol.T[::-1])[0]].astype(int)


def check_hypermetric_bounded(
    space: MetricSpace, bound: int = 3, tol: Tolerances | None = None
) -> Verdict:
    """Hypermetric inequality check over all integer vectors with |b_i| <= bound.

    Holds iff b' d b <= 0 (within tolerance) for every integer b with
    sum(b) = 1 and entries bounded by ``bound``. A holds verdict certifies
    the property only up to this bound; a fails verdict returns the
    lexicographically first violating vector, which is a genuine
    counterexample to full hypermetricity.

    Two routes give the same verdict and witness. If Schoenberg's form K
    minus ptol S is positive definite (strictly quasihypermetric, as in
    ``compute_m``), then b = (y, 1 - sum y) has b'db = M - (y - y*)'K(y - y*)
    = M - ||b - w*||^2_{-d}, with w* the maximal measure, and only the
    integer points of that ellipsoid around w* are enumerated and checked.
    Otherwise the mass-one grid of the (2B+1)^n box is scanned in
    lexicographic chunks, up to the first violation. The work budget
    n (2B+1)^n is enforced on both routes.
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
    ptol = t.pos_tol(space.n, space.diameter)
    k, g, s = schoenberg_form(space.dist)
    strict = definite_solve(k, g, ptol * s)
    if strict is None:
        witness = _box_witness(space, bound, ptol)
    else:
        witness = _ellipsoid_witness(space, bound, ptol, g, *strict)
    return Verdict(True) if witness is None else Verdict(False, witness=witness)


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
