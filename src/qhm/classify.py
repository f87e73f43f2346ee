"""Metric-property verdicts for finite spaces, each with a checkable witness.

Quasihypermetricity (the distance matrix is negative semidefinite on the
mass-zero hyperplane) is read off the spectrum of the doubly centred matrix
P d P, where P = I - J/n annihilates constants. Strictness asks the
restricted form to be negative definite, which shows up as "exactly one
near-zero eigenvalue of P d P" (the constants direction). ``classify_space``
reads that spectrum only in the band around the threshold and on spaces that
are not quasihypermetric: when K - ptol S is positive definite (``Analysis``)
the space is strictly quasihypermetric and rank(d) = n. The hypermetric
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
from functools import cached_property, lru_cache

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


class Analysis:
    """What a run learns of one space, each piece made when first read:
    ``form``, Schoenberg's form (K, g, ptol S) with ptol = ``pos_tol``;
    ``strict``, ``definite_solve(K, g, ptol S)``, None unless K - ptol S is
    positive definite; ``eig_d``, the Jacobi pair of d, eigenvalues
    ascending, read by ``classify_space`` (rank and nullspace) and by
    ``compute_m`` in the band (its quasihypermetric re-check and d w = 1);
    and ``kernel_eig``, that of the centred kernel -1/2 P d P, eigenvalues
    descending, read by the centred verdicts and ``s_embed``.
    ``build_report`` passes one per report to the entry points that take
    ``analysis=``; called alone, each makes its own, so none outlives one call.
    """

    def __init__(self, space: MetricSpace, tol: Tolerances | None = None):
        self.space = space
        self.tol = tol if tol is not None else DEFAULT_TOLERANCES

    @cached_property
    def form(self):
        k, g, s = schoenberg_form(self.space.dist)
        return k, g, self.tol.pos_tol(self.space.n, self.space.diameter) * s

    @cached_property
    def strict(self):
        return definite_solve(*self.form)

    @cached_property
    def certified_strict(self) -> bool:
        """``strict`` with n > 1 and pos >= max(neg, rank). Then d is below
        -ptol <= -ntol on the mass-zero hyperplane, so both QH verdicts hold,
        and by Cauchy interlacing and trace d = 0 each eigenvalue of d exceeds
        ptol > rank (n - 1) diameter >= rank |d| in magnitude: rank(d) = n."""
        t = self.tol
        return self.space.n > 1 and t.pos >= max(t.neg, t.rank) and self.strict is not None

    @cached_property
    def eig_d(self):
        return jacobi_eigh(self.space.dist)

    @cached_property
    def kernel_eig(self):
        # s_embed's order; ties keep Jacobi's order, so -2 w is P d P's ascending spectrum
        w, v = jacobi_eigh(-0.5 * double_center(self.space.dist))
        order = np.argsort(-w, kind="stable")
        return w[order], v[:, order]


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
    return _centred_verdicts(Analysis(space, tol))[0]


def check_strictly_quasihypermetric(space: MetricSpace, tol: Tolerances | None = None) -> Verdict:
    """Holds iff the energy form is negative definite on nonzero mass-zero vectors.

    Judged by counting near-zero eigenvalues of P d P: the constants direction
    always contributes one; any further one belongs to a nonzero mass-zero
    vector of zero energy, which is returned as the witness.
    """
    return _centred_verdicts(Analysis(space, tol))[1]


def _centred_verdicts(a: Analysis) -> tuple[Verdict, Verdict]:
    """The quasihypermetric and the strict verdict, from the spectrum of P d P."""
    space, t = a.space, a.tol
    w, v = -2.0 * a.kernel_eig[0], a.kernel_eig[1]
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


def _qh_by_inertia(a: Analysis) -> bool:
    """The quasihypermetric verdict of ``_centred_verdicts``, read off the
    spectrum of d: is the top eigenvalue mu of d on the mass-zero hyperplane
    at most ptol? By Cauchy interlacing mu lies between the two largest
    eigenvalues of d, where it is the root of the increasing secular function
    f(x) = sum u_i^2 / (lambda_i - x), u = V'1. So mu <= ptol iff no
    eigenvalue exceeds ptol, or exactly one does and f(ptol) =
    1'(d - ptol I)^-1 1 >= 0 (Haynsworth inertia additivity)."""
    w, v = a.eig_d
    gap = w - a.tol.pos_tol(a.space.n, a.space.diameter)
    above = int(np.count_nonzero(gap > 0.0))
    if above != 1:
        return above == 0
    u2 = v.sum(axis=0) ** 2
    pole = gap == 0.0
    if np.any(u2[pole] > 0.0):
        return False  # f falls to -inf just above lambda_2 = ptol, so mu > ptol
    return float(np.sum(u2[~pole] / gap[~pole])) >= 0.0


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
    space: MetricSpace, bound: int = 3, tol: Tolerances | None = None, *, analysis=None
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
    a = analysis or Analysis(space, tol)
    space, t = a.space, a.tol
    work = space.n * float(2 * bound + 1) ** space.n
    if work > t.hyper_budget:
        raise BudgetExceededError(
            f"enumeration work n*(2B+1)^n = {work:.3g} exceeds the budget of "
            f"{t.hyper_budget:.3g} (n={space.n}, bound={bound})"
        )
    ptol = t.pos_tol(space.n, space.diameter)
    if a.strict is None:
        witness = _box_witness(space, bound, ptol)
    else:
        witness = _ellipsoid_witness(space, bound, ptol, a.form[1], *a.strict)
    return Verdict(True) if witness is None else Verdict(False, witness=witness)


def distance_matrix_nullspace(space: MetricSpace, tol: Tolerances | None = None):
    """Rank of the distance matrix and an orthonormal basis of its nullspace.

    Returns ``(rank, basis)`` with the basis vectors as columns; eigenvalues
    of magnitude below ``tol.rank`` relative to the largest count as zero.
    """
    t = tol if tol is not None else DEFAULT_TOLERANCES
    return symmetric_rank_and_nullspace(space.dist, rank_rel=t.rank)


def classify_space(
    space: MetricSpace, hyper_bound: int = 3, tol: Tolerances | None = None, *, analysis=None
) -> Classification:
    """Run all property checks and bundle the verdicts: from the Cholesky
    factorization on a strictly quasihypermetric space (``certified_strict``),
    else from the decompositions of d and P d P, with eigenvector witnesses."""
    a = analysis or Analysis(space, tol)
    space = a.space
    if a.certified_strict:
        qh = strict = Verdict(True)
        rank, basis = space.n, np.empty((space.n, 0))
    else:
        rank, basis = symmetric_rank_and_nullspace(space.dist, a.tol.rank, eig=a.eig_d)
        qh, strict = _centred_verdicts(a)
    return Classification(
        quasihypermetric=qh,
        strictly_quasihypermetric=strict,
        hypermetric_bound=hyper_bound,
        hypermetric_up_to_bound=check_hypermetric_bounded(space, hyper_bound, a.tol, analysis=a),
        matrix_rank=rank,
        nullspace_basis=basis,
    )
