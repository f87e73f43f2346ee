"""Metric-property verdicts for finite spaces, each with a checkable witness.

Quasihypermetricity (the distance matrix is negative semidefinite on the
mass-zero hyperplane) is read off the n - 1 eigenvalues of d on that
hyperplane: those of the centred kernel -1/2 P d P, P = I - J/n, with the
constants direction removed exactly by a Householder reflection
(``Analysis.kernel``). Strictness asks the restricted form to be negative
definite, so that no eigenvalue lies near zero. Both verdicts read that
spectrum only in the band around the threshold and on spaces that are not
quasihypermetric: where ``Analysis.strict`` holds (K - ptol S positive
definite) the space is strictly quasihypermetric and rank(d) = n. The
hypermetric property is only ever certified up to a coefficient bound B: it
asks b'db <= 0 of every integer b with sum(b) = 1 and |b_i| <= B. On a
strictly quasihypermetric space with maximal measure w*, every mass-one b
has b'db = M - ||b - w*||^2_{-d}, so the violators are the integer points of
an ellipsoid around w*, and only those are enumerated; on any other space
the mass-one points of the (2B+1)^n box are streamed in lexicographic order,
in blocks of at most ``_CHUNK_ROWS`` rows, up to the first violation, in
O(``_CHUNK_ROWS`` n) memory for any B and n.

Failed verdicts carry a witness vector whose energy re-evaluates to a
violation, so every "fails" is machine-checkable downstream.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from .errors import BudgetExceededError
from .linalg import _factor_eigh, _sign_columns, cholesky, definite_solve, jacobi_eigh
from .linalg import symmetric_rank_and_nullspace
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
    ``strict``, the strictness test of every verdict, of ``compute_m`` and of
    the hypermetric check; and ``kernel``, the centred kernel's eigenpairs.
    ``build_report`` passes one per report to the entry points that take
    ``analysis=``; called alone, each makes its own, so none outlives a call.
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
        """``definite_solve(K, g)`` when n > 1, pos >= max(neg, rank) (checked
        first) and K - ptol S is positive definite, else None. Then d is below
        -ptol <= -ntol on the mass-zero hyperplane, so both QH verdicts hold,
        and by Cauchy interlacing and trace d = 0 each eigenvalue of d exceeds
        ptol > rank (n - 1) diameter >= rank |d| in magnitude: rank(d) = n."""
        t = self.tol
        if self.space.n < 2 or t.pos < max(t.neg, t.rank):
            return None
        k, g, shift = self.form
        return None if cholesky(k - shift) is None else definite_solve(k, g)

    @cached_property
    def kernel(self):
        """(w, v): the n - 1 eigenvalues of -1/2 d on the mass-zero hyperplane,
        descending (ties in the solver's order), and their unit eigenvectors,
        mass-zero, as the columns of v, signed by ``_sign_columns``. A
        Householder H with H 1 = -sqrt(n) e_n gives H P H = I - e_n e_n', so
        -1/2 H d H restricted to its leading (n - 1) block is the kernel with
        the constants direction removed exactly; its eigenvectors, mapped back
        through H, have mass zero. Where ``strict`` holds the block is
        decomposed from its own Cholesky factor, unshifted, so that each
        eigenvalue is accurate relative to itself; where that factor fails,
        and on every other space, by ``jacobi_eigh``."""
        d, n = self.space.dist, self.space.n
        h = np.full(n, 1.0 / np.sqrt(n))
        h[-1] += 1.0  # H = I - h h' / h_n, since h'h = 2 h_n
        x = (d * h).sum(axis=1) / h[-1]
        x -= (0.5 * (h * x).sum() / h[-1]) * h  # H d H = d - h x' - x h'
        g = -0.5 * (d - np.outer(h, x) - np.outer(x, h))[:-1, :-1]
        low = cholesky(g) if self.strict is not None else None
        w, u = jacobi_eigh(g) if low is None else _factor_eigh(low)
        order = np.argsort(-w, kind="stable")
        v = np.zeros((n, n - 1))
        v[:-1] = u[:, order]
        v -= np.outer(h, h[:-1] @ v[:-1] / h[-1])
        return w[order], _sign_columns(v)


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

    On failure the witness is the unit mass-zero eigenvector of the largest
    eigenvalue of d on the mass-zero hyperplane.
    """
    return _centred_verdicts(Analysis(space, tol))[0]


def check_strictly_quasihypermetric(space: MetricSpace, tol: Tolerances | None = None) -> Verdict:
    """Holds iff the energy form is negative definite on nonzero mass-zero vectors.

    Judged on the n - 1 eigenvalues of d on the mass-zero hyperplane: one in
    [-ntol, ptol] belongs to a nonzero mass-zero vector of (near) zero
    energy, and the first such eigenvector is returned as the witness.
    """
    return _centred_verdicts(Analysis(space, tol))[1]


def _centred_verdicts(a: Analysis) -> tuple[Verdict, Verdict]:
    """The quasihypermetric and the strict verdict: both hold where
    ``strict`` does, with no eigensolver run; else from ``kernel``, whose
    -2 w is the spectrum of d on the mass-zero hyperplane, ascending."""
    if a.strict is not None:
        return Verdict(True), Verdict(True)
    space, t = a.space, a.tol
    w, v = -2.0 * a.kernel[0], a.kernel[1]
    if w.size and w[-1] > t.pos_tol(space.n, space.diameter):
        fails = Verdict(False, witness=SignedMeasure(space, v[:, -1]))
        return fails, fails
    near = (w >= -t.neg_tol(space.n, space.diameter)) & (w <= t.pos_tol(space.n, space.diameter))
    if not near.any():
        return Verdict(True), Verdict(True)
    return Verdict(True), Verdict(False, witness=SignedMeasure(space, v[:, np.argmax(near)]))


# the most rows in one block of the box route, which keeps its memory
# O(_CHUNK_ROWS n) for any B and n, and partial points extended at once by
# the ellipsoid route
_CHUNK_ROWS = 4096


@lru_cache(maxsize=64)
def _mass_one_tails(r: int, bound: int, head_sum: int) -> np.ndarray:
    """The rows t = (y, 1 - head_sum - sum y), y over [-bound, bound]^r in
    lexicographic order, whose last entry is within bound: a read-only float
    matrix of at most (2 bound + 1)^r rows, column-major for fast products."""
    base = 2 * bound + 1
    y = np.indices((base,) * r).reshape(r, base**r).T - float(bound)
    t = np.column_stack((y, 1.0 - head_sum - y.sum(axis=1)))
    t = np.asfortranarray(t[np.abs(t[:, -1]) <= bound])
    t.setflags(write=False)
    return t


def _mass_one_blocks(n: int, bound: int):
    """The integer vectors of [-bound, bound]^n with entries summing to 1, in
    lexicographic order, as blocks (x, t): the head x runs over the first h
    entries in lexicographic order, and its block is the rows (x, t_i) for
    t = ``_mass_one_tails(r, bound, sum(x))``, r = n - 1 - h the most free
    tail entries with (2 bound + 1)^r <= ``_CHUNK_ROWS``."""
    r = next(k for k in range(n - 1, -1, -1) if (2 * bound + 1) ** k <= _CHUNK_ROWS)
    for x in product(range(-bound, bound + 1), repeat=n - 1 - r):
        yield x, _mass_one_tails(r, bound, sum(x))


def _box_witness(space: MetricSpace, bound: int, ptol: float) -> np.ndarray | None:
    """The lexicographically first mass-one b in the box with b'db > ptol, or
    None, streamed block by block up to the first block that holds one. For
    b = (x, t), b'db = x'd_xx x + 2 t'(d_tx x) + t'd_tt t, and the last term
    is computed once per call for the heads of each sum."""
    d, n = space.dist, space.n

    @lru_cache(maxsize=64)
    def tail_quad(h: int, head_sum: int) -> np.ndarray:
        t = _mass_one_tails(n - 1 - h, bound, head_sum)
        return np.einsum("ij,ij->i", t @ d[h:, h:], t)

    for x, t in _mass_one_blocks(n, bound):
        h, xf = len(x), np.array(x, dtype=float)
        dx = d[:, :h] @ xf
        viol = tail_quad(h, sum(x)) + t @ (2.0 * dx[h:]) > ptol - xf @ dx[:h]
        if viol.any():
            return np.append(x, t[int(np.argmax(viol))]).astype(int)
    return None


def _ellipsoid_points(low: np.ndarray, centre: np.ndarray, radius2: float, bound: int):
    """Every integer y in [-bound, bound]^m with (y - c)' low low' (y - c) <=
    radius2, in blocks of float rows in no particular order (Fincke & Pohst 1985).

    With U = low' upper triangular, the form is sum_i (U_i (y - c))^2 and its
    i-th term involves y_i .. y_m only. So coordinates are fixed the last one
    first: given the fixed ones, y_i ranges over the integers of an interval
    around its conditional centre, whose half-width is what the fixed terms
    leave of radius2. Partial points are extended breadth first up to
    ``_CHUNK_ROWS`` of them, then in slices of that many, depth first, so
    memory is bounded by m levels of (2 bound + 1) ``_CHUNK_ROWS`` rows.
    """
    todo = [(np.zeros((1, 0)), np.array([radius2]))]
    while todo:
        ys, rest = todo.pop()
        while ys.shape[1] < len(centre) and len(ys) <= _CHUNK_ROWS:
            i = len(centre) - 1 - ys.shape[1]
            piv = low[i, i]
            c = centre[i] - (ys - centre[i + 1 :]) @ low[i + 1 :, i] / piv
            r = np.sqrt(np.maximum(rest, 0.0)) / piv
            lo = np.maximum(np.ceil(c - r), -bound)
            count = np.maximum(np.minimum(np.floor(c + r), bound) - lo + 1.0, 0.0).astype(np.intp)
            rows = np.repeat(np.arange(len(ys)), count)
            yi = lo[rows] + (np.arange(len(rows)) - np.repeat(np.cumsum(count) - count, count))
            rest = rest[rows] - (piv * (yi - c[rows])) ** 2
            ys = np.column_stack((yi, ys[rows]))
        if ys.shape[1] == len(centre):
            yield ys
        else:
            starts = range(0, len(ys), _CHUNK_ROWS)
            todo += [(ys[k : k + _CHUNK_ROWS], rest[k : k + _CHUNK_ROWS]) for k in reversed(starts)]


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
    firsts = []  # the lexicographically first violator of each block
    for ys in _ellipsoid_points(low, centre, float(g @ centre) + ptol + rounding, bound):
        b = np.column_stack((ys, 1.0 - ys.sum(axis=1)))
        b = b[np.abs(b[:, -1]) <= bound]
        viol = b[((b @ space.dist) * b).sum(axis=1) > ptol]
        if len(viol):
            firsts.append(viol[np.lexsort(viol.T[::-1])[0]])
    return min(firsts, key=tuple).astype(int) if firsts else None


def check_hypermetric_bounded(
    space: MetricSpace, bound: int = 3, tol: Tolerances | None = None, *, analysis=None
) -> Verdict:
    """Hypermetric inequality check over all integer vectors with |b_i| <= bound.

    Holds iff b' d b <= 0 (within tolerance) for every integer b with
    sum(b) = 1 and entries bounded by ``bound``. A holds verdict certifies
    the property only up to this bound; a fails verdict returns the
    lexicographically first violating vector, which is a genuine
    counterexample to full hypermetricity.

    Two routes give the same verdict and witness. Where ``Analysis.strict``,
    the strictness test of ``compute_m``, holds, b = (y, 1 - sum y) has b'db =
    M - (y - y*)'K(y - y*) = M - ||b - w*||^2_{-d}, with K Schoenberg's form
    and w* the maximal measure, and only the integer points of that ellipsoid
    around w* are enumerated and checked. Otherwise the mass-one points of the
    (2B+1)^n box are streamed in lexicographic blocks of at most
    ``_CHUNK_ROWS`` rows, up to the first violation, in O(``_CHUNK_ROWS`` n)
    memory for any B and n. Neither route holds the box, so the work budget n
    (2B+1)^n, enforced on both, limits time only. A ``bound`` that is not an
    integer raises ``TypeError``.
    """
    try:
        bound = operator.index(bound)
    except TypeError:
        raise TypeError(f"bound must be an integer, got {bound!r}") from None
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
    factorization on a strictly quasihypermetric space (``Analysis.strict``),
    else from the decompositions of d and of the centred kernel, with
    eigenvector witnesses.
    The hypermetric check runs first, so a space over its budget fails before
    anything is decomposed."""
    a = analysis or Analysis(space, tol)
    space = a.space
    hyper = check_hypermetric_bounded(space, hyper_bound, a.tol, analysis=a)
    qh, strict = _centred_verdicts(a)
    if a.strict is not None:
        rank, basis = space.n, np.empty((space.n, 0))
    else:
        rank, basis = distance_matrix_nullspace(space, a.tol)
    return Classification(
        quasihypermetric=qh,
        strictly_quasihypermetric=strict,
        hypermetric_bound=hyper_bound,
        hypermetric_up_to_bound=hyper,
        matrix_rank=rank,
        nullspace_basis=basis,
    )
