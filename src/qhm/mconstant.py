"""The energy constant M(X) of a finite quasihypermetric space.

For a finite space the supremum of the energy over mass-1 signed measures is
decided by the linear system d w = 1 (one equation per point): the system is
always consistent when the space is quasihypermetric, the total mass of any
solution is solution-independent, and M equals its reciprocal, with w
normalized to mass 1 being a maximal measure. Zero total mass means the
supremum is infinite, as does failure of the quasihypermetric property.

M+(X), the same supremum over probability measures, is generally smaller and
is computed by away-step Frank-Wolfe over the simplex.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .classify import check_quasihypermetric
from .errors import ContradictionError, ConvergenceWarning, InconsistentSystemError, PreconditionError
from .frankwolfe import SimplexMaxResult, maximize_quadratic_on_simplex
from .linalg import eigh_pinv_solve, gram_rank, lstsq_minnorm
from .metric import MetricSpace, SignedMeasure, potential
from .tolerances import DEFAULT_TOLERANCES, Tolerances

TAG_NOT_QUASIHYPERMETRIC = "m:infinite:not-quasihypermetric"
TAG_ZERO_MASS = "m:infinite:zero-mass-solution"


@dataclass(frozen=True)
class MReport:
    """Everything computed about M(X): the value, who attains it, and how.

    ``m_value`` is ``math.inf`` when the supremum is infinite. When finite,
    ``maximal_measure`` has mass 1 and energy equal to ``m_value``, and
    ``invariant_value`` records the constant level of its potential (equal to
    ``m_value``). ``solution_mass`` is the raw total mass of the solved
    system, so borderline infinite verdicts can be re-judged by the caller.
    ``method_tags`` name the code path behind each number.
    """

    m_value: float
    maximal_measure: SignedMeasure | None
    m_plus: float | None
    unique_maximal: bool | None
    invariant_value: float | None
    method_tags: tuple[str, ...]
    solution_mass: float | None = None
    system_residual: float | None = None

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.m_value)

    def with_m_plus(self, value: float) -> "MReport":
        return replace(self, m_plus=value)


def _canonical_solution(w0: np.ndarray, null_basis: np.ndarray) -> tuple[np.ndarray, str]:
    """Pick the canonical solution of a singular consistent system.

    From the minimum-norm solution, move within the solution set so that a
    maximal independent set of "free" coordinates (chosen greedily from the
    highest index down) is exactly zero. This is the basic solution classical
    elimination would produce and it reproduces the textbook maximal measures
    on the degenerate fixtures; the total mass is unaffected since nullspace
    vectors of a consistent system have mass zero.
    """
    m = null_basis.shape[1]
    if m == 0:
        return w0, "unique-solution"
    picked: list[int] = []
    ortho: list[np.ndarray] = []
    for j in range(null_basis.shape[0] - 1, -1, -1):
        r = null_basis[j].astype(float)
        for u in ortho:
            r = r - (r @ u) * u
        norm = float(np.linalg.norm(r))
        if norm > 1e-8:
            picked.append(j)
            ortho.append(r / norm)
            if len(picked) == m:
                break
    if len(picked) < m:
        return w0, "minimum-norm-fallback"
    rows = np.array(picked)
    t, _ = lstsq_minnorm(null_basis[rows, :], -w0[rows])
    w = w0 + null_basis @ t
    w[rows] = 0.0
    return w, "basic-solution"


def compute_m(space: MetricSpace, tol: Tolerances | None = None) -> MReport:
    """Compute M(X), a maximal measure when one exists, and the bookkeeping.

    Runs the quasihypermetric check first and short-circuits to an infinite
    verdict when it fails. A one-point space has M = 0 attained by its only
    probability measure; this degenerate convention is ours, the linear-system
    route needs at least two points.
    """
    t = tol if tol is not None else DEFAULT_TOLERANCES
    if space.n == 1:
        return MReport(
            m_value=0.0,
            maximal_measure=SignedMeasure(space, np.ones(1)),
            m_plus=None,
            unique_maximal=True,
            invariant_value=0.0,
            method_tags=("m:single-point-convention",),
            solution_mass=None,
            system_residual=None,
        )
    qh = check_quasihypermetric(space, tol=t)
    if not qh:
        return MReport(
            m_value=math.inf,
            maximal_measure=None,
            m_plus=None,
            unique_maximal=None,
            invariant_value=None,
            method_tags=(TAG_NOT_QUASIHYPERMETRIC,),
        )

    ones = np.ones(space.n)
    w0, residual, rank, null_basis = eigh_pinv_solve(space.dist, ones, rank_rel=t.rank)
    if residual > t.res_tol(space.n):
        raise InconsistentSystemError(
            f"the system d w = 1 is inconsistent (residual {residual:.3e}) although the "
            "quasihypermetric check passed; tolerances may be mis-set for this input"
        )
    w, how = _canonical_solution(w0, null_basis)
    mass = float(w.sum())
    if abs(mass) <= t.mass_tol(space.n):
        return MReport(
            m_value=math.inf,
            maximal_measure=None,
            m_plus=None,
            unique_maximal=None,
            invariant_value=None,
            method_tags=(TAG_ZERO_MASS, f"m:{how}"),
            solution_mass=mass,
            system_residual=residual,
        )
    m_value = 1.0 / mass
    measure = SignedMeasure(space, w / mass)
    level = potential(measure)
    if float(np.max(np.abs(level - m_value))) > t.inv_tol(space.n, space.diameter):
        raise InconsistentSystemError(
            "maximal-measure certificate failed: the potential of the solved measure "
            f"is not constant at M within tolerance (max deviation "
            f"{float(np.max(np.abs(level - m_value))):.3e})"
        )
    return MReport(
        m_value=m_value,
        maximal_measure=measure,
        m_plus=None,
        # d w = 1 is consistent, so null vectors of d have mass zero and the
        # bordered matrix of uniqueness_of_maximal has full rank iff d does
        unique_maximal=rank == space.n,
        invariant_value=m_value,
        method_tags=("m:linear-system-pseudoinverse", f"m:{how}"),
        solution_mass=mass,
        system_residual=residual,
    )


def mass_of_solution_is_canonical(space: MetricSpace, tol: Tolerances | None = None) -> bool:
    """Diagnostic for singular distance matrices: is the solved mass well defined?

    Verifies that every nullspace basis vector has total mass ~0, which makes
    the total mass of solutions of d w = 1 solution-independent. Requires a
    singular matrix. If the system turns out inconsistent (e.g. the one-point
    space, whose matrix is the 1x1 zero), the claim is vacuous: a warning is
    emitted and True returned.
    """
    t = tol if tol is not None else DEFAULT_TOLERANCES
    _, residual, _, null_basis = eigh_pinv_solve(space.dist, np.ones(space.n), rank_rel=t.rank)
    if null_basis.shape[1] == 0:
        raise PreconditionError("the distance matrix is nonsingular")
    if residual > t.res_tol(space.n):
        warnings.warn(
            "the system d w = 1 is inconsistent; the canonical-mass claim is vacuous",
            stacklevel=2,
        )
        return True
    masses = np.abs(null_basis.sum(axis=0))
    return bool(np.all(masses <= t.mass_tol(space.n)))


def invariant_value(mu: SignedMeasure, tol: Tolerances | None = None) -> float | None:
    """The constant level of the measure's potential, or None if not constant.

    A mass-zero measure with a nonzero constant potential certifies that
    M(X) is infinite; a mass-one measure with constant potential attains M.
    """
    t = tol if tol is not None else DEFAULT_TOLERANCES
    space = mu.space
    level = potential(mu)
    c = float(level.mean())
    if float(np.max(np.abs(level - c))) <= t.inv_tol(space.n, space.diameter):
        return c
    return None


def uniqueness_of_maximal(space: MetricSpace, tol: Tolerances | None = None) -> bool:
    """Whether the maximal (equivalently, invariant mass-1) measure is unique.

    True iff the distance matrix bordered by a row of ones has full column
    rank, i.e. the solution set of {d w = M 1, sum w = 1} is a single point.
    Meaningful when M(X) is finite. ``compute_m`` reads the same answer off
    rank(d) = n; this bordered Gram rank is the independent route.
    """
    t = tol if tol is not None else DEFAULT_TOLERANCES
    bordered = np.vstack([space.dist, np.ones((1, space.n))])
    return gram_rank(bordered, rank_rel=t.rank) == space.n


def maximize_energy_over_probability(
    space: MetricSpace, tol: Tolerances | None = None
) -> SimplexMaxResult:
    """Frank-Wolfe maximization of the energy over probability measures."""
    t = tol if tol is not None else DEFAULT_TOLERANCES
    return maximize_quadratic_on_simplex(
        space.dist, gap_tol=t.fw_tol(space.diameter), max_iter=t.fw_max_iter
    )


def compute_m_plus(space: MetricSpace, tol: Tolerances | None = None) -> float:
    """Compute M+(X) = sup of the energy over probability measures.

    Requires a quasihypermetric space with finite M (which makes the simplex
    problem a concave maximization whose gap criterion is sound). Warns and
    returns the best value found if the iteration cap is hit.
    """
    t = tol if tol is not None else DEFAULT_TOLERANCES
    if space.n == 1:
        return 0.0
    report = compute_m(space, tol=t)
    if TAG_NOT_QUASIHYPERMETRIC in report.method_tags:
        raise PreconditionError("M+ is only computed for quasihypermetric spaces")
    if not report.is_finite:
        raise PreconditionError("M+ is only computed when M(X) is finite")
    result = maximize_energy_over_probability(space, tol=t)
    if not result.converged:
        warnings.warn(
            ConvergenceWarning(
                f"Frank-Wolfe hit the cap of {t.fw_max_iter} iterations "
                f"(gap {result.gap:.3e}); returning the best value found"
            ),
            stacklevel=2,
        )
    slack = t.inv_tol(space.n, space.diameter)
    if result.value > report.m_value + slack:
        raise ContradictionError(
            f"M+ = {result.value!r} exceeds M = {report.m_value!r} beyond tolerance"
        )
    return min(result.value, report.m_value)
