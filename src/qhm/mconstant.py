"""The energy constant M(X) of a finite quasihypermetric space.

For a finite space the supremum of the energy over mass-1 signed measures is
decided by the linear system d w = 1 (one equation per point): the system is
always consistent when the space is quasihypermetric, the total mass of any
solution is solution-independent, and M equals its reciprocal, with w
normalized to mass 1 being a maximal measure. Zero total mass means the
supremum is infinite, as does failure of the quasihypermetric property.
Schoenberg's form at point 0 decides the property and one elimination of it
solves the system, with no eigensolver; on a strictly quasihypermetric space
that elimination is the strictness test's, refined.

M+(X), the same supremum over probability measures, is generally smaller: it
is M(F) for the support F of a maximal probability measure, found by an active
set whose faces are solved the same way.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .classify import Analysis, distance_matrix_nullspace
from .errors import ContradictionError, ConvergenceWarning, InconsistentSystemError, PreconditionError
from .frankwolfe import ZERO_WEIGHT, maximize_quadratic_on_simplex
from .linalg import gram_rank
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
    ``method_tags`` name the code path behind each number. M+ comes with its
    certificate: the support, the largest potential outside it and the gap.
    """

    m_value: float
    maximal_measure: SignedMeasure | None
    m_plus: float | None
    unique_maximal: bool | None
    invariant_value: float | None
    method_tags: tuple[str, ...]
    solution_mass: float | None = None
    system_residual: float | None = None
    m_plus_certificate: dict | None = None

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.m_value)

    def with_m_plus(self, value: float, certificate: dict | None = None) -> "MReport":
        return replace(self, m_plus=value, m_plus_certificate=certificate)

    @classmethod
    def _infinite(cls, tags: tuple[str, ...], mass=None, residual=None) -> "MReport":
        return cls(math.inf, None, None, None, None, tags, mass, residual)


def compute_m(space: MetricSpace, tol: Tolerances | None = None, *, analysis=None) -> MReport:
    """Compute M(X), a maximal measure when one exists, and the bookkeeping.

    M = inf where ``Analysis.qh``, the one quasihypermetric test, fails (K +
    ptol S not positive definite, K Schoenberg's form at point 0); elsewhere
    ``_from_elimination`` decides, with no eigensolver. A one-point space has
    M = 0, attained by its only probability measure (our convention).
    """
    a = Analysis.of(space, tol, analysis)
    if space.n == 1:
        unit = SignedMeasure(space, np.ones(1))
        return MReport(0.0, unit, None, True, 0.0, ("m:single-point-convention",))
    if not a.qh:
        return MReport._infinite((TAG_NOT_QUASIHYPERMETRIC,))
    return _from_elimination(a)


def _from_elimination(a: Analysis) -> MReport:
    """``compute_m`` from ``Analysis.elimination``, which skips pivots at most
    ``rank`` times K's largest diagonal entry; point 0 and the kept columns T
    are d's lowest-index column basis, and every column is kept where
    ``Analysis.strict`` holds. For C the Schur complement on the rest,
    K >= min(0, lambda_min(C)) I and S >= I, so Gershgorin's lambda_min(C) >=
    -ptol gives K + ptol S >= 0: QH, which a finite M needs. Then
    K[T, T] y = g[T] gives M = g[T]'y and the measure (1 - sum y at point 0,
    y on T, 0 elsewhere), unique iff every column is kept, if ``_certified``
    accepts it. Else the null vector z of a skipped column whose residual is
    beyond ``inv_tol`` is a zero-mass certificate on any space: v =
    (-sum z, z) has d v constant at g'z, that residual, so the energy is
    linear along v; ``invariant_value`` checks it, and M = inf. Else it
    raises ``InconsistentSystemError`` (exit 14) naming ``pos``."""
    space, t, g = a.space, a.tol, a.form[1]
    kept, c, y, z = a.elimination
    bound = (c.diagonal() + np.abs(c.diagonal()) - np.abs(c).sum(axis=1)).min() if len(c) else 0.0
    if bound < -t.pos_tol(space.n, space.diameter):
        declined = _declined(space, t, f"a Gershgorin bound of {bound:.3e} on its Schur complement")
    else:
        w = np.concatenate(([1.0 - y[kept].sum()], y))
        try:
            return _certified(space, w / float(g[kept] @ y[kept]), bool(kept.all()), t)
        except InconsistentSystemError as refused:
            declined = _declined(space, t, str(refused))
    if z is None:
        raise declined
    v = SignedMeasure(space, np.append(-z.sum(), z))
    level = t.inv_tol(space.n, space.diameter)
    if (constant := invariant_value(v, t)) is None or abs(constant) <= level:
        raise declined
    w = v.weights / constant
    residual = float(np.linalg.norm(space.dist @ w - 1.0))
    return MReport._infinite((TAG_ZERO_MASS, "m:elimination-null-vector"), float(w.sum()), residual)


def _declined(space: MetricSpace, t: Tolerances, why: str) -> InconsistentSystemError:
    return InconsistentSystemError(
        f"the elimination of Schoenberg's form declines ({why}); spaces that fail the "
        f"quasihypermetric property by less than pos_tol = "
        f"{t.pos_tol(space.n, space.diameter):.3e} (pos = {t.pos!r}) land here"
    )


def _certified(space: MetricSpace, w: np.ndarray, unique: bool, t: Tolerances) -> MReport:
    """The report for a solution w of d w = 1, once its residual, its mass
    (in units of 1 / diameter), the potential of the maximal measure w / mass
    and M = 1 / mass >= D/2
    (the diametral pair's energy; a saddle of the energy can fall below it)
    have passed their checks."""
    mass = float(w.sum())
    residual = float(np.linalg.norm(space.dist @ w - 1.0))
    measure, m = SignedMeasure(space, w / mass), 1.0 / mass
    deviation = float(np.max(np.abs(potential(measure) - m)))
    slack = t.inv_tol(space.n, space.diameter)
    if (
        residual > t.res_tol(space.n)
        or abs(mass) * space.diameter <= t.mass_tol(space.n)
        or deviation > slack
        or m < 0.5 * space.diameter - slack
    ):
        raise InconsistentSystemError(
            "maximal-measure certificate failed: the solution of d w = 1 has residual "
            f"{residual:.3e} and mass {mass:.3e}, and the potential of the solved measure "
            f"deviates from M = {m:.6g} by up to {deviation:.3e}; M is at least D/2 = "
            f"{0.5 * space.diameter:.6g}"
        )
    tags = ("m:elimination", f"m:{'unique' if unique else 'basic'}-solution")
    return MReport(m, measure, None, unique, m, tags, mass, residual)


def mass_of_solution_is_canonical(space: MetricSpace, tol: Tolerances | None = None) -> bool:
    """Diagnostic for singular distance matrices: is the solved mass well defined?

    Verifies that every nullspace basis vector has total mass ~0, which makes
    the total mass of solutions of d w = 1 solution-independent. Requires a
    singular matrix. d is symmetric, so the residual of d w = 1 is the norm
    of those masses. If the system turns out inconsistent (e.g. the one-point
    space, whose matrix is the 1x1 zero), the claim is vacuous: a warning is
    emitted and True returned.
    """
    t = tol if tol is not None else DEFAULT_TOLERANCES
    _, null_basis = distance_matrix_nullspace(space, t)
    if null_basis.shape[1] == 0:
        raise PreconditionError("the distance matrix is nonsingular")
    masses = np.abs(null_basis.sum(axis=0))
    if float(np.linalg.norm(masses)) > t.res_tol(space.n):
        warnings.warn(
            "the system d w = 1 is inconsistent; the canonical-mass claim is vacuous",
            stacklevel=2,
        )
        return True
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
    a strict margin or rank(d) = n; this bordered Gram rank is the
    independent route.
    """
    t = tol if tol is not None else DEFAULT_TOLERANCES
    bordered = np.vstack([space.dist, np.ones((1, space.n))])
    return gram_rank(bordered, rank_rel=t.rank) == space.n


def compute_m_plus(space: MetricSpace, tol: Tolerances | None = None) -> float:
    """M+(X) = sup of the energy over probability measures: the package's M+ entry.

    Requires a quasihypermetric space, on which the simplex problem is a
    concave maximization whose gap criterion certifies the maximum; finite M
    is needed only for the warm start and for the check M+ <= M. Refuses any
    other space with ``PreconditionError`` (exit 15). Warns and returns the
    best value found if the active set stalls before its gap criterion is met.
    """
    t = tol if tol is not None else DEFAULT_TOLERANCES
    return _m_plus_from_report(space, compute_m(space, tol=t), t).m_plus


def _m_plus_from_report(space: MetricSpace, report: MReport, t: Tolerances) -> MReport:
    """``report`` with M+ and its certificate attached (``compute_m_plus`` for
    a space whose ``compute_m`` report is in hand). The active set starts from
    the positive part of the maximal measure w*, normalized. A maximal
    probability measure with support F has d_FF x_F = M+ 1: where w* >= 0
    its face is the answer, M+ = M, and elsewhere F is most often w*'s
    positive support or within it. The gap criterion decides either way."""
    if TAG_NOT_QUASIHYPERMETRIC in report.method_tags:
        raise PreconditionError("M+ is only computed for quasihypermetric spaces")
    if not report.is_finite:
        raise PreconditionError("M+ is only computed when M(X) is finite")
    w = report.maximal_measure.weights
    positive = np.where(w > ZERO_WEIGHT, w, 0.0)
    result = maximize_quadratic_on_simplex(space.dist, t, positive / positive.sum())
    if not result.converged:
        warnings.warn(
            ConvergenceWarning(
                f"the M+ active set stalled with gap {result.gap:.3e} "
                f"(fw_max_iter={t.fw_max_iter}); returning the best value found"
            ),
            stacklevel=3,
        )
    slack = t.inv_tol(space.n, space.diameter)
    if result.value > report.m_value + slack:
        raise ContradictionError(
            f"M+ = {result.value!r} exceeds M = {report.m_value!r} beyond tolerance"
        )
    outside = result.weights <= 0.0
    level = space.dist[outside] @ result.weights
    certificate = {
        "support": np.flatnonzero(~outside).tolist(),
        "max_outside_potential": float(level.max()) if level.size else None,
        "gap": result.gap,
    }
    return report.with_m_plus(min(result.value, report.m_value), certificate)
