"""The energy constant M(X) of a finite quasihypermetric space.

For a finite space the supremum of the energy over mass-1 signed measures is
decided by the linear system d w = 1 (one equation per point): the system is
always consistent when the space is quasihypermetric, the total mass of any
solution is solution-independent, and M equals its reciprocal, with w
normalized to mass 1 being a maximal measure. Zero total mass means the
supremum is infinite, as does failure of the quasihypermetric property. Away
from its threshold, Cholesky factorizations of Schoenberg's form decide both,
and near it a semidefinite elimination of that form does: no eigensolver runs.

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
from .linalg import gram_rank, semidefinite_solve
from .metric import MetricSpace, SignedMeasure, potential, schoenberg_form
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

    Schoenberg's form at the last point, K_ij = d_in + d_jn - d_ij, is -d on
    mass-zero vectors in the basis B = [I; -1'], and B'B = S = I + 11'. With
    ptol = ``pos_tol``, where ``Analysis.strict`` holds (K - ptol S positive
    definite: the verdicts' and the hypermetric check's strictness test) the
    space is strictly QH, and K y = g (the last column of d) gives M = g'y and
    the maximal measure [y; 1 - sum y]; else where ``Analysis.qh``, the one
    quasihypermetric test, fails (K + ptol S not positive definite) it is not
    QH. In the band between, and for a Cholesky solution that fails a check,
    the semidefinite elimination of ``_band_solution`` decides, with no
    eigensolver: it gives M, or M = inf with a zero-mass certificate, or
    raises ``InconsistentSystemError`` (exit 14) naming ``pos``. A one-point
    space has M = 0, attained by its only probability measure (our convention).
    """
    a = Analysis.of(space, tol, analysis)
    t = a.tol
    if space.n == 1:
        unit = SignedMeasure(space, np.ones(1))
        return MReport(0.0, unit, None, True, 0.0, ("m:single-point-convention",))
    # rank(d) = n (``Analysis.strict``), so the maximal measure is unique
    if a.strict is not None:
        y = a.strict[1]
        w = np.append(y, 1.0 - y.sum()) / float(a.form[1] @ y)
        try:
            return _certified(space, w, True, t, "cholesky")
        except InconsistentSystemError:
            pass  # the elimination decides, and raises if it declines too
    elif not a.qh:
        return MReport._infinite((TAG_NOT_QUASIHYPERMETRIC,))
    return _band_solution(space, t)


def _band_solution(space: MetricSpace, t: Tolerances) -> MReport:
    """``compute_m`` by ``semidefinite_solve``. K0, the form at point 0 (moved
    last), is eliminated skipping pivots at most ``rank`` times its largest
    diagonal entry; point 0 and the kept columns T are d's lowest-index column
    basis. For C the Schur complement on the rest, K0 >= min(0, lambda_min(C)) I
    and S >= I, so Gershgorin's lambda_min(C) >= -ptol gives K0 + ptol S >= 0:
    QH. K0[T, T] y = g0[T] gives M = g0[T]'y and the measure (1 - sum y at
    point 0, y on T, 0 elsewhere) if ``_certified`` accepts it. Else the null
    vector z of a skipped column whose residual is beyond ``inv_tol`` is a
    zero-mass certificate: v = (-sum z, z) has d v constant at g0'z, that
    residual; ``invariant_value`` checks it, and M = inf. Anything else
    raises ``InconsistentSystemError``."""
    k, g, _ = schoenberg_form(np.roll(space.dist, -1, axis=(0, 1)))
    level = t.inv_tol(space.n, space.diameter)
    kept, c, y, z = semidefinite_solve(k, g, t.rank * 2.0 * float(g.max()), level)
    gershgorin = c.diagonal() + np.abs(c.diagonal()) - np.abs(c).sum(axis=1)
    if (bound := gershgorin.min(initial=0.0)) < -t.pos_tol(space.n, space.diameter):
        raise _declined(space, t, f"a Gershgorin bound of {bound:.3e} on its Schur complement")
    w = np.concatenate(([1.0 - y[kept].sum()], y))
    try:
        return _certified(space, w / float(g[kept] @ y[kept]), bool(kept.all()), t, "elimination")
    except InconsistentSystemError as refused:
        declined = _declined(space, t, str(refused))
    if z is None:
        raise declined
    v = SignedMeasure(space, np.append(-z.sum(), z))
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


def _certified(space: MetricSpace, w: np.ndarray, unique: bool, t: Tolerances, route: str) -> MReport:
    """The report for a solution w of d w = 1, once its residual, its mass
    (in units of 1 / diameter), the potential of the maximal measure w / mass
    and M = 1 / mass >= D/2
    (the diametral pair's energy; a saddle of the energy can fall below it)
    have passed their checks. Tagged ``m:<route>``, the solve that gave w."""
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
    tags = (f"m:{route}", f"m:{'unique' if unique else 'basic'}-solution")
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
