"""The energy constant M(X) of a finite quasihypermetric space.

For a finite space the supremum of the energy over mass-1 signed measures is
decided by the linear system d w = 1 (one equation per point): the system is
always consistent when the space is quasihypermetric, the total mass of any
solution is solution-independent, and M equals its reciprocal, with w
normalized to mass 1 being a maximal measure. Zero total mass means the
supremum is infinite, as does failure of the quasihypermetric property. Away
from its threshold, Cholesky factorizations of Schoenberg's form decide both.

M+(X), the same supremum over probability measures, is generally smaller: it
is M(F) for the support F of a maximal probability measure, found by an active
set of such Cholesky solves.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .classify import Analysis, _qh_by_inertia
from .errors import ContradictionError, ConvergenceWarning, InconsistentSystemError, PreconditionError
from .frankwolfe import SimplexMaxResult, maximize_quadratic_on_simplex
from .linalg import cholesky, eigh_pinv_solve, gram_rank, lstsq_minnorm
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


def compute_m(space: MetricSpace, tol: Tolerances | None = None, *, analysis=None) -> MReport:
    """Compute M(X), a maximal measure when one exists, and the bookkeeping.

    Schoenberg's form at the last point, K_ij = d_in + d_jn - d_ij, is -d on
    mass-zero vectors in the basis B = [I; -1'], and B'B = S = I + 11'. With
    ptol = ``pos_tol``, K - ptol S positive definite means strictly QH, and
    K y = g (the last column of d) gives M = g'y and the maximal measure
    [y; 1 - sum y]; K + ptol S not positive definite means not QH, as in
    ``check_quasihypermetric``. In the band between, d alone is decomposed:
    its spectrum re-checks the quasihypermetric verdict by inertia
    (``_qh_by_inertia``) and solves d w = 1, as it does for a Cholesky
    solution that fails a check. A one-point space has M = 0, attained by
    its only probability measure (our convention).
    """
    a = analysis or Analysis(space, tol)
    space, t = a.space, a.tol
    if space.n == 1:
        unit = SignedMeasure(space, np.ones(1))
        return MReport(0.0, unit, None, True, 0.0, ("m:single-point-convention",))
    k, g, shift = a.form
    # with pos >= rank every eigenvalue of d clears the rank cutoff of the
    # eigendecomposition route, so the maximal measure is unique
    if t.pos >= t.rank and a.strict is not None:
        y = a.strict[1]
        w = np.append(y, 1.0 - y.sum()) / float(g @ y)
        try:
            return _certified(space, w, True, "unique-solution", t)
        except InconsistentSystemError:
            pass  # the eigendecomposition route decides, and raises if it fails too
    elif cholesky(k + shift) is None or not _qh_by_inertia(a):
        return MReport._infinite((TAG_NOT_QUASIHYPERMETRIC,))
    w0, residual, rank, null_basis = eigh_pinv_solve(space.dist, np.ones(space.n), t.rank, a.eig_d)
    if residual > t.res_tol(space.n):
        raise InconsistentSystemError(
            f"the system d w = 1 is inconsistent (residual {residual:.3e}) although the "
            "quasihypermetric check passed; tolerances may be mis-set for this input"
        )
    w, how = _canonical_solution(w0, null_basis)
    mass = float(w.sum())
    if abs(mass) <= t.mass_tol(space.n):
        return MReport._infinite((TAG_ZERO_MASS, f"m:{how}"), mass, residual)
    # d w = 1 is consistent, so null vectors of d have mass zero and the
    # bordered matrix of uniqueness_of_maximal has full rank iff d does
    return _certified(space, w, rank == space.n, how, t)


def _certified(space: MetricSpace, w: np.ndarray, unique: bool, how: str, t: Tolerances) -> MReport:
    """The report for a solution w of d w = 1, once its residual, its mass and
    the potential of the maximal measure w / mass have passed their checks."""
    mass = float(w.sum())
    residual = float(np.linalg.norm(space.dist @ w - 1.0))
    measure = SignedMeasure(space, w / mass)
    deviation = float(np.max(np.abs(potential(measure) - 1.0 / mass)))
    if (
        residual > t.res_tol(space.n)
        or abs(mass) <= t.mass_tol(space.n)
        or deviation > t.inv_tol(space.n, space.diameter)
    ):
        raise InconsistentSystemError(
            "maximal-measure certificate failed: the solution of d w = 1 has residual "
            f"{residual:.3e} and mass {mass:.3e}, and the potential of the solved measure "
            f"deviates from M by up to {deviation:.3e}"
        )
    tags = ("m:linear-system-pseudoinverse", f"m:{how}")
    return MReport(1.0 / mass, measure, None, unique, 1.0 / mass, tags, mass, residual)


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
    a strict margin or rank(d) = n; this bordered Gram rank is the
    independent route.
    """
    t = tol if tol is not None else DEFAULT_TOLERANCES
    bordered = np.vstack([space.dist, np.ones((1, space.n))])
    return gram_rank(bordered, rank_rel=t.rank) == space.n


def maximize_energy_over_probability(
    space: MetricSpace, tol: Tolerances | None = None
) -> SimplexMaxResult:
    """Maximization of the energy over probability measures by the exact active set."""
    t = tol if tol is not None else DEFAULT_TOLERANCES
    return maximize_quadratic_on_simplex(
        space.dist, gap_tol=t.fw_tol(space.diameter), max_iter=t.fw_max_iter
    )


def compute_m_plus(space: MetricSpace, tol: Tolerances | None = None) -> float:
    """Compute M+(X) = sup of the energy over probability measures.

    Requires a quasihypermetric space with finite M (which makes the simplex
    problem a concave maximization whose gap criterion is sound). Warns and
    returns the best value found if the active set stalls before its gap
    criterion is met.
    """
    t = tol if tol is not None else DEFAULT_TOLERANCES
    return _m_plus_from_report(space, compute_m(space, tol=t), t).m_plus


def _m_plus_from_report(space: MetricSpace, report: MReport, t: Tolerances) -> MReport:
    """``report`` with M+ and its certificate attached (``compute_m_plus`` for
    a space whose ``compute_m`` report is in hand)."""
    if TAG_NOT_QUASIHYPERMETRIC in report.method_tags:
        raise PreconditionError("M+ is only computed for quasihypermetric spaces")
    if not report.is_finite:
        raise PreconditionError("M+ is only computed when M(X) is finite")
    result = maximize_energy_over_probability(space, tol=t)
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
