"""Assemble the full machine-readable report for one space.

The report is a plain JSON-ready dict: classification verdicts with their
witnesses, the M numbers with provenance, the embedding summary, the
geometric cross-checks (M against 2 r^2, M+ against 2 (r^2 - s^2)), and the
exact tolerance record used, so that re-running with the recorded tolerances
reproduces the document field for field. Infinite M is serialized as the
string "inf".
"""

from __future__ import annotations

import math

import numpy as np

from . import __version__
from .classify import Analysis, Classification, Verdict, classify_space
from .embedding import embedding_to_json, s_embed, with_circumsphere, with_hull_distance
from .errors import ContradictionError
from .io import matrix_digest
from .mconstant import MReport, _m_plus_from_report, compute_m
from .metric import MetricSpace, SignedMeasure
from .tolerances import DEFAULT_TOLERANCES, Tolerances


def _num(value):
    if value is None:
        return None
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return float(value)


def _witness(verdict: Verdict):
    if verdict.witness is None:
        return None
    w = verdict.witness
    if isinstance(w, SignedMeasure):
        w = w.weights
    return [float(x) if isinstance(x, (float, np.floating)) else int(x) for x in np.asarray(w)]


def _verdict_json(verdict: Verdict) -> dict:
    return {"holds": verdict.holds, "witness": _witness(verdict)}


def classification_to_json(c: Classification) -> dict:
    return {
        "quasihypermetric": _verdict_json(c.quasihypermetric),
        "strictly_quasihypermetric": _verdict_json(c.strictly_quasihypermetric),
        "hypermetric_up_to_bound": {
            "bound": c.hypermetric_bound,
            **_verdict_json(c.hypermetric_up_to_bound),
        },
        "matrix_rank": c.matrix_rank,
        "nullspace_dim": int(c.nullspace_basis.shape[1]),
        "nullspace_basis": [[float(x) for x in col] for col in c.nullspace_basis.T],
    }


def m_report_to_json(rep: MReport) -> dict:
    return {
        "m_value": _num(rep.m_value),
        "maximal_measure": None
        if rep.maximal_measure is None
        else [float(x) for x in rep.maximal_measure.weights],
        "m_plus": _num(rep.m_plus),
        "m_plus_certificate": rep.m_plus_certificate,
        "unique_maximal": rep.unique_maximal,
        "invariant_value": _num(rep.invariant_value),
        "solution_mass": _num(rep.solution_mass),
        "system_residual": _num(rep.system_residual),
        "method_tags": list(rep.method_tags),
    }


def build_report(
    space: MetricSpace, hyper_bound: int = 3, tol: Tolerances | None = None
) -> dict:
    """Classify, compute the M numbers, embed, and cross-check, in one document.
    Every step reads one ``Analysis``; the embedding's kernel re-checks its
    Cholesky verdict (n - 1 positive eigenvalues, or ``ContradictionError``).
    M+ is solved before the hull distance, whose min-norm run starts from
    M+'s support."""
    t = tol if tol is not None else DEFAULT_TOLERANCES
    a = Analysis(space, t)
    classification = classify_space(space, hyper_bound=hyper_bound, tol=t, analysis=a)
    m_rep = compute_m(space, tol=t, analysis=a)

    embedding = None
    cross: dict = {"m_vs_sphere": None, "m_plus_vs_hull": None}
    if classification.quasihypermetric.holds:
        emb = with_circumsphere(s_embed(space, tol=t, analysis=a), tol=t)
        if a.strict is not None and emb.dim < space.n - 1:
            raise ContradictionError(
                "strictly quasihypermetric by Cholesky, but the embedding has "
                f"dimension {emb.dim} < n - 1"
            )
        if emb.sphere is not None:
            # M+'s support is the hull's optimal corral on most spaces; Wolfe's
            # method still certifies s by its own optimality test
            start = None
            if m_rep.is_finite:
                m_rep = _m_plus_from_report(space, m_rep, t)
                start = m_rep.m_plus_certificate["support"]
            emb = with_hull_distance(emb, tol=t, start=start)
        embedding = embedding_to_json(emb)
        if m_rep.is_finite and emb.sphere is not None:
            two_r2 = 2.0 * emb.sphere.radius**2
            cross["m_vs_sphere"] = {
                "m": m_rep.m_value,
                "two_r_squared": two_r2,
                "discrepancy": abs(m_rep.m_value - two_r2),
            }
            cross["m_plus_vs_hull"] = {
                "m_plus": m_rep.m_plus,
                "two_r2_minus_s2": emb.m_plus_geometric,
                "discrepancy": abs(m_rep.m_plus - emb.m_plus_geometric),
            }

    return {
        "input_digest": matrix_digest(space),
        "n": space.n,
        "labels": None if space.labels is None else list(space.labels),
        "hyper_bound": hyper_bound,
        "classification": classification_to_json(classification),
        "m_report": m_report_to_json(m_rep),
        "embedding": embedding,
        "cross_checks": cross,
        "tolerances": t.to_dict(),
        "versions": {"qhm": __version__, "numpy": np.__version__},
    }
