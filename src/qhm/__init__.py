"""Distance geometry of finite quasihypermetric spaces.

Compute and certify the energy constant M(X) of a finite metric space, the
measures attaining it, the quasihypermetric / hypermetric classification with
machine-checkable witnesses, Schoenberg embeddings with their circumsphere
and hull geometry, and dense-sampling approximations of M for built-in
compact spaces.
"""

__version__ = "0.1.0"

from .classify import (
    Classification,
    Verdict,
    check_hypermetric_bounded,
    check_quasihypermetric,
    check_strictly_quasihypermetric,
    classify_space,
    distance_matrix_nullspace,
)
from .embedding import (
    SEmbedding,
    Sphere,
    affinely_independent,
    circumsphere,
    fit_circumsphere,
    full_embedding,
    hull_distance,
    recentred_embedding,
    s_embed,
    with_circumsphere,
    with_hull_distance,
)
from .errors import QhmError
from .io import load, dump, matrix_digest, read_csv, read_json, write_csv, write_json
from .mconstant import (
    MReport,
    compute_m,
    compute_m_plus,
    invariant_value,
    mass_of_solution_is_canonical,
    uniqueness_of_maximal,
)
from .metric import MetricSpace, SignedMeasure, energy, mutual_energy, potential, seminorm
from .report import build_report
from .spaces import (
    ApproxTrace,
    CompactSpaceDescriptor,
    approx_m,
    discrete_space,
    from_euclidean,
    make_fixture,
    random_metric,
    two_point_space,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances

__all__ = [
    "ApproxTrace",
    "Classification",
    "CompactSpaceDescriptor",
    "DEFAULT_TOLERANCES",
    "MReport",
    "MetricSpace",
    "QhmError",
    "SEmbedding",
    "SignedMeasure",
    "Sphere",
    "Tolerances",
    "Verdict",
    "affinely_independent",
    "approx_m",
    "build_report",
    "check_hypermetric_bounded",
    "check_quasihypermetric",
    "check_strictly_quasihypermetric",
    "circumsphere",
    "classify_space",
    "compute_m",
    "compute_m_plus",
    "discrete_space",
    "distance_matrix_nullspace",
    "dump",
    "energy",
    "fit_circumsphere",
    "from_euclidean",
    "full_embedding",
    "hull_distance",
    "invariant_value",
    "load",
    "make_fixture",
    "mass_of_solution_is_canonical",
    "matrix_digest",
    "mutual_energy",
    "potential",
    "random_metric",
    "read_csv",
    "read_json",
    "recentred_embedding",
    "s_embed",
    "seminorm",
    "two_point_space",
    "uniqueness_of_maximal",
    "with_circumsphere",
    "with_hull_distance",
    "write_csv",
    "write_json",
]
