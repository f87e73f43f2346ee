"""Exception types, each carrying the process exit code the CLI maps it to.

Exit code conventions: 0 success, 1 usage, 2-9 input validation, 10 and
above computation failures.
"""

from __future__ import annotations


class QhmError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 10


# ---------------------------------------------------------------------------
# input validation (exit codes 2-9)
# ---------------------------------------------------------------------------


class MetricValidationError(QhmError):
    """A distance matrix failed one of the metric axioms or could not be read."""

    exit_code = 9


class AsymmetryError(MetricValidationError):
    exit_code = 2

    def __init__(self, i: int, j: int, dij: float, dji: float):
        super().__init__(f"asymmetry at ({i},{j}): {dij!r} != {dji!r}")
        self.indices = (i, j)


class TriangleViolationError(MetricValidationError):
    exit_code = 3

    def __init__(self, i: int, k: int, j: int, direct: float, detour: float):
        super().__init__(
            f"triangle inequality violated at ({i},{k},{j}): "
            f"d({i},{j})={direct!r} > d({i},{k})+d({k},{j})={detour!r}"
        )
        self.indices = (i, k, j)


class DiagonalError(MetricValidationError):
    exit_code = 4

    def __init__(self, i: int, value: float):
        super().__init__(f"nonzero diagonal entry at ({i},{i}): {value!r}")
        self.index = i


class DuplicatePointError(MetricValidationError):
    exit_code = 5

    def __init__(self, i: int, j: int):
        super().__init__(f"zero distance between distinct points {i} and {j}")
        self.indices = (i, j)


class NonFiniteEntryError(MetricValidationError):
    exit_code = 6

    def __init__(self, where: str):
        super().__init__(f"non-finite entry {where}")


class ParseError(MetricValidationError):
    exit_code = 7

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + loc)
        self.line = line
        self.column = column


class ShapeError(MetricValidationError):
    exit_code = 8


class NegativeDistanceError(MetricValidationError):
    exit_code = 9

    def __init__(self, i: int, j: int, value: float):
        super().__init__(f"negative distance at ({i},{j}): {value!r}")
        self.indices = (i, j)


# ---------------------------------------------------------------------------
# computation (exit codes 10+)
# ---------------------------------------------------------------------------


class DimensionMismatchError(QhmError):
    """Two measures do not live on the same metric space."""

    exit_code = 11


class MassError(QhmError):
    """An operation requiring a fixed total mass was given the wrong one."""

    exit_code = 12


class NegativityError(QhmError):
    """The energy form took a positive value on a mass-zero vector.

    Evidence that the space is not quasihypermetric; the offending vector is
    kept on the exception.
    """

    exit_code = 13

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotQuasihypermetricError(NegativityError):
    exit_code = 13


class InconsistentSystemError(QhmError):
    """A solution of d w = 1 that should pass its checks did not, within tolerance."""

    exit_code = 14


class PreconditionError(QhmError):
    """An operation was called outside its stated domain."""

    exit_code = 15


class BudgetExceededError(QhmError):
    """An enumeration would exceed the configured work budget."""

    exit_code = 16


class ContradictionError(QhmError):
    """Two quantities that are mathematically forced to agree disagreed numerically."""

    exit_code = 17


class DescriptorError(QhmError):
    """A compact-space descriptor produced an invalid sample space."""

    exit_code = 18


class ConvergenceWarning(UserWarning):
    """An iterative solver hit its cap; the best value so far was returned."""
