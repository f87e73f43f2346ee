"""Fixture spaces, random generators, and dense-sampling approximation of M.

The named fixtures are the small spaces that exercise every branch of the
classification: the 5-point Assouad space (quasihypermetric, not hypermetric,
M infinite), the equilateral triple with distance 6 (M = 4), the 4-point
arc-length cycle (quasihypermetric but not strictly, M = 2), and the
1-2 star (M = 3/2 with a signed maximal measure).

For built-in compact spaces (interval, circle, finite point clouds) a
deterministic dense sequence is sampled and M of the first n points is
computed for growing n; by monotonicity under point addition the trace is
non-decreasing and converges to M of the continuum space.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DescriptorError
from .mconstant import TAG_NOT_QUASIHYPERMETRIC, compute_m
from .metric import MetricSpace
from .tolerances import DEFAULT_TOLERANCES, Tolerances

_ASSOUAD5 = np.array(
    [
        [0, 2, 2, 5, 5],
        [2, 0, 4, 3, 3],
        [2, 4, 0, 3, 3],
        [5, 3, 3, 0, 4],
        [5, 3, 3, 4, 0],
    ],
    dtype=float,
)

# four equally spaced points on a circle of radius 4/pi with the arc metric:
# quarter arc 2, half arc 4
_CYCLE4 = np.array(
    [
        [0, 2, 4, 2],
        [2, 0, 2, 4],
        [4, 2, 0, 2],
        [2, 4, 2, 0],
    ],
    dtype=float,
)

# hub plus three leaves: hub-leaf 1, leaf-leaf 2
_STAR_1_2 = np.array(
    [
        [0, 1, 1, 1],
        [1, 0, 2, 2],
        [1, 2, 0, 2],
        [1, 2, 2, 0],
    ],
    dtype=float,
)

_FIXTURE_RE = re.compile(r"^(?P<name>[a-z0-9_]+)(\((?P<args>[^)]*)\))?$")


def discrete_space(n: int, t: float = 1.0) -> MetricSpace:
    """n points with every nonzero distance equal to t."""
    if n < 1:
        raise ValueError("need at least one point")
    return MetricSpace(t * (np.ones((n, n)) - np.eye(n)))


def two_point_space(t: float) -> MetricSpace:
    return MetricSpace(np.array([[0.0, t], [t, 0.0]]))


def make_fixture(name: str) -> MetricSpace:
    """Build a fixture space by name.

    Known names: ``assouad5``, ``equilateral3_6``, ``cycle4_arclength``,
    ``star_1_2``, ``twopoint(t)``, ``discrete(n,t)``.
    """
    m = _FIXTURE_RE.match(name.strip())
    if not m:
        raise KeyError(f"unknown fixture {name!r}")
    base, args = m.group("name"), m.group("args")
    if base == "assouad5" and args is None:
        return MetricSpace(_ASSOUAD5)
    if base == "equilateral3_6" and args is None:
        return discrete_space(3, 6.0)
    if base == "cycle4_arclength" and args is None:
        return MetricSpace(_CYCLE4)
    if base == "star_1_2" and args is None:
        return MetricSpace(_STAR_1_2)
    if base == "twopoint":
        if args is None:
            raise KeyError("twopoint needs a distance, e.g. twopoint(1.5)")
        return two_point_space(float(args))
    if base == "discrete":
        if args is None:
            raise KeyError("discrete needs (n,t), e.g. discrete(4,1.0)")
        parts = args.split(",")
        if len(parts) != 2:
            raise KeyError("discrete needs exactly two arguments (n,t)")
        return discrete_space(int(parts[0]), float(parts[1]))
    raise KeyError(f"unknown fixture {name!r}")


FIXTURE_NAMES = ("assouad5", "equilateral3_6", "cycle4_arclength", "star_1_2")


def from_euclidean(points) -> MetricSpace:
    """The metric space of a finite set of points in R^m with the Euclidean metric."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    diff = pts[:, None, :] - pts[None, :, :]
    # MetricSpace raises DuplicatePointError on repeated points
    return MetricSpace(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)))


def random_metric(n: int, seed: int) -> MetricSpace:
    """A random n-point metric space, deterministic in the seed.

    Draws a symmetric matrix of positive entries and repairs the triangle
    inequality by shortest-path closure, which always terminates and keeps
    all off-diagonal distances positive.
    """
    if n < 1:
        raise ValueError("need at least one point")
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.2, 3.0, size=(n, n))
    d = (a + a.T) / 2.0
    np.fill_diagonal(d, 0.0)
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    return MetricSpace(d)


# ---------------------------------------------------------------------------
# dense sequences on built-in compact spaces
# ---------------------------------------------------------------------------


def van_der_corput(k: int) -> float:
    """The k-th term (k >= 1) of the base-2 van der Corput sequence in (0, 1)."""
    x, f = 0.0, 0.5
    while k:
        if k & 1:
            x += f
        k >>= 1
        f *= 0.5
    return x


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _positive(value, what: str) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise DescriptorError(f"{what} must be a positive number") from None
    if not math.isfinite(value) or value <= 0:
        raise DescriptorError(f"{what} must be a positive number")
    return value


@dataclass(frozen=True)
class CompactSpaceDescriptor:
    """A built-in compact space together with its deterministic dense sampler.

    Kinds: ``interval`` (length L, sampled by the endpoints followed by the
    van der Corput sequence), ``circle`` (circumference C with the arc
    metric, sampled by four equally spaced points followed by the
    golden-angle sequence), and ``euclidean_pointcloud`` (a finite point set,
    enumerated in a seed-determined order).
    """

    kind: str
    length: float | None = None
    circumference: float | None = None
    points: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if self.kind == "interval":
            object.__setattr__(self, "length", _positive(self.length, "interval length"))
        elif self.kind == "circle":
            object.__setattr__(
                self, "circumference", _positive(self.circumference, "circle circumference")
            )
        elif self.kind == "euclidean_pointcloud":
            if not self.points:
                raise DescriptorError("euclidean_pointcloud needs points")
            try:
                pts = tuple(tuple(float(x) for x in p) for p in self.points)
            except (TypeError, ValueError):
                raise DescriptorError("points must be lists of numbers") from None
            if len({len(p) for p in pts}) != 1 or not pts[0]:
                raise DescriptorError("points must all have the same, nonzero number of coordinates")
            object.__setattr__(self, "points", pts)
        else:
            raise DescriptorError(f"unknown descriptor kind {self.kind!r}")

    def max_points(self) -> int | None:
        return len(self.points) if self.kind == "euclidean_pointcloud" else None

    def sample_space(self, n: int, seed: int = 0) -> MetricSpace:
        """The metric space of the first n sample points."""
        if self.kind == "interval":
            length = float(self.length)
            xs = [0.0, length]
            k = 1
            while len(xs) < n:
                xs.append(length * van_der_corput(k))
                k += 1
            pos = np.array(xs[:n])
            return MetricSpace(np.abs(pos[:, None] - pos[None, :]))
        if self.kind == "circle":
            c = float(self.circumference)
            # the quarter points, then golden-ratio steps. No two coincide:
            # |m phi - p| >= 1 / (phi^2 m) for integers m >= 1 and p, so step k
            # is at least c / (phi^2 k) from every earlier step and at least
            # c / (16 phi^2 k) from the quarter points
            quarters = [0.0, 0.25 * c, 0.5 * c, 0.75 * c]
            steps = (np.arange(1, max(n - 3, 1)) * _GOLDEN) % 1.0 * c
            pos = np.concatenate([quarters, steps])[:n]
            gap = np.abs(pos[:, None] - pos[None, :])
            return MetricSpace(np.minimum(gap, c - gap))
        cloud = np.array(self.points)
        if n > cloud.shape[0]:
            raise DescriptorError(
                f"the point cloud has {cloud.shape[0]} points, cannot sample {n}"
            )
        order = np.random.default_rng(seed).permutation(cloud.shape[0])
        return from_euclidean(cloud[order[:n]])

    def to_json(self) -> dict:
        doc: dict = {"kind": self.kind}
        if self.kind == "interval":
            doc["length"] = self.length
        elif self.kind == "circle":
            doc["circumference"] = self.circumference
        else:
            doc["points"] = [list(p) for p in self.points]
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "CompactSpaceDescriptor":
        if not isinstance(doc, dict):
            raise DescriptorError(f"a descriptor is a JSON object, not {doc!r}")
        kind = doc.get("kind")
        if kind == "interval":
            return cls(kind="interval", length=doc.get("length"))
        if kind == "circle":
            return cls(kind="circle", circumference=doc.get("circumference"))
        if kind == "euclidean_pointcloud":
            return cls(kind="euclidean_pointcloud", points=doc.get("points"))
        raise DescriptorError(f"unknown descriptor kind {kind!r}")


@dataclass(frozen=True)
class ApproxTrace:
    """M of the first n sample points, for n = 2 .. max_n."""

    descriptor: CompactSpaceDescriptor
    seed: int
    sizes: list[int] = field(default_factory=list)
    m_values: list[float] = field(default_factory=list)
    monotone_ok: bool = True

    @property
    def final(self) -> float:
        return self.m_values[-1]

    def to_json(self) -> dict:
        return {
            "descriptor": self.descriptor.to_json(),
            "seed": self.seed,
            "sizes": list(self.sizes),
            "m_values": ["inf" if math.isinf(v) else v for v in self.m_values],
            "monotone_ok": self.monotone_ok,
        }


def approx_m(
    desc: CompactSpaceDescriptor,
    max_n: int,
    seed: int = 0,
    tol: Tolerances | None = None,
) -> ApproxTrace:
    """Approximate M of a built-in compact space through nested finite samples.

    Since the sample sets are nested, the values are non-decreasing; this is
    verified up to ``inv_tol``, the accuracy to which each M is certified, and
    recorded in ``monotone_ok``. Only the sample of ``max_n`` points is
    validated: each size n is its subspace on the first n points, which
    inherits that validation. A sample failing the quasihypermetric check
    indicates a broken descriptor and raises.
    """
    t = tol if tol is not None else DEFAULT_TOLERANCES
    try:
        max_n = operator.index(max_n)
    except TypeError:
        raise TypeError(f"max_n must be an integer, got {max_n!r}") from None
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    cap = desc.max_points()
    if cap is not None and max_n > cap:
        raise DescriptorError(f"the point cloud has {cap} points, cannot sample {max_n}")
    sizes: list[int] = []
    values: list[float] = []
    monotone = True
    # the samples are nested, so each is a leading block of the largest
    full = desc.sample_space(max_n, seed=seed)
    diameter = full.diameter
    for n in range(2, max_n + 1):
        report = compute_m(full.subspace(range(n)), tol=t)
        if TAG_NOT_QUASIHYPERMETRIC in report.method_tags:
            raise DescriptorError(
                f"sample space of size {n} is not quasihypermetric; descriptor is broken"
            )
        sizes.append(n)
        values.append(report.m_value)
        if len(values) >= 2 and values[-1] < values[-2] - t.inv_tol(n, diameter):
            monotone = False
    return ApproxTrace(desc, seed, sizes, values, monotone)
