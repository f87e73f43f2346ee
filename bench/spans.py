"""Span tracing of qhm from outside the package, and the per-layer metrics.

``Tracer.install`` replaces every public function of every ``qhm`` module
(plus ``CompactSpaceDescriptor.sample_space``) with a wrapper that records a
span: name, start, end, parent span and op id. Because the package binds
functions with ``from .x import f``, one function can be reachable under
several module namespaces (``compute_m`` sits in ``mconstant``, ``spaces``,
``report``, ``cli`` and the package root); every binding gets the same
wrapper, and ``install`` refuses to proceed if any binding of a wrapped
function is left unwrapped. ``restore`` puts every original back and checks
that no wrapper remains. Spans stay in memory until the run writes them out.

Layers are the qhm modules; a span's name is ``<module>.<function>`` with the
``qhm.`` prefix dropped, e.g. ``linalg.jacobi_eigh``.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import pkgutil
import sys
import types
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache, wraps
from time import perf_counter

import numpy as np

SETUP_OP = "setup"

# methods traced in addition to the module-level functions
_METHODS = (("qhm.spaces", "CompactSpaceDescriptor", "sample_space"),)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    op: str
    extra: object = None  # layer-specific probe value, see _PROBES


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children of one parent never overlap and
    the covered time is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


@lru_cache(maxsize=None)
def grid_rows(n: int, bound: int) -> int:
    """Number of integer vectors in [-bound, bound]^n whose entries sum to 1.

    Counted by dynamic programming over the partial sums, so it costs
    O(n^2 bound^2) instead of the (2 bound + 1)^n enumeration it describes.
    """
    counts = {0: 1}
    for _ in range(n):
        nxt: dict[int, int] = defaultdict(int)
        for total, ways in counts.items():
            for v in range(-bound, bound + 1):
                nxt[total + v] += ways
        counts = nxt
    return counts.get(1, 0)


def _matrix_key(a) -> tuple[int, bytes]:
    arr = np.ascontiguousarray(a, dtype=float)
    digest = hashlib.blake2b(arr.tobytes(), digest_size=16)
    digest.update(repr(arr.shape).encode())
    return arr.shape[0], digest.digest()


def _probe_jacobi(fn, args, kwargs, result):
    return _matrix_key(args[0] if args else kwargs["a"])


def _probe_hypermetric(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return grid_rows(bound.arguments["space"].n, bound.arguments["bound"])


def _probe_iterations(fn, args, kwargs, result):
    return result.iterations


# probes run after a call returns and record what the per-layer metrics need
_PROBES = {
    "linalg.jacobi_eigh": _probe_jacobi,
    "classify.check_hypermetric_bounded": _probe_hypermetric,
    "frankwolfe.maximize_quadratic_on_simplex": _probe_iterations,
    "minnorm.min_norm_point_in_hull": _probe_iterations,
}


def qhm_modules() -> list[types.ModuleType]:
    """The qhm package and every submodule, imported if need be."""
    import qhm

    for info in pkgutil.iter_modules(qhm.__path__):
        if info.name != "__main__":  # importing it would run the CLI
            importlib.import_module(f"qhm.{info.name}")
    return [m for name, m in sorted(sys.modules.items()) if name == "qhm" or name.startswith("qhm.")]


def _label(module_name: str, qualname: str) -> str:
    return f"{module_name.removeprefix('qhm.')}.{qualname}"


def _targets(modules) -> dict[int, tuple[str, types.FunctionType]]:
    """id(original) -> (span name, original) for every function to wrap."""
    out = {}
    for m in modules:
        for attr, val in vars(m).items():
            if (
                isinstance(val, types.FunctionType)
                and not attr.startswith("_")
                and val.__module__ == m.__name__
                and val.__name__ == attr
            ):
                out[id(val)] = (_label(m.__name__, attr), val)
    for mod_name, cls_name, meth in _METHODS:
        fn = vars(getattr(sys.modules[mod_name], cls_name))[meth]
        out[id(fn)] = (_label(mod_name, f"{cls_name}.{meth}"), fn)
    return out


def _namespaces(modules):
    """Every namespace that can bind a function: module dicts and class dicts."""
    for m in modules:
        yield m, vars(m)
        for val in list(vars(m).values()):
            if isinstance(val, type) and val.__module__.startswith("qhm"):
                yield val, vars(val)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = SETUP_OP
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}
        self.labels: list[str] = []  # span names of every wrapped function

    def _wrap(self, name: str, fn):
        probe = _PROBES.get(name)
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.op)
            if probe is not None:
                spans[index] = Span(name, start, end, parent, self.op, probe(fn, args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in every namespace that binds it, then verify."""
        modules = qhm_modules()
        targets = _targets(modules)
        self.labels = sorted(name for name, _ in targets.values())
        self._wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        for owner, ns in _namespaces(modules):
            for attr, val in list(ns.items()):
                wrapper = self._wrappers.get(id(val))
                if wrapper is not None and val is targets[id(val)][1]:
                    setattr(owner, attr, wrapper)
                    self._bindings.append((owner, attr, val))
        left = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, ns in _namespaces(modules)
            for attr, val in ns.items()
            if id(val) in targets and val is targets[id(val)][1]
        ]
        if left:
            self.restore()
            raise RuntimeError(f"tracer left unwrapped bindings: {left}")

    def restore(self) -> None:
        """Put every original back and verify that no wrapper remains."""
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        wrappers = {id(w) for w in self._wrappers.values()}
        left = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, ns in _namespaces(qhm_modules())
            for attr, val in ns.items()
            if id(val) in wrappers
        ]
        wrong = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._bindings
            if getattr(owner, "__dict__", {}).get(attr) is not original
        ]
        self._bindings = []
        if left or wrong:
            raise RuntimeError(f"tracer restore incomplete: wrappers {left}, originals {wrong}")

    def write(self, path) -> None:
        """One JSON line per span, in call order."""
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                extra = s.extra
                if isinstance(extra, tuple):  # (n, digest) of a decomposed matrix
                    extra = [extra[0], extra[1].hex()]
                row = {"id": i, "name": s.name, "start": s.start, "end": s.end,
                       "parent": s.parent, "op": s.op, "extra": extra}
                f.write(json.dumps(row) + "\n")


def layer_metrics(spans: list[Span], passes: int, pass_wall_s: float, labels) -> dict[str, float]:
    """Per-layer metrics for one traced set-up plus one average traced pass.

    Spans of the set-up (op ``setup``) count once; spans of the ``passes``
    traced passes are averaged. ``pass_wall_s`` is the mean traced pass wall
    time, the denominator of ``linalg.jacobi_eigh.share``. Every function in
    ``labels`` gets ``calls`` and ``self_s``, zero when it never ran.
    """
    keys = [
        *(f"{label}.{kind}" for label in labels for kind in ("calls", "self_s")),
        "linalg.jacobi_eigh.n3_sum",
        "linalg.jacobi_eigh.dup_calls",
        "classify.check_hypermetric_bounded.grid_rows",
        "frankwolfe.maximize_quadratic_on_simplex.iterations",
        "minnorm.min_norm_point_in_hull.iterations",
    ]
    setup: dict[str, float] = defaultdict(float)
    traced: dict[str, float] = defaultdict(float)  # summed over the passes
    seen: dict[str, set] = defaultdict(set)
    for s, self_s in zip(spans, self_times(spans)):
        acc = setup if s.op == SETUP_OP else traced
        acc[f"{s.name}.calls"] += 1
        acc[f"{s.name}.self_s"] += self_s
        if s.name == "linalg.jacobi_eigh":
            n, key = s.extra
            acc["linalg.jacobi_eigh.n3_sum"] += n**3
            if key in seen[s.op]:
                acc["linalg.jacobi_eigh.dup_calls"] += 1
            seen[s.op].add(key)
        elif s.name == "classify.check_hypermetric_bounded" and s.extra is not None:
            acc["classify.check_hypermetric_bounded.grid_rows"] += s.extra
        elif s.extra is not None:  # solver iterations
            acc[f"{s.name}.iterations"] += s.extra
    out = {k: setup[k] + traced[k] / passes for k in keys}
    calls = out["linalg.jacobi_eigh.calls"]
    out["linalg.jacobi_eigh.dup_ratio"] = out["linalg.jacobi_eigh.dup_calls"] / calls if calls else 0.0
    out["linalg.jacobi_eigh.share"] = out["linalg.jacobi_eigh.self_s"] / pass_wall_s
    return out


def calls_per_op(spans: list[Span], name: str) -> dict[str, int]:
    """How many spans named ``name`` each op made."""
    out: dict[str, int] = defaultdict(int)
    for s in spans:
        if s.name == name:
            out[s.op] += 1
    return out
