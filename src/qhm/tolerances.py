"""Single source of truth for every numeric tolerance used by the package.

All thresholds live in one frozen record so that a report can echo exactly
the values a run used and a re-run with the same record reproduces it.
Most knobs are dimensionless coefficients that get multiplied by the natural
scale of the problem (point count, diameter); the helper methods compute the
absolute thresholds.

Overrides: ``Tolerances.from_overrides`` merges, in order, the defaults,
``QHM_TOL_<NAME>`` environment variables, and explicit ``key=value`` pairs.
Every value must be a finite non-negative number, and that of an int field
an integral one (``1e5`` included, stored as an int); any other raises
``ValueError`` naming the key when the record is built, however it is built.
A float field stores its value as a Python float, so ``pos=1``, ``pos=True``
and numpy scalars serialize as ``--tol pos=1`` does.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import os
from dataclasses import dataclass

ENV_PREFIX = "QHM_TOL_"


@dataclass(frozen=True)
class Tolerances:
    # metric validation: triangle slack relative to the largest distance
    triangle_rel: float = 1e-9
    # eigenvalue positivity slack, x n x diameter
    pos: float = 1e-9
    # strictness margin for near-zero eigenvalues, x n x diameter
    neg: float = 1e-9
    # relative cutoff for rank / nullspace decisions
    rank: float = 1e-10
    # mass-zero threshold on a dimensionless mass, x n: a measure's, or that
    # of a solution of d w = 1 times the diameter
    mass: float = 1e-8
    # linear-system consistency residual, x n (the system d w = 1 has a
    # dimensionless residual, so no diameter factor)
    residual: float = 1e-7
    # constancy threshold for potentials, x n x diameter
    invariant: float = 1e-7
    # embedding isometry slack, x diameter
    embed: float = 1e-7
    # circumsphere relative residual threshold
    sphere: float = 1e-7
    # min-norm-point stopping slack and weight cleanup
    minnorm: float = 1e-12
    # M+ duality-gap threshold, x diameter, and cap on the active set's face
    # solves (which also stops at 2n)
    fw_gap: float = 1e-10
    fw_max_iter: int = 100000
    # refuse integer enumerations needing more than this much work, n*(2B+1)^n
    hyper_budget: float = 1e8

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, numbers.Real):
                if type(f.default) is int and not float(value).is_integer():
                    raise ValueError(f"tolerance {f.name!r} expects int, got {value!r}")
                object.__setattr__(self, f.name, value := type(f.default)(value))
            if not (isinstance(value, numbers.Real) and math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"tolerance {f.name!r} must be a finite non-negative number, got {value!r}"
                )

    # -- absolute thresholds -------------------------------------------------

    def pos_tol(self, n: int, diameter: float) -> float:
        return self.pos * n * diameter

    def neg_tol(self, n: int, diameter: float) -> float:
        return self.neg * n * diameter

    def mass_tol(self, n: int) -> float:
        return self.mass * n

    def res_tol(self, n: int) -> float:
        return self.residual * n

    def inv_tol(self, n: int, diameter: float) -> float:
        return self.invariant * n * diameter

    def emb_tol(self, diameter: float) -> float:
        return self.embed * diameter

    def fw_tol(self, diameter: float) -> float:
        return self.fw_gap * diameter

    def energy_zero_tol(self, n: int, diameter: float, weight_scale: float) -> float:
        # |I(mu)| <= diameter * ||mu||_1^2, so scale the clamp by the same bound
        return self.pos * n * diameter * max(1.0, weight_scale**2)

    # -- serialization and overrides -----------------------------------------

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Tolerances":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise KeyError(f"unknown tolerance keys: {sorted(unknown)}")
        return cls(**{k: cls._cast(k, v) for k, v in data.items()})

    @classmethod
    def from_overrides(cls, pairs=(), env=None) -> "Tolerances":
        """Build a record from defaults, then env vars, then ``key=value`` pairs."""
        env = os.environ if env is None else env
        values: dict = {}
        fields = {f.name for f in dataclasses.fields(cls)}
        for name in fields:
            raw = env.get(ENV_PREFIX + name.upper())
            if raw is not None:
                values[name] = raw
        for pair in pairs:
            key, sep, raw = pair.partition("=")
            if not sep:
                raise ValueError(f"tolerance override {pair!r} is not of the form key=value")
            values[key.strip()] = raw.strip()
        for key in values:
            if key not in fields:
                raise ValueError(f"unknown tolerance {key!r}")
        return cls(**{k: cls._cast(k, v) for k, v in values.items()})

    @classmethod
    def _cast(cls, name: str, raw) -> float:
        """``raw`` parsed as a number; ``__post_init__`` applies the field's rule."""
        try:
            return float(raw)
        except (TypeError, ValueError):
            kind = type(getattr(cls, name)).__name__
            raise ValueError(f"tolerance {name!r} expects {kind}, got {raw!r}") from None


DEFAULT_TOLERANCES = Tolerances()
