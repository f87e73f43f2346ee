"""The tolerance record: overrides, serialization, scale helpers."""

import importlib
import inspect
import json
import math
import pkgutil

import numpy as np
import pytest

import qhm
from qhm import compute_m_plus
from qhm.cli import main
from qhm.tolerances import DEFAULT_TOLERANCES, Tolerances


def test_defaults_scale_with_problem_size():
    t = DEFAULT_TOLERANCES
    assert t.pos_tol(5, 5.0) == pytest.approx(2.5e-8)
    assert t.mass_tol(4) == pytest.approx(4e-8)
    assert t.res_tol(3) == pytest.approx(3e-7)
    assert t.fw_tol(2.0) == pytest.approx(2e-10)


def test_round_trip_dict():
    t = Tolerances(rank=1e-12, fw_max_iter=500)
    assert Tolerances.from_dict(t.to_dict()) == t
    with pytest.raises(KeyError):
        Tolerances.from_dict({"rank": 1e-12, "bogus": 1.0})


def test_overrides_pairs_and_env():
    t = Tolerances.from_overrides(["rank=1e-13", "fw_max_iter=42"], env={})
    assert t.rank == 1e-13
    assert t.fw_max_iter == 42
    t = Tolerances.from_overrides([], env={"QHM_TOL_SPHERE": "1e-5"})
    assert t.sphere == 1e-5
    # explicit pairs beat the environment
    t = Tolerances.from_overrides(["sphere=1e-4"], env={"QHM_TOL_SPHERE": "1e-5"})
    assert t.sphere == 1e-4


def test_override_validation():
    with pytest.raises(ValueError):
        Tolerances.from_overrides(["rank"], env={})
    with pytest.raises(ValueError):
        Tolerances.from_overrides(["nope=3"], env={})


def test_env_and_dict_cast_alike():
    raw = {"rank": "1e-12", "fw_max_iter": "500", "hyper_budget": "2e7", "sphere": "3"}
    env = {"QHM_TOL_" + k.upper(): v for k, v in raw.items()}
    from_env = Tolerances.from_overrides([], env=env)
    from_dict = Tolerances.from_dict(raw)
    assert from_env == from_dict
    assert type(from_dict.fw_max_iter) is int and type(from_dict.sphere) is float
    with pytest.raises(ValueError):
        Tolerances.from_dict({"fw_max_iter": "1.5"})
    with pytest.raises(ValueError):
        Tolerances.from_overrides(["fw_max_iter=1.5"], env={})


@pytest.mark.parametrize(
    "key, raw", [("pos", "-1"), ("pos", "nan"), ("neg", "inf"), ("hyper_budget", "-5"), ("fw_max_iter", "-3")]
)
def test_negative_nan_and_infinite_values_are_refused(key, raw):
    builds = (
        lambda: Tolerances(**{key: float(raw)}),
        lambda: Tolerances.from_overrides([f"{key}={raw}"], env={}),
        lambda: Tolerances.from_overrides([], env={"QHM_TOL_" + key.upper(): raw}),
        lambda: Tolerances.from_dict({key: raw}),
    )
    for build in builds:
        with pytest.raises(ValueError, match=key):
            build()
    assert Tolerances(**{key: 0}).to_dict()[key] == 0


def test_int_field_takes_integral_values_however_built(star):
    t = Tolerances(fw_max_iter=1e5)
    assert type(t.fw_max_iter) is int and t == Tolerances.from_overrides(["fw_max_iter=1e5"], env={})
    assert compute_m_plus(star, tol=Tolerances(fw_max_iter=2e3)) > 0
    for value in (2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="fw_max_iter"):
            Tolerances(fw_max_iter=value)


@pytest.mark.parametrize("value", [1, True, np.int64(1), np.float32(1e-9)])
def test_float_field_stores_a_float_however_built(capsys, tmp_path, star, value):
    """A float field given an int, a bool or a numpy scalar builds the same
    report document, byte for byte, as ``--tol pos=`` with that number."""
    t = Tolerances(pos=value)
    assert type(t.pos) is float and t.pos == float(value)
    path = str(tmp_path / "star.csv")
    qhm.dump(star, path)
    assert main(["report", path, "--tol", f"pos={float(value)!r}"]) == 0
    doc = qhm.build_report(star, tol=t)
    doc["input_path"] = path
    assert json.dumps(doc, indent=2) + "\n" == capsys.readouterr().out


def test_every_public_tol_parameter_is_a_tolerance_record():
    """Every parameter named ``tol`` of a public function or method in a qhm
    module is annotated as a ``Tolerances`` record (or None)."""
    names = [info.name for info in pkgutil.iter_modules(qhm.__path__) if info.name != "__main__"]
    found, wrong = 0, []
    for module in (importlib.import_module(f"qhm.{name}") for name in names):
        for attr, value in vars(module).items():
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            members = [value] if inspect.isfunction(value) else []
            if inspect.isclass(value):
                members += [f for k, f in vars(value).items() if inspect.isfunction(f) and not k.startswith("_")]
            for fn in members:
                param = inspect.signature(fn).parameters.get("tol")
                if param is not None:
                    found += 1
                    if param.annotation not in ("Tolerances", "Tolerances | None"):
                        wrong.append(f"{module.__name__}.{fn.__qualname__}: {param.annotation}")
    assert wrong == []
    assert found >= 20, found
