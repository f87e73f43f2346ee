"""Every per-layer metric that ``bench/run.py --trace 1`` reads off a span
names a public function defined in its ``qhm`` module: the traced run looks
each one up, and a function renamed, moved or made private would end it with
a ``KeyError``. ``BENCHMARK.json`` is only read."""

import importlib
import inspect
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_per_layer_span_metrics_name_public_functions_of_their_modules():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [metric["name"].rsplit(".", 1) for metric in spec["per_layer"]]
    spans = {label for label, kind in names if kind in ("calls", "self_s", "iterations")}
    assert len(spans) >= 10
    for label in sorted(spans):
        module_name, function = label.split(".")
        module = importlib.import_module(f"qhm.{module_name}")
        fn = vars(module).get(function)
        assert not function.startswith("_") and inspect.isfunction(fn), label
        assert fn.__module__ == module.__name__ and fn.__name__ == function, label
