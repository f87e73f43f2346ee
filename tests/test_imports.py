"""What ``import qhm`` costs a fresh interpreter: the modules it loads and
the work it does before any call."""

import json
import os
import subprocess
import sys
from pathlib import Path

import qhm

_PROBE = """
import json, sys
before = set(sys.modules)
import qhm
loaded = sorted({name.partition(".")[0] for name in set(sys.modules) - before})
filled = sorted(
    f"{name}.{attr}"
    for name, module in list(sys.modules.items())
    if name == "qhm" or name.startswith("qhm.")
    for attr, value in vars(module).items()
    if hasattr(value, "cache_info") and value.cache_info().currsize
)
print(json.dumps({"loaded": loaded, "filled": filled}))
"""


def test_import_loads_only_the_standard_library_and_numpy_and_fills_no_cache():
    """``import qhm`` in a fresh interpreter loads no top-level module outside
    the standard library, numpy and qhm, and fills no ``lru_cache`` of qhm:
    import time is spent on imports alone."""
    src = str(Path(qhm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    seen = json.loads(out.stdout)
    assert "qhm" in seen["loaded"] and "numpy" in seen["loaded"]
    assert set(seen["loaded"]) <= set(sys.stdlib_module_names) | {"numpy", "qhm"}, seen["loaded"]
    assert seen["filled"] == []
