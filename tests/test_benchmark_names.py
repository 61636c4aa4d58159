"""The per-layer metrics the benchmark declares must name real functions.

The tracer wraps every public function a dgspec module defines, and a traced
run fails when a declared ``<layer>.<fn>.(calls|ms|self_ms)`` metric has no
function behind it, so deleting or renaming one of these functions must fail
here first.
"""

import importlib
import inspect
import json
import re
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
FUNCTION_METRIC = re.compile(r"(\w+)\.(\w+)\.(calls|ms|self_ms)")


def test_per_layer_metrics_name_public_functions():
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    functions = [match.groups()[:2] for match in map(FUNCTION_METRIC.fullmatch, names) if match]
    assert functions
    for layer, fn in functions:
        module = importlib.import_module(f"dgspec.{layer}")
        value = vars(module).get(fn)
        assert not fn.startswith("_"), f"{layer}.{fn}"
        assert inspect.isfunction(value) and value.__module__ == module.__name__, f"{layer}.{fn}"
