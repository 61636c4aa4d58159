"""The per-layer metrics the benchmark declares must name real functions.

The tracer wraps every public function a dgspec module defines, and a traced
run fails when a declared ``<layer>.<fn>.(calls|ms|self_ms)`` metric has no
function behind it, so deleting or renaming one of these functions must fail
here first.  The benchmark's sweep op must also pass the golden check the
benchmark applies to its output.
"""

import importlib
import importlib.util
import inspect
import json
import re
import subprocess
import sys
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


def test_benchmark_sweep_op_passes_its_golden_check(monkeypatch):
    """The benchmark's sweep op, run as it runs there, passes the benchmark's own check."""
    root = BENCHMARK.parent
    spec = importlib.util.spec_from_file_location("perfbench_ops", root / "perfbench" / "ops.py")
    ops = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, ops)  # dataclasses look their module up
    spec.loader.exec_module(ops)
    worker = subprocess.run(
        [sys.executable, "perfbench/worker.py", "sweep", "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    result = json.loads(worker.stdout.strip().splitlines()[-1])
    assert ops.check_sweep(result["summary"]) == []
