"""The per-layer metrics the benchmark declares must name real functions.

The tracer wraps every public function a dgspec module defines, and a traced
run fails when a declared ``<layer>.<fn>.(calls|ms|self_ms)`` metric has no
function behind it, so deleting or renaming one of these functions must fail
here first.  The benchmark's sweep op and its parse-and-report op must also
pass the checks the benchmark applies to their output; the two ``dense``
inputs known to fail them are strict xfails until the block kernel keeps
small singular values.
"""

import importlib
import importlib.util
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dgspec import cli

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


@pytest.fixture
def ops(monkeypatch):
    """The benchmark's inputs, timed operations and checks (perfbench/ops.py)."""
    spec = importlib.util.spec_from_file_location("perfbench_ops", BENCHMARK.parent / "perfbench" / "ops.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_benchmark_sweep_op_passes_its_golden_check(ops):
    """The benchmark's sweep op, run as it runs there, passes the benchmark's own check."""
    worker = subprocess.run(
        [sys.executable, "perfbench/worker.py", "sweep", "--trace", "0"],
        cwd=BENCHMARK.parent, capture_output=True, text=True, check=True,
    )
    result = json.loads(worker.stdout.strip().splitlines()[-1])
    assert ops.check_sweep(result["summary"]) == []


@pytest.mark.parametrize("workload, count", [("dense", 1), ("blocks", 8)])
def test_benchmark_report_op_passes_its_check(ops, workload, count):
    """Parse and report the first timed inputs of a workload (eight cover every
    ``blocks`` variant) and compare with the benchmark's own references."""
    for index in range(count):
        case = ops.make_case(workload, 1, ops.TIMED, index)
        assert ops.check_reports(case, ops.reference(case), ops.run_op(cli, case.text)) == [], index


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="squaring a block into M M^T loses singular values below ~sqrt(k eps) sigma_max",
)
@pytest.mark.parametrize("seed, index", [(2, 51), (26, 61)])
def test_benchmark_dense_ill_conditioned_inputs(ops, seed, index):
    """The two known ``dense`` inputs whose small sigma falls in the Gram clamp
    window, so their vertex energies differ from the benchmark's SVD."""
    case = ops.make_case("dense", seed, ops.TIMED, index)
    assert ops.check_reports(case, ops.reference(case), ops.run_op(cli, case.text)) == []
