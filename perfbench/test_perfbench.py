"""Self-tests of the benchmark: inputs, checks, tracer and the no-source exit.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types

import benchenv

benchenv.pin_threads()
benchenv.use_source()

import ops  # noqa: E402
import pytest  # noqa: E402
import run  # noqa: E402
from dgspec import cli, digraph  # noqa: E402
from layers import LayerTracer, package_modules, public_functions  # noqa: E402


@pytest.mark.parametrize("workload", ["dense", "blocks"])
def test_same_seed_gives_identical_inputs(workload):
    first = [ops.make_case(workload, 5, ops.TIMED, i).text for i in range(3)]
    again = [ops.make_case(workload, 5, ops.TIMED, i).text for i in range(3)]
    assert first == again
    assert len(set(first)) == 3
    assert ops.make_case(workload, 6, ops.TIMED, 0).text != first[0]
    assert ops.make_case(workload, 5, ops.WARMUP, 0).text != first[0]


@pytest.mark.parametrize("index", range(len(ops.BLOCKS_CYCLE)))
def test_blocks_variants_pass_their_checks(index):
    case = ops.make_case("blocks", 3, ops.TIMED, index)
    assert ops.check_reports(case, ops.reference(case), ops.run_op(cli, case.text)) == []


def _corrupt(reports: dict, kind: str, edit) -> dict:
    data = json.loads(reports[kind])
    edit(data)
    return {**reports, kind: json.dumps(data)}


@pytest.fixture(scope="module")
def upper_case():
    case = ops.make_case("blocks", 3, ops.TIMED, 0)
    assert ops.BLOCKS_CYCLE[0] == "upper"
    return case, ops.reference(case), ops.run_op(cli, case.text)


@pytest.mark.parametrize(
    "kind, edit",
    [
        ("energy", lambda d: d.update(energy=d["energy"] * (1 + 1e-6))),
        ("energy", lambda d: d["vertex_energy_out"].__setitem__(7, d["vertex_energy_out"][7] + 1e-6)),
        ("energy", lambda d: d["vertex_energy_in"].reverse()),
        ("bounds", lambda d: d.update(upper_equal=not d["upper_equal"])),
        ("bounds", lambda d: d.update(randic=d["randic"] * (1 + 1e-6))),
        ("classify", lambda d: d.update(upper_equality=None)),
        ("classify", lambda d: d["lower_equality"].pop()),
    ],
)
def test_corrupted_result_is_caught(upper_case, kind, edit):
    case, ref, reports = upper_case
    assert ops.check_reports(case, ref, reports) == []
    assert ops.check_reports(case, ref, _corrupt(reports, kind, edit))


def test_corrupted_op_counts_as_failed():
    def emit_report(G, which, tol=1e-9):
        text = cli.emit_report(G, which, tol)
        if which != "energy":
            return text
        data = json.loads(text)
        data["energy"] *= 1 + 1e-6
        return json.dumps(data)

    fake = types.SimpleNamespace(parse_edge_list=cli.parse_edge_list, emit_report=emit_report)
    assert len(run.measure(run.Workload("blocks", 1, fake), 0.1, False)[0]["bad"]) == 1
    assert not run.measure(run.Workload("blocks", 1, cli), 0.1, False)[0]["bad"]


def test_sweep_check_needs_the_golden_summary():
    props = dict.fromkeys([f"p{i}" for i in range(12)], ops.SWEEP_GRAPHS)
    good = {"total_graphs": ops.SWEEP_GRAPHS, "failure_count": 0, "failures": [], "properties": props}
    assert ops.check_sweep(good) == []
    assert ops.check_sweep({**good, "total_graphs": 4164})
    assert ops.check_sweep({**good, "failure_count": 1})
    assert ops.check_sweep({**good, "properties": {**props, "p3": ops.SWEEP_GRAPHS - 1}})


def test_tracer_wraps_every_alias_and_restores_them():
    originals = public_functions()
    by_id = {id(fn): name for name, fn in originals.items()}
    bound = [(m, a, v) for m in package_modules() for a, v in vars(m).items() if id(v) in by_id]
    aliases = {m.__name__ for m, a, v in bound if a == "energy_report"}
    assert {"dgspec", "dgspec.energy", "dgspec.oracle", "dgspec.randic", "dgspec.hermitian", "dgspec.cli"} <= aliases

    with pytest.raises(RuntimeError), LayerTracer().traced():
        for module, attr, value in bound:
            now = getattr(module, attr)
            assert now is not value and now.__wrapped__ is value, f"{module.__name__}.{attr}"
        raise RuntimeError("leave the block by an exception")
    assert all(getattr(m, a) is v for m, a, v in bound)


def test_tracer_counts_and_self_times_add_up():
    G = digraph.gen_cycle(37)  # a graph no other test reports on, so the cache is cold
    tracer = LayerTracer()
    with tracer.traced():
        cli.emit_report(G, "energy")
        cli.emit_report(G, "bounds")
    m = tracer.metrics()
    assert m["cli.emit_report.calls"] == 2
    assert m["energy.energy_report.calls"] == 2
    assert m["densela.adjacency.calls"] == 1
    assert m["energy.report_cache_hit_ratio"] == 0.5
    assert m["densela.sym_eigen.calls"] == 3
    assert m["densela.eig_dim3_sum"] == 3 * 37**3
    # emit_report is the only root span, so every self time is part of it
    self_total = sum(v for k, v in m.items() if k.endswith(".self_ms"))
    assert self_total == pytest.approx(m["cli.emit_report.ms"], rel=1e-9)


def test_traced_run_reports_overhead_and_no_cross_op_reuse():
    work = run.Workload("blocks", 2, cli)
    work.set_up()
    samples = run.measure(work, 2.0, True)
    assert any(s["traced"] for s in samples) and any(not s["traced"] for s in samples)
    layers = run.per_layer(samples)
    assert layers["trace_overhead"] > 0
    assert layers["energy.report_cache_hit_ratio"] == 0.5
    assert layers["oracle.check_graph.calls"] == 0


def test_traced_sweep_op_checks_every_labelled_graph():
    sample = run.Sweep("sweep", 0, cli).op(0, traced=True)
    assert sample["bad"] == []
    assert sample["layers"]["oracle.check_graph.calls"] == ops.SWEEP_GRAPHS


def test_run_without_sources_exits_nonzero(tmp_path):
    bench = benchenv.HERE
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    (tmp_path / bench.name).mkdir()
    for f in bench.glob("*.py"):
        shutil.copy(f, tmp_path / bench.name / f.name)
    proc = subprocess.run(
        [sys.executable, f"{bench.name}/run.py", "--workload", "dense", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
