import math
import os

import numpy as np
import pytest

from dgspec import (
    bounds_certificate,
    check_graph,
    double,
    energy_report,
    enumerate_digraphs,
    gen_cycle,
    gen_random,
    new_digraph,
    sweep,
    undirected_energy,
)
from dgspec import oracle
from dgspec.energy import _decompose
from dgspec.hermitian import _energies
from dgspec.errors import BadParameterError
from dgspec.oracle import PROPERTY_NAMES, PropertyResult, arc_pairs, digraph_of_code


def test_property_name_roster():
    assert len(PROPERTY_NAMES) == 12
    assert len(set(PROPERTY_NAMES)) == 12


@pytest.mark.parametrize("n,count", [(1, 1), (2, 4), (3, 64), (4, 4096)])
def test_enumeration_counts(n, count):
    graphs = list(enumerate_digraphs(n))
    assert len(graphs) == count
    assert len({g.arcs for g in graphs}) == count  # duplicate-free
    for i, g in enumerate(graphs):
        assert g == digraph_of_code(n, i)  # increasing code order


def test_code_round_trip():
    pairs = arc_pairs(3)
    assert pairs == ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))
    assert arc_pairs(4) is arc_pairs(4)
    for code, arcs in ((0, ()), (1, ((0, 1),)), (5, ((0, 1), (1, 0))), (63, pairs)):
        assert digraph_of_code(3, code).arcs == arcs


def test_enumeration_rejects_bad_n():
    # the count is checked at the call, not when the first graph is drawn
    for n in (0, 6, 2.0):
        with pytest.raises(BadParameterError):
            enumerate_digraphs(n)


def test_check_graph_digon_triangle(digon_triangle):
    outcome = check_graph(digon_triangle, 1e-9)
    assert outcome.ok()
    assert set(outcome.results) == set(PROPERTY_NAMES)
    prod = outcome.results["pair_product"]
    assert prod.witness == "arc (2, 0)"  # the tight pair
    assert abs(prod.slack) <= 1e-9


def test_check_graph_cycle_equalities():
    outcome = check_graph(gen_cycle(4), 1e-9)
    assert outcome.ok()
    assert abs(outcome.results["lower_equality_iff"].slack) <= 1e-12
    assert abs(outcome.results["upper_equality_iff"].slack) <= 1e-12


def test_check_graph_ties_name_the_first_arc_and_vertex():
    # every product of C4 is exactly 1 and every vertex slack exactly 0, so
    # each witness is the first minimum: the first arc and the first vertex
    results = check_graph(gen_cycle(4)).results
    assert results["pair_product"] == PropertyResult(True, 0.0, "arc (0, 1)")
    assert results["pair_sum"] == PropertyResult(True, 0.0, "arc (0, 1)")
    assert results["vertex_degree_bound"] == PropertyResult(True, 0.0, "vertex 0")
    # plain floats, not numpy scalars, so repr(PropertyResult) names no numpy type
    assert all(type(r.slack) is float for r in results.values())


@pytest.mark.parametrize(
    "target,prop,multiple,ok",
    [
        ("undirected_energy", "transfer_energy", 5.0, True),
        ("undirected_energy", "transfer_energy", 20.0, False),
        ("undirected_randic", "transfer_randic", 0.05, True),
        ("undirected_randic", "transfer_randic", 0.5, False),
    ],
)
def test_tolerance_multiples_at_their_boundaries(monkeypatch, target, prop, multiple, ok):
    # the energy transfer is judged within 10 tol, the Randic transfer within 0.1 tol
    tol = 1e-9
    exact = getattr(oracle, target)
    monkeypatch.setattr(oracle, target, lambda H: exact(H) + multiple * tol)
    assert check_graph(gen_cycle(4), tol).results[prop].ok is ok


def test_check_graph_transitive_triangle(unsplittable):
    outcome = check_graph(unsplittable, 1e-9)
    assert outcome.ok()
    # strict inequality on the lower bound, consistent with no splitting
    assert outcome.results["lower_equality_iff"].slack > 1e-3


@pytest.mark.xfail(
    strict=True,
    reason="squaring A into A A^T loses singular values below ~sqrt(n eps) sigma_max",
)
def test_check_graph_ill_conditioned_lower_triangular_block():
    # 40 x 40 lower-triangular 0/1 block, ones on the diagonal and at odd
    # offsets below it, embedded as arcs i -> 40 + j; E(G) is off by ~1e-8
    arcs = [(i, 40 + j) for i in range(40) for j in range(i + 1) if (i - j) % 2 or i == j]
    outcome = check_graph(new_digraph(80, arcs))
    assert outcome.ok(), {k: r for k, r in outcome.results.items() if not r.ok}


def test_check_graph_vacuous_on_single_vertex():
    outcome = check_graph(new_digraph(1, []), 1e-9)
    assert outcome.ok()
    assert outcome.results["pair_product"].slack is None
    assert outcome.results["pair_product"].witness is None


def test_check_outcome_deterministic(digon_triangle):
    fresh = new_digraph(3, [(0, 1), (1, 2), (0, 2), (2, 0)])
    assert check_graph(digon_triangle, 1e-9) == check_graph(fresh, 1e-9)


def test_sweep_3():
    summary = sweep(3, 1e-9)
    assert summary.total == 69
    assert summary.ok()
    assert all(summary.pass_counts[name] == 69 for name in PROPERTY_NAMES)
    assert summary.min_pair_product >= 1 - 1e-9
    assert summary.min_lower_slack >= -1e-9
    assert summary.min_upper_slack >= -1e-9


def test_sweep_parallel_matches_serial():
    # n = 3 has 64 codes, more than 4 per job, so its code range is split
    serial = sweep(3, 1e-9, jobs=1)
    parallel = sweep(3, 1e-9, jobs=2)
    assert serial.to_dict() == parallel.to_dict()


def test_sweep_starts_at_most_one_worker_per_cpu(monkeypatch):
    started = []

    class FakePool:
        """Records the processes asked for and maps in this process."""

        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, tasks):
            return [func(task) for task in tasks]

    expected = sweep(3).to_dict()
    monkeypatch.setattr("dgspec.oracle.Pool", FakePool)
    assert sweep(3, jobs=10**6).to_dict() == expected
    assert all(p <= (os.cpu_count() or 1) for p in started)
    # the CPU count caps the pool; one CPU, or none reported, runs in this process
    for cpus, pools in ((3, [3]), (1, []), (None, [])):
        started.clear()
        monkeypatch.setattr("dgspec.oracle.os.cpu_count", lambda cpus=cpus: cpus)
        assert sweep(3, jobs=10**6).to_dict() == expected
        assert started == pools
    # one task, so no pool however many CPUs and jobs
    started.clear()
    monkeypatch.setattr("dgspec.oracle.os.cpu_count", lambda: 3)
    assert sweep(1, jobs=10**6).to_dict() == sweep(1).to_dict()
    assert started == []


def test_sweep_rejects_bad_max_n():
    with pytest.raises(BadParameterError):
        sweep(0)
    with pytest.raises(BadParameterError):
        sweep(6)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_n": 2.0},
        {"max_n": "2"},
        {"max_n": 2, "jobs": 0},
        {"max_n": 2, "jobs": -3},
        {"max_n": 2, "jobs": 1.0},
        {"max_n": 2, "tol": math.nan},
        {"max_n": 2, "tol": math.inf},
        {"max_n": 2, "tol": -1e-9},
        {"max_n": 2, "tol": "1e-9"},
    ],
)
def test_sweep_checks_its_arguments(kwargs):
    with pytest.raises(BadParameterError):
        sweep(**kwargs)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, -1e-9, "1e-9", None, 1e-9j])
def test_check_graph_refuses_the_tolerances_sweep_refuses(tol):
    # a NaN window would fail every property, a negative one every identity
    with pytest.raises(BadParameterError):
        check_graph(gen_cycle(3), tol=tol)


def test_check_graph_takes_any_finite_real_tolerance():
    for tol in (0.0, 0, np.float64(1e-9), 1e-3):
        assert check_graph(gen_cycle(3), tol=tol).ok()


def test_sweep_takes_integer_like_counts():
    assert sweep(np.int64(2), jobs=np.int64(1), tol=0.0).total == 5


def report_bits(rep) -> tuple:
    return rep.sigma.tobytes(), rep.total.hex(), rep.vertex_out.tobytes(), rep.vertex_in.tobytes()


def test_sweep_batches_give_the_bits_of_one_graph_at_a_time():
    for n in range(1, 5):
        count = 1 << (n * (n - 1))
        primed = oracle._primed_digraphs(n, 0, count)
        for code, G in zip(range(count), primed, strict=True):
            alone = digraph_of_code(n, code)  # a fresh graph with cold caches
            assert G == alone
            assert report_bits(energy_report(G)) == report_bits(energy_report(alone)), (n, code)
            assert undirected_energy(double(G)).hex() == undirected_energy(double(alone)).hex(), (n, code)


def test_mixed_batch_gives_the_bits_of_one_graph_at_a_time():
    def graphs():
        return [gen_random(n, p, seed) for n in (10, 50, 120) for p in (0.05, 0.2, 0.6) for seed in range(4)]

    batch, alone = graphs(), graphs()
    for G, rep in zip(alone, _decompose(batch), strict=True):
        assert report_bits(rep) == report_bits(_decompose([G])[0])
    doubles = [double(G) for G in batch]
    for H, energy in zip(doubles, _energies(doubles), strict=True):
        assert energy.hex() == _energies([H])[0].hex()


def test_lower_equality_counts_cross_validate():
    """Count equality graphs two ways: numeric slack vs double completeness."""
    numeric = 0
    structural = 0
    for G in enumerate_digraphs(3):
        if abs(bounds_certificate(G).lower_slack) <= 1e-8:
            numeric += 1
        # independent completeness check over the double's components
        H = double(G)
        adj = {v: set() for v in range(H.n)}
        for a, b in H.edges:
            adj[a].add(b)
            adj[b].add(a)
        seen: set[int] = set()
        complete = True
        for v in range(H.n):
            if v in seen or not adj[v]:
                continue
            comp = {v}
            frontier = [v]
            while frontier:
                x = frontier.pop()
                for y in adj[x]:
                    if y not in comp:
                        comp.add(y)
                        frontier.append(y)
            seen |= comp
            minus = {x for x in comp if x < H.n // 2}
            plus = comp - minus
            edge_count = sum(len(adj[x] & plus) for x in minus)
            if edge_count != len(minus) * len(plus):
                complete = False
        if complete:
            structural += 1
    assert numeric == structural
