"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from dgspec import (
    adjacency,
    adjacent_pair_check,
    bounds_certificate,
    classify_upper_equality,
    disjoint_union,
    double,
    energy_report,
    find_splitting,
    gen_cycle,
    gen_kbip,
    gen_path,
    gen_random,
    new_digraph,
    psd_sqrt,
    randic_index,
    sweep,
    undirected_energy,
    undirected_randic,
)
from dgspec.cli import main
from dgspec.oracle import PROPERTY_NAMES


@contextlib.contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"[{label}] FAIL")
        raise
    print(f"[{label}] PASS")


def test_criterion_1_master_sweep():
    with criterion("criterion 1: exhaustive sweep over n <= 4"):
        summary = sweep(4, 1e-9)
        assert summary.total == 4165
        assert summary.failures == ()
        assert len(PROPERTY_NAMES) == 12
        assert all(summary.pass_counts[name] == 4165 for name in PROPERTY_NAMES)
        assert summary.min_pair_product >= 1 - 1e-9
        assert summary.min_lower_slack >= -1e-9
        assert summary.min_upper_slack >= -1e-9


def test_criterion_2_cycle_and_path_values():
    with criterion("criterion 2: exact cycle/path energy and Randic values"):
        for n in range(2, 11):
            cycle = gen_cycle(n)
            assert abs(energy_report(cycle).total - n) <= 1e-9
            assert randic_index(cycle) == n / 2
            path = gen_path(n)
            assert abs(energy_report(path).total - (n - 1)) <= 1e-9
            assert randic_index(path) == (n - 1) / 2


def _component_unions(max_total):
    """Every multiset of directed paths (k >= 1) and cycles (k >= 2) with
    at most max_total vertices; a 1-vertex path is an isolated vertex."""
    kinds = [("path", k) for k in range(1, max_total + 1)]
    kinds += [("cycle", k) for k in range(2, max_total + 1)]

    def rec(start, budget):
        yield ()
        for i in range(start, len(kinds)):
            name, k = kinds[i]
            if k <= budget:
                for rest in rec(i, budget - k):
                    yield ((name, k),) + rest

    yield from rec(0, max_total)


def test_criterion_3_equality_characterizations(split_example, unsplittable):
    with criterion("criterion 3: both equality characterizations"):
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                cert = bounds_certificate(gen_kbip(n, m))
                assert cert.lower_equal
                assert abs(cert.energy - math.sqrt(n * m)) <= 1e-9
                assert abs(cert.lower - math.sqrt(n * m)) <= 1e-9

        union_count = 0
        for combo in _component_unions(8):
            parts = [gen_path(k) if kind == "path" else gen_cycle(k) for kind, k in combo]
            G = disjoint_union(*parts) if parts else new_digraph(0, [])
            assert bounds_certificate(G).upper_equal, combo
            assert classify_upper_equality(G) is not None, combo
            union_count += 1
        assert union_count > 100  # the enumeration is not vacuous

        assert find_splitting(split_example) is not None
        assert not bounds_certificate(split_example).lower_equal
        assert find_splitting(unsplittable) is None


def test_criterion_4_worked_three_vertex_example(digon_triangle):
    with criterion("criterion 4: worked 3-vertex fixture"):
        root5 = math.sqrt(5.0)
        rep = energy_report(digon_triangle)
        assert abs(rep.total - (1 + root5)) <= 1e-9
        assert np.allclose(rep.vertex_out, [3 / root5, 2 / root5, 1.0], atol=1e-9)
        assert np.allclose(rep.vertex_in, [1.0, 2 / root5, 3 / root5], atol=1e-9)
        products, _ = adjacent_pair_check(digon_triangle)
        assert abs(products[digon_triangle.arcs.index((2, 0))] - 1.0) <= 1e-9
        assert abs(2 * randic_index(digon_triangle) - (math.sqrt(2) + 1.5)) <= 1e-10
        H = double(digon_triangle)
        assert abs(2 * rep.total - undirected_energy(H)) <= 1e-9
        assert abs(2 * randic_index(digon_triangle) - undirected_randic(H)) <= 1e-9


def test_criterion_5_numerical_kernel_at_scale():
    with criterion("criterion 5: numerical kernel on 100 random 50-vertex graphs"):
        for seed in range(100):
            G = gen_random(50, 0.1, seed)
            A = adjacency(G)
            for gram in (A @ A.T, A.T @ A):
                root = psd_sqrt(gram)
                assert np.max(np.abs(root @ root - gram)) <= 1e-8
            rep = energy_report(G)
            assert abs(float(rep.vertex_out.sum() - rep.vertex_in.sum())) <= 1e-8
            assert abs(2 * rep.total - undirected_energy(double(G))) <= 1e-7


def test_criterion_6_cli_contract(monkeypatch, capsys):
    with criterion("criterion 6: CLI exit codes and byte stability"):
        assert main(["sweep", "--max-n", "4"]) == 0
        first_sweep = capsys.readouterr().out
        data = json.loads(first_sweep)
        assert data["total_graphs"] == 4165
        assert data["failure_count"] == 0

        assert main(["gen", "kbip", "2", "3"]) == 0
        edge_list = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO(edge_list))
        assert main(["bounds", "-"]) == 0
        bounds_out = capsys.readouterr().out
        assert json.loads(bounds_out)["lower_equal"] is True

        assert main(["bounds", "missing.txt"]) == 2
        capsys.readouterr()

        # byte stability across consecutive runs
        assert main(["sweep", "--max-n", "3"]) == 0
        a = capsys.readouterr().out
        assert main(["sweep", "--max-n", "3"]) == 0
        assert capsys.readouterr().out == a
        monkeypatch.setattr("sys.stdin", io.StringIO(edge_list))
        assert main(["bounds", "-"]) == 0
        assert capsys.readouterr().out == bounds_out
