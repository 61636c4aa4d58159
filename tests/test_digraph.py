import itertools
import sys

import numpy as np
import pytest

from dgspec import (
    degree_profile,
    disjoint_union,
    enumerate_digraphs,
    find_splitting,
    gen_cycle,
    gen_kbip,
    gen_path,
    gen_random,
    new_digraph,
    reverse,
    weak_components,
)
from dgspec.digraph import Digraph
from dgspec.errors import BadParameterError, LoopArcError, OutOfRangeError

from _oracles import bfs_components, relabel


def test_new_digraph_builds_sorted_arc_set():
    G = new_digraph(3, [(1, 2), (0, 1)])
    assert G.n == 3
    assert G.arcs == ((0, 1), (1, 2))
    # numpy integers and bools are integers; they give the plain-int graph
    twin = new_digraph(np.int64(3), [(np.int32(1), np.int64(2)), (False, True)])
    assert twin == G
    assert all(type(x) is int for arc in twin.arcs for x in (twin.n, *arc))


def test_generators_take_numpy_counts():
    # numpy counts give the plain-int graph, which the constructor requires
    for built, want in (
        (gen_cycle(np.int64(5)), gen_cycle(5)),
        (gen_path(np.int32(4)), gen_path(4)),
        (gen_kbip(np.int64(2), np.int16(3)), gen_kbip(2, 3)),
        (gen_random(np.int64(6), 0.4, 7), gen_random(6, 0.4, 7)),
    ):
        assert built == want
        assert all(type(x) is int for arc in built.arcs for x in (built.n, *arc))


def test_constructor_refuses_non_canonical_arcs():
    for n, arcs, error in (
        (3, ((0, 0), (1, 2)), LoopArcError),
        (2, ((0, 5),), OutOfRangeError),
        (2, ((-1, 0),), OutOfRangeError),
        (3, ((1, 2), (0, 1)), BadParameterError),  # unsorted
        (2, ((0, 1), (0, 1)), BadParameterError),  # repeated
        (3, ((0.5, 1),), BadParameterError),
        (3, (("a", 1), (0, 1)), BadParameterError),  # types are checked before order
        (3, [(0, 1)], BadParameterError),
        (3, ((0, 1, 2),), BadParameterError),
        (2.0, (), BadParameterError),
        (-1, (), BadParameterError),
        # no sequence of that many degrees could be built
        (sys.maxsize + 1, (), BadParameterError),
        (10**20, ((0, 10**20 - 1),), BadParameterError),
    ):
        with pytest.raises(error):
            Digraph(n, arcs)
    G = Digraph(3, ((0, 1),))
    assert G == new_digraph(3, [(0, 1)]) and hash(G) == hash(new_digraph(3, [(0, 1)]))


def test_new_digraph_rejects_loop():
    with pytest.raises(LoopArcError):
        new_digraph(3, [(0, 0)])


def test_new_digraph_rejects_out_of_range():
    with pytest.raises(OutOfRangeError):
        new_digraph(3, [(0, 3)])
    with pytest.raises(OutOfRangeError):
        new_digraph(3, [(-1, 0)])


def test_new_digraph_collapses_duplicates():
    G = new_digraph(2, [(0, 1), (0, 1)])
    assert G.arcs == ((0, 1),)


def test_split_example_shape(split_example):
    assert split_example.n == 5
    assert len(split_example.arcs) == 6


def test_degree_profile_digon_triangle(digon_triangle):
    deg = degree_profile(digon_triangle)
    assert deg.out_deg == (2, 1, 1)
    assert deg.in_deg == (1, 1, 2)
    assert deg.max_deg == 2
    assert deg.arc_count == 4
    assert degree_profile(digon_triangle) is deg  # built once per graph


def test_degree_profile_edgeless():
    deg = degree_profile(new_digraph(3, []))
    assert deg.out_deg == (0, 0, 0)
    assert deg.in_deg == (0, 0, 0)
    assert deg.max_deg == 0
    assert deg.arc_count == 0


def test_degree_profile_cycle():
    deg = degree_profile(gen_cycle(4))
    assert deg.out_deg == (1, 1, 1, 1)
    assert deg.in_deg == (1, 1, 1, 1)
    assert deg.max_deg == 1
    assert deg.arc_count == 4


def test_reverse_path():
    assert reverse(gen_path(3)).arcs == ((1, 0), (2, 1))


def test_reverse_digon_triangle(digon_triangle):
    assert reverse(digon_triangle).arcs == ((0, 2), (1, 0), (2, 0), (2, 1))


def test_reverse_involution_and_degree_swap():
    for G in enumerate_digraphs(3):
        assert reverse(reverse(G)) == G
        assert degree_profile(reverse(G)).out_deg == degree_profile(G).in_deg


def test_neighbors(digon_triangle):
    assert digon_triangle.out_neighbors(0) == (1, 2)
    with pytest.raises(OutOfRangeError):
        digon_triangle.out_neighbors(3)
    with pytest.raises(OutOfRangeError):
        digon_triangle.out_neighbors(-1)


def test_neighbors_take_labels_as_new_digraph_does():
    G = gen_cycle(4)
    assert G.out_neighbors(np.int64(1)) == G.out_neighbors(True) == (2,)
    for label in (1.0, 1.5, "1", None):
        with pytest.raises(BadParameterError):
            G.out_neighbors(label)


def test_weak_components_path_plus_isolated():
    G = new_digraph(4, [(0, 1), (1, 2)])
    assert weak_components(G) == [(0, 1, 2), (3,)]


def test_weak_components_split_example(split_example):
    assert weak_components(split_example) == [(0, 1, 2, 3, 4)]


def test_weak_components_edgeless():
    assert weak_components(new_digraph(3, [])) == [(0,), (1,), (2,)]


def test_weak_components_reverse_invariant():
    for G in enumerate_digraphs(3):
        assert weak_components(G) == weak_components(reverse(G))


def test_gen_cycle():
    assert gen_cycle(3).arcs == ((0, 1), (1, 2), (2, 0))


def test_gen_kbip_smallest_is_path():
    assert gen_kbip(1, 1).arcs == gen_path(2).arcs


def test_gen_kbip_2_3():
    G = gen_kbip(2, 3)
    assert G.n == 5
    assert G.arcs == tuple((u, v) for u in (0, 1) for v in (2, 3, 4))


def test_gen_random_reproducible():
    a = gen_random(6, 0.4, seed=7)
    b = gen_random(6, 0.4, seed=7)
    assert a == b
    assert len(gen_random(6, 0.0, seed=7).arcs) == 0
    assert len(gen_random(4, 1.0, seed=7).arcs) == 12


def test_generator_preconditions():
    for bad in (
        lambda: gen_cycle(1),
        lambda: gen_path(0),
        lambda: gen_kbip(0, 1),
        lambda: gen_kbip(1, 0),
        lambda: gen_random(3, 1.5, 0),
        lambda: gen_random(-1, 0.5, 0),
        # counts must be integers too
        lambda: gen_cycle(2.5),
        lambda: gen_path(1.5),
        lambda: gen_kbip(2.0, 2),
        lambda: gen_random(2.5, 0.5, 1),
        lambda: next(enumerate_digraphs(2.0)),
        # counts and labels must be integers: truncating would turn (0.5, 0) into a loop
        lambda: new_digraph(3, [(0.5, 0), (1, 2)]),
        lambda: new_digraph(3, [(0, 1.9)]),
        lambda: new_digraph(2.5, []),
        lambda: new_digraph(3, [(0, 1, 2)]),
    ):
        with pytest.raises(BadParameterError):
            bad()


def test_degree_sums_equal_arc_count():
    graphs = itertools.chain(
        enumerate_digraphs(3), [gen_cycle(5), gen_kbip(2, 3), gen_random(6, 0.5, 1)]
    )
    for G in graphs:
        deg = degree_profile(G)
        assert sum(deg.out_deg) == sum(deg.in_deg) == deg.arc_count


def test_disjoint_union():
    G = disjoint_union(gen_cycle(3), gen_path(2))
    assert G.n == 5
    assert G.arcs == ((0, 1), (1, 2), (2, 0), (3, 4))


def labelling_corpus(split_example):
    yield from (G for n in range(1, 5) for G in enumerate_digraphs(n))
    # the digest set of the report-byte checks
    yield from (gen_random(n, p, s) for n in (10, 50, 120) for p in (0.05, 0.2, 0.6) for s in range(4))
    pieces = [gen_kbip(2, 3), gen_cycle(4), gen_path(5), gen_kbip(1, 4), split_example, new_digraph(2, [])]
    perm = np.random.default_rng(3).permutation(sum(P.n for P in pieces))
    yield relabel(disjoint_union(*pieces), perm)


def test_component_labelling_matches_bfs(split_example):
    for G in labelling_corpus(split_example):
        n = G.n
        assert weak_components(G) == [tuple(c) for c in bfs_components(n, G.arcs)]
        # components of B(G) that carry an edge, pulled back to (sources, sinks, arcs)
        expected = []
        for comp in bfs_components(2 * n, [(u, n + v) for u, v in G.arcs]):
            if len(comp) > 1:
                sources = tuple(x for x in comp if x < n)
                sinks = tuple(x - n for x in comp if x >= n)
                expected.append((sources, sinks, tuple(a for a in G.arcs if a[0] in sources)))
        assert G._double_components == tuple(expected)
        splitting = find_splitting(G)
        if splitting is None:
            assert any(set(sources) & set(sinks) for sources, sinks, _ in expected)
        else:
            assert [(p.sources, p.sinks, p.arcs) for p in splitting] == expected
