import numpy as np
import pytest

import dgspec.classify
import dgspec.digraph
from dgspec import (
    ComponentTag,
    SplitPart,
    bounds_certificate,
    check_graph,
    classify_component,
    classify_lower_equality,
    classify_upper_equality,
    disjoint_union,
    double,
    enumerate_digraphs,
    find_splitting,
    gen_cycle,
    gen_kbip,
    gen_path,
    new_digraph,
    verify_splitting,
    weak_components,
)
from dgspec.errors import BadParameterError, OutOfRangeError
from dgspec.hermitian import undirected_degrees


def test_find_splitting_split_example(split_example):
    splitting = find_splitting(split_example)
    assert splitting is not None
    assert splitting == (
        SplitPart(sources=(0, 1), sinks=(3, 4), arcs=((0, 3), (0, 4), (1, 3))),
        SplitPart(sources=(4,), sinks=(0, 1, 2), arcs=((4, 0), (4, 1), (4, 2))),
    )
    assert splitting is split_example._double_components
    assert dgspec.classify.SplitPart is dgspec.digraph.SplitPart
    assert verify_splitting(split_example, splitting)


def test_find_splitting_none_for_transitive_triangle(unsplittable):
    assert find_splitting(unsplittable) is None


def test_find_splitting_edgeless_is_empty():
    G = new_digraph(3, [])
    # the empty splitting is falsy: callers must test it with ``is None``
    assert find_splitting(G) == ()
    assert classify_lower_equality(G) == ()
    assert verify_splitting(G, find_splitting(G))
    # E = 2R = 0, and the empty splitting witnesses the lower equality
    for n in range(1, 5):
        assert check_graph(new_digraph(n, [])).results["lower_equality_iff"].ok


def test_find_splitting_verifies_exhaustively():
    none_count = 0
    for G in enumerate_digraphs(3):
        splitting = find_splitting(G)
        if splitting is None:
            none_count += 1
            assert classify_lower_equality(G) is None
        else:
            assert verify_splitting(G, splitting)
    assert none_count > 0


def test_verifier_rejects_bad_splittings(split_example):
    good = find_splitting(split_example)
    # drop an arc: no longer covers the graph
    p0, p1 = good
    assert not verify_splitting(split_example, (SplitPart(p0.sources, p0.sinks, p0.arcs[1:]), p1))
    # single part reusing a vertex on both sides: degree condition breaks
    all_arcs = tuple(sorted(split_example.arcs))
    lump = SplitPart((0, 1, 4), (0, 1, 2, 3, 4), all_arcs)
    assert not verify_splitting(split_example, (lump,))


def test_classify_lower_kbip():
    splitting = classify_lower_equality(gen_kbip(2, 3))
    assert splitting is not None
    assert len(splitting) == 1
    assert splitting[0].sources == (0, 1)
    assert splitting[0].sinks == (2, 3, 4)


def test_classify_lower_split_example_incomplete(split_example):
    # the first part has 3 arcs, not the complete 2 x 2
    assert classify_lower_equality(split_example) is None


def test_classify_lower_path4():
    splitting = classify_lower_equality(gen_path(4))
    assert splitting is not None
    assert len(splitting) == 3
    for part in splitting:
        assert len(part.sources) == len(part.sinks) == len(part.arcs) == 1


def test_classify_component_cycle():
    G = gen_cycle(3)
    kind = classify_component(G, (0, 1, 2))
    assert kind.tag is ComponentTag.DIRECTED_CYCLE
    assert kind.vertices == (0, 1, 2)


def test_classify_component_path():
    # P3 whole, and the arc 0 -> 1 of C3
    for G, vertices, order in ((gen_path(3), (0, 1, 2), (0, 1, 2)), (gen_cycle(3), [1, 0], (0, 1))):
        kind = classify_component(G, vertices)
        assert kind.tag is ComponentTag.DIRECTED_PATH
        assert kind.vertices == order


def test_classify_component_other(digon_triangle):
    kind = classify_component(digon_triangle, (0, 1, 2))
    assert kind.tag is ComponentTag.OTHER
    # not weakly connected: two disjoint arcs, a path plus an isolated
    # vertex, a path plus a cycle, and two cycles
    for arcs in ([(0, 1), (2, 3)], [(0, 1), (1, 2)], [(0, 1), (2, 3), (3, 2)], [(0, 1), (1, 0), (2, 3), (3, 2)]):
        kind = classify_component(new_digraph(4, arcs), (3, 2, 1, 0))
        assert kind.tag is ComponentTag.OTHER
        assert kind.vertices == (0, 1, 2, 3)


def test_classify_component_isolated():
    kind = classify_component(new_digraph(2, [(0, 1)]), (0, 1))
    assert kind.tag is ComponentTag.DIRECTED_PATH
    single = classify_component(new_digraph(3, []), (2,))
    assert single.tag is ComponentTag.ISOLATED_VERTEX
    assert single.vertices == (2,)
    with pytest.raises(BadParameterError):
        classify_component(gen_cycle(3), [])


def test_classify_component_takes_labels_as_new_digraph_does():
    G = gen_cycle(4)
    for labels in ([True], [np.int64(1)], [1, True]):
        kind = classify_component(G, labels)
        assert kind.vertices == (1,) and all(type(v) is int for v in kind.vertices)
    whole = classify_component(G, [np.int32(3), 2, True, np.int64(0)])
    assert whole == classify_component(G, range(4))
    for labels in ([1.5], [1.0], [0, "1"]):
        with pytest.raises(BadParameterError):
            classify_component(G, labels)
    with pytest.raises(OutOfRangeError):
        classify_component(G, [4])


def test_classify_component_two_cycle():
    kind = classify_component(new_digraph(2, [(0, 1), (1, 0)]), (0, 1))
    assert kind.tag is ComponentTag.DIRECTED_CYCLE


def test_classify_upper_union():
    G = disjoint_union(gen_cycle(3), gen_path(2))
    kinds = classify_upper_equality(G)
    assert kinds is not None
    assert [k.tag for k in kinds] == [ComponentTag.DIRECTED_CYCLE, ComponentTag.DIRECTED_PATH]


def test_classify_upper_kbip_fails():
    assert classify_upper_equality(gen_kbip(2, 3)) is None


def test_classify_upper_single_vertex():
    kinds = classify_upper_equality(new_digraph(1, []))
    assert kinds is not None
    assert [k.tag for k in kinds] == [ComponentTag.ISOLATED_VERTEX]


def test_upper_success_never_yields_other():
    for G in enumerate_digraphs(3):
        kinds = classify_upper_equality(G)
        if kinds is not None:
            assert all(k.tag is not ComponentTag.OTHER for k in kinds)
            dd = undirected_degrees(double(G))
            assert all(d <= 1 for d in dd)
            assert len(kinds) == len(weak_components(G))


def test_equality_iff_numeric_exhaustive():
    for G in enumerate_digraphs(3):
        cert = bounds_certificate(G)
        lower_struct = classify_lower_equality(G) is not None
        upper_struct = classify_upper_equality(G) is not None
        assert lower_struct == (abs(cert.lower_slack) <= 1e-8)
        assert upper_struct == (abs(cert.upper_slack) <= 1e-8)
        # the certificate flags are the numeric shadow of the classifiers
        assert cert.lower_equal == lower_struct
        assert cert.upper_equal == upper_struct
