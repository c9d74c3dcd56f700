"""Tests for graph construction, parsing, enumeration and editing."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdm import (
    Graph,
    GraphError,
    ParseError,
    add_edge,
    add_isolated_vertex,
    adjacency_matrix,
    are_isomorphic,
    automorphisms,
    build_graph,
    cayley_circulant,
    complete_graph,
    component_count,
    cycle_graph,
    degree_matrix,
    delete_edge,
    delete_vertex,
    disjoint_union,
    format_graph,
    laplacian,
    nonisomorphic_graphs,
    parse_graph,
    path_graph,
    petersen_graph,
    star_graph,
    tensor_product,
    with_loops,
)


def test_build_graph_basic():
    g = build_graph(4, [(0, 1), (2, 1)])
    assert g.n == 4
    assert g.edges == ((0, 1), (1, 2))  # normalized and sorted
    assert g.m == 2
    assert g.degrees() == (1, 2, 1, 0)
    # a (v, v) pair is recorded as a loop, not an edge
    h = build_graph(3, [(1, 1), (0, 2)])
    assert h.edges == ((0, 2),) and h.loops == (0, 1, 0)
    assert h.loop_total == 1


def test_build_graph_rejects_bad_input():
    with pytest.raises(GraphError):
        build_graph(0, [])
    with pytest.raises(GraphError):
        build_graph(3, [(0, 3)])  # vertex out of range
    with pytest.raises(GraphError):
        build_graph(3, [(0, 1), (1, 0)])  # duplicate edge


def old_rule_accepts(n, edges):
    """The edge check Graph used before its one strictly increasing pass:
    a range check, a set of the edges seen and a sorted copy."""
    seen = set()
    for (u, v) in edges:
        if not (0 <= u < v < n) or (u, v) in seen:
            return False
        seen.add((u, v))
    return tuple(sorted(edges)) == edges


@st.composite
def edge_tuples(draw):
    """(n, edges): pairs of vertices of K_n mixed with pairs from -1..n."""
    n = draw(st.integers(1, 5))
    vertex = st.integers(-1, n)
    pair = st.tuples(vertex, vertex)
    if n > 1:
        pair = st.one_of(st.sampled_from(list(itertools.combinations(range(n), 2))), pair)
    return n, tuple(draw(st.lists(pair, max_size=6)))


@settings(max_examples=300, deadline=None)
@given(case=edge_tuples())
def test_one_pass_edge_check_accepts_what_the_old_rule_accepts(case):
    """Edge tuples that may be out of range, unordered, unsorted or
    duplicated: Graph accepts exactly the tuples the old rule accepts."""
    n, edges = case
    try:
        Graph(n, edges, (0,) * n)
        accepted = True
    except GraphError:
        accepted = False
    assert accepted == old_rule_accepts(n, edges)


@pytest.mark.parametrize("edges, message", [
    (((0, 1), (1, 3)), r"^edge \(1, 3\) is out of range or unordered$"),
    (((0, 1), (2, 1)), r"^edge \(2, 1\) is out of range or unordered$"),
    (((0, 1), (0, 1), (1, 2)),
     r"^duplicate edge \(0, 1\); multi-edges are not supported$"),
    (((0, 2), (0, 1)), "^edges must be sorted$"),
])
def test_each_edge_fault_keeps_its_message(edges, message):
    """One input per fault, with no other fault in it."""
    with pytest.raises(GraphError, match=message):
        Graph(3, edges, (0, 0, 0))


def test_generators_edge_counts():
    assert complete_graph(5).m == 10
    assert path_graph(6).m == 5
    assert cycle_graph(7).m == 7
    assert star_graph(9).m == 8
    g = petersen_graph()
    assert g.n == 10 and g.m == 15
    assert all(d == 3 for d in g.degrees())


def test_cayley_circulant():
    # jump set {1, n-1} is the cycle, {n/2} a perfect matching
    assert are_isomorphic(cayley_circulant(6, [1, 5]), cycle_graph(6))
    matching = cayley_circulant(6, [3])
    assert matching.m == 3
    assert component_count(matching) == 3
    both = cayley_circulant(8, [1, 7, 4])
    assert all(d == 3 for d in both.degrees())
    with pytest.raises(GraphError):
        cayley_circulant(6, [0])  # 0 is not a jump
    with pytest.raises(GraphError):
        cayley_circulant(6, [1])  # not closed under negation mod 6


def test_matrices_match_by_hand():
    g = path_graph(3)
    np.testing.assert_array_equal(
        adjacency_matrix(g), [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    np.testing.assert_array_equal(
        degree_matrix(g), [[1, 0, 0], [0, 2, 0], [0, 0, 1]])
    np.testing.assert_array_equal(
        laplacian(g), [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])


def test_laplacian_rows_sum_to_zero():
    for g in [complete_graph(5), petersen_graph(), star_graph(7)]:
        lap = laplacian(g)
        assert all(sum(row) == 0 for row in lap)
        np.testing.assert_array_equal(lap, lap.T)


def test_loops_touch_adjacency_not_laplacian():
    g = with_loops(build_graph(3, [(0, 1)]), [0, 2, 1])
    assert g.loops == (0, 2, 1)
    adj = adjacency_matrix(g)
    assert adj[1, 1] == 1 and adj[2, 2] == 1 and adj[0, 0] == 0
    # the laplacian ignores loops entirely
    np.testing.assert_array_equal(
        laplacian(g), [[1, -1, 0], [-1, 1, 0], [0, 0, 0]])


def test_component_count():
    assert component_count(path_graph(5)) == 1
    assert component_count(build_graph(6, [(0, 1), (2, 3)])) == 4
    assert component_count(build_graph(4, [])) == 4
    assert component_count(disjoint_union(cycle_graph(3), cycle_graph(4))) == 2


def test_parse_and_format_round_trip():
    for g in [path_graph(4), petersen_graph(), star_graph(5)]:
        assert parse_graph(format_graph(g)) == g
    text = "# comment\nn 3\n\ne 1 2\ne 2 3\n"
    assert parse_graph(text) == path_graph(3)


def test_parse_errors_carry_line_numbers():
    bad = [
        "e 1 2\n",              # edge before header
        "n 3\ne 1 4\n",         # vertex out of range
        "n 3\ne 1 2\ne 2 1\n",  # duplicate edge
        "n 3\nx 1 2\n",         # unknown record
        "n 0\n",                # empty graph
        "n 3\n",                # no edges at all
        "n 2\ne 1 1\ne 2 2\n",  # loops only, no proper edge
    ]
    for text in bad:
        with pytest.raises(ParseError):
            parse_graph(text)


def test_edit_operations():
    g = path_graph(4)
    g2 = delete_edge(g, 1, 2)
    assert g2.edges == ((0, 1), (2, 3))
    g3 = add_edge(g2, 1, 2)
    assert g3 == g
    with pytest.raises(GraphError):
        delete_edge(g, 0, 2)  # not an edge
    with pytest.raises(GraphError):
        add_edge(g, 0, 1)  # already present


def test_delete_vertex_relabels_downward():
    g = delete_vertex(path_graph(4), 1)
    # remaining path vertex 2-3 becomes 1-2, vertex 0 is isolated
    assert g.n == 3
    assert g.edges == ((1, 2),)
    assert add_isolated_vertex(path_graph(2)).n == 3


def test_tensor_product_of_two_edges_is_crossing_pair():
    g = tensor_product(path_graph(2), path_graph(2))
    assert g.n == 4
    assert g.edges == ((0, 3), (1, 2))


def test_tensor_product_with_loops():
    # a loop acts as a fixed point: kron with the loop row keeps a copy
    helper = with_loops(build_graph(2, []), [1, 1])
    g = path_graph(3)
    prod = tensor_product(helper, g)
    # two disjoint copies of g, no cross edges
    assert prod.n == 6
    assert prod.edges == ((0, 1), (1, 2), (3, 4), (4, 5))
    assert component_count(prod) == 2


def test_tensor_product_needs_an_edge():
    with pytest.raises(GraphError):
        tensor_product(build_graph(2, []), path_graph(2))


def test_isomorphism_positive_and_negative():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    h = build_graph(4, [(0, 3), (3, 2), (2, 1)])
    assert are_isomorphic(g, h)
    assert not are_isomorphic(g, star_graph(4))
    assert not are_isomorphic(g, build_graph(5, [(0, 1), (1, 2), (2, 3)]))


def test_automorphism_group_orders():
    expected = {
        "P4": (path_graph(4), 2),
        "C4": (cycle_graph(4), 8),
        "C5": (cycle_graph(5), 10),
        "K4": (complete_graph(4), 24),
        "K13": (star_graph(4), 6),
    }
    for name, (g, order) in expected.items():
        auts = automorphisms(g)
        assert len(auts) == order, name
        images = set(auts)
        assert len(images) == order  # all distinct
        assert tuple(range(g.n)) in images  # identity present


def test_nonisomorphic_graph_counts():
    # classic counts of simple graphs on n unlabeled vertices
    expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
    for n, count in expected.items():
        graphs = nonisomorphic_graphs(n)
        assert len(graphs) == count
        for a in range(len(graphs)):
            for b in range(a + 1, len(graphs)):
                assert not are_isomorphic(graphs[a], graphs[b])


def test_nonisomorphic_min_edges_filter():
    assert len(nonisomorphic_graphs(4, min_edges=1)) == 10
    # sum over classes of 24/|Aut| counts every labeled 4-vertex graph
    total = sum(24 // len(automorphisms(g)) for g in nonisomorphic_graphs(4))
    assert total == 2 ** 6
