"""Graph symmetry (automorphisms, isomorphism) against networkx as an oracle.

networkx matches loop multiplicities through a node attribute, and the
relabeling reference below moves edges and loops explicitly, one vertex
at a time.
"""

import itertools
import math
from collections import Counter

import networkx as nx
import numpy as np
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from graphdm import (
    GraphError,
    are_isomorphic,
    automorphisms,
    build_graph,
    complete_graph,
    path_graph,
)


def same_loops(a, b):
    return a["loops"] == b["loops"]


def to_networkx(g):
    out = nx.Graph()
    out.add_nodes_from((v, {"loops": count}) for v, count in enumerate(g.loops))
    out.add_edges_from(g.edges)
    return out


def relabeled(g, image, loop_image=None):
    """g with vertex v renamed image[v]; loops move by loop_image if given."""
    loop_image = image if loop_image is None else loop_image
    loops = [0] * g.n
    for v, count in enumerate(g.loops):
        loops[loop_image[v]] = count
    return build_graph(g.n, [(image[u], image[v]) for (u, v) in g.edges], loops)


def random_graphs(n, count):
    """Graphs with random edge density and, in most, loops of multiplicity 0..2."""
    rng = np.random.default_rng(n)
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for _ in range(count):
        density = rng.uniform(0.1, 0.9)
        edges = [p for p in pairs if rng.random() < density]
        loops = rng.integers(0, 3, n) * (rng.random() < 0.7)
        out.append(build_graph(n, edges, loops.tolist()))
    return out, rng


@pytest.mark.parametrize("n", range(1, 9))
def test_automorphisms_match_networkx(n):
    graphs, _ = random_graphs(n, 25)
    for g in graphs:
        auts = automorphisms(g)
        gx = to_networkx(g)
        assert len(auts) == sum(1 for _ in GraphMatcher(gx, gx, node_match=same_loops).isomorphisms_iter())
        assert len(set(auts)) == len(auts)
        assert tuple(range(n)) in auts
        assert auts == sorted(auts)  # itertools.permutations order
        for image in auts:
            assert relabeled(g, image) == g


@pytest.mark.parametrize("n", range(1, 9))
def test_automorphisms_of_complete_and_empty_graphs(n):
    # every permutation preserving the loop multiplicities is an automorphism
    loops = np.random.default_rng(n).integers(0, 3, n).tolist()
    expected = math.prod(math.factorial(c) for c in Counter(loops).values())
    for edges in ([], list(itertools.combinations(range(n), 2))):
        assert len(automorphisms(build_graph(n, edges, loops))) == expected


@pytest.mark.parametrize("n", range(1, 9))
def test_are_isomorphic_matches_networkx(n):
    graphs, rng = random_graphs(n, 25)
    pairs = list(itertools.combinations(range(n), 2))
    outcomes = Counter()
    for g in graphs:
        image = tuple(rng.permutation(n).tolist())
        copy = relabeled(g, image)
        assert are_isomorphic(g, copy) and are_isomorphic(copy, g)
        assert nx.is_isomorphic(to_networkx(g), to_networkx(copy), node_match=same_loops)
        # the same edges with the loops moved by another permutation, and an
        # unrelated graph with as many edges
        mixed = relabeled(g, image, tuple(rng.permutation(n).tolist()))
        chosen = rng.choice(len(pairs), size=g.m, replace=False)
        other = build_graph(n, [pairs[i] for i in chosen], rng.permutation(g.loops).tolist())
        for h in (mixed, other):
            want = nx.is_isomorphic(to_networkx(g), to_networkx(h), node_match=same_loops)
            assert are_isomorphic(g, h) == want
            outcomes[want] += 1
    if n >= 3:
        assert outcomes[True] and outcomes[False]


def test_symmetry_search_is_limited_to_eight_vertices():
    for g in (path_graph(9), complete_graph(9)):
        with pytest.raises(GraphError):
            automorphisms(g)
        with pytest.raises(GraphError):
            are_isomorphic(g, g)
