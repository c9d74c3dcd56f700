"""Undirected graphs with optional self-loops.

Vertices are indexed 0..n-1 internally; the text format and the CLI use
1-based labels.  Non-loop edges are simple (no multi-edges), while loops
carry a per-vertex multiplicity because repeated loops change the trace of
the loop-aware state in :mod:`graphdm.density`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np


class GraphError(ValueError):
    """Invalid graph construction or operation."""


class ParseError(GraphError):
    """Malformed graph document."""


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph.

    n      -- number of vertices (>= 1)
    edges  -- sorted tuple of non-loop edges (u, v) with u < v, 0-based
    loops  -- per-vertex loop multiplicities, tuple of length n
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    loops: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise GraphError("graph needs at least one vertex")
        if len(self.loops) != self.n:
            raise GraphError("loop table length must equal vertex count")
        if any(l < 0 for l in self.loops):
            raise GraphError("loop multiplicities must be non-negative")
        # strictly increasing edges are sorted and free of duplicates
        last = (-1, -1)
        for (u, v) in self.edges:
            if not (0 <= u < v < self.n):
                raise GraphError(f"edge ({u}, {v}) is out of range or unordered")
            if (u, v) <= last:
                if (u, v) == last:
                    raise GraphError(f"duplicate edge ({u}, {v}); multi-edges are not supported")
                raise GraphError("edges must be sorted")
            last = (u, v)

    @property
    def m(self) -> int:
        """Number of non-loop edges."""
        return len(self.edges)

    @property
    def loop_total(self) -> int:
        return sum(self.loops)

    def degrees(self) -> tuple[int, ...]:
        """Non-loop degree of each vertex (loops do not contribute)."""
        deg = [0] * self.n
        for (u, v) in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges


def build_graph(n: int, pairs, loops=None) -> Graph:
    """Build a Graph from 0-based vertex pairs; (v, v) pairs become loops."""
    loop_counts = [0] * n
    if loops is not None:
        if len(loops) != n:
            raise GraphError("loop table length must equal vertex count")
        loop_counts = list(loops)
    plain = []
    for (u, v) in pairs:
        if u == v:
            if not 0 <= u < n:
                raise GraphError(f"loop vertex {u} out of range")
            loop_counts[u] += 1
        else:
            plain.append((min(u, v), max(u, v)))
    return Graph(n, tuple(sorted(plain)), tuple(loop_counts))


# ---------------------------------------------------------------------------
# text format


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format.

    Lines: '# comment', 'n <count>' (once, before any edge), 'e <u> <v>'
    with 1-based endpoints.  u == v records a loop.  The document must
    contain at least one non-loop edge.
    """
    n = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "n":
            if n is not None:
                raise ParseError(f"line {lineno}: repeated vertex-count line")
            if len(tokens) != 2:
                raise ParseError(f"line {lineno}: expected 'n <count>'")
            try:
                n = int(tokens[1])
            except ValueError:
                raise ParseError(f"line {lineno}: vertex count is not an integer") from None
            if n < 1:
                raise ParseError(f"line {lineno}: vertex count must be positive")
        elif tokens[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge before vertex-count line")
            if len(tokens) != 3:
                raise ParseError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                u, v = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise ParseError(f"line {lineno}: endpoints must be integers") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"line {lineno}: endpoint out of range 1..{n}")
            pairs.append((u - 1, v - 1))
        else:
            raise ParseError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise ParseError("missing 'n <count>' line")
    if all(u == v for (u, v) in pairs):
        raise ParseError("graph has no non-loop edge")
    try:
        return build_graph(n, pairs)
    except GraphError as exc:
        raise ParseError(str(exc)) from None


def format_graph(g: Graph) -> str:
    """Inverse of parse_graph (1-based output)."""
    lines = [f"n {g.n}"]
    for v, count in enumerate(g.loops):
        lines.extend([f"e {v + 1} {v + 1}"] * count)
    for (u, v) in g.edges:
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# structural matrices (int64 entries)


def _edge_index(g: Graph) -> np.ndarray:
    """Endpoint indices of g's non-loop edges as two rows, u then v."""
    return np.array(g.edges, dtype=np.intp).reshape(-1, 2).T


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Symmetric 0/1 int64 matrix.

    A vertex with at least one loop gets a 1 on the diagonal; loop
    multiplicities beyond presence do not appear here.
    """
    a = np.zeros((g.n, g.n), dtype=np.int64)
    u, v = _edge_index(g)
    a[u, v] = a[v, u] = 1
    np.fill_diagonal(a, np.array(g.loops) > 0)
    return a


def degree_matrix(g: Graph) -> np.ndarray:
    return np.diag(np.array(g.degrees(), dtype=np.int64))


def laplacian(g: Graph) -> np.ndarray:
    """Degree matrix minus off-diagonal adjacency, int64; loops are ignored."""
    lap = np.zeros((g.n, g.n), dtype=np.int64)
    u, v = _edge_index(g)
    lap[u, v] = lap[v, u] = -1
    np.fill_diagonal(lap, -lap.sum(axis=1))
    return lap


def component_count(g: Graph) -> int:
    """Number of connected components (isolated vertices count)."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v) in g.edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(v) for v in range(g.n)})


# ---------------------------------------------------------------------------
# operations


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    if u > v:
        u, v = v, u
    if not g.has_edge(u, v):
        raise GraphError(f"edge ({u}, {v}) not present")
    return Graph(g.n, tuple(e for e in g.edges if e != (u, v)), g.loops)


def add_edge(g: Graph, u: int, v: int) -> Graph:
    if u == v:
        raise GraphError("use loops for u == v")
    if u > v:
        u, v = v, u
    if g.has_edge(u, v):
        raise GraphError(f"edge ({u}, {v}) already present")
    return Graph(g.n, tuple(sorted(g.edges + ((u, v),))), g.loops)


def delete_vertex(g: Graph, v: int) -> Graph:
    """Remove vertex v and every edge/loop at it; higher indices shift down."""
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} out of range")
    if g.n == 1:
        raise GraphError("cannot delete the last vertex")

    def shift(x):
        return x if x < v else x - 1

    pairs = [(shift(a), shift(b)) for (a, b) in g.edges if v not in (a, b)]
    loops = [c for i, c in enumerate(g.loops) if i != v]
    return build_graph(g.n - 1, pairs, loops)


def add_isolated_vertex(g: Graph) -> Graph:
    return Graph(g.n + 1, g.edges, g.loops + (0,))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    pairs = list(g.edges) + [(u + g.n, v + g.n) for (u, v) in h.edges]
    return build_graph(g.n + h.n, pairs, g.loops + h.loops)


def tensor_product(g: Graph, h: Graph) -> Graph:
    """Graph whose adjacency matrix is the Kronecker product of the factors'.

    Vertex (a, b) maps to index a * h.n + b, so the product runs through
    the second factor fastest.  Raises if the product has no edges at all.
    """
    prod = np.kron(adjacency_matrix(g), adjacency_matrix(h))
    pairs = np.argwhere(np.triu(prod, 1)).tolist()
    loops = (prod.diagonal() != 0).astype(int).tolist()
    if not pairs and not any(loops):
        raise GraphError("tensor product has no edges")
    return build_graph(g.n * h.n, pairs, loops)


# ---------------------------------------------------------------------------
# generators


def complete_graph(n: int) -> Graph:
    if n < 2:
        raise GraphError("complete graph needs n >= 2")
    return build_graph(n, list(itertools.combinations(range(n), 2)))


def star_graph(n: int) -> Graph:
    """Star on n vertices: hub 0 joined to 1..n-1."""
    if n < 2:
        raise GraphError("star needs n >= 2")
    return build_graph(n, [(0, v) for v in range(1, n)])


def path_graph(n: int) -> Graph:
    if n < 2:
        raise GraphError("path needs n >= 2")
    return build_graph(n, [(v, v + 1) for v in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return build_graph(n, [(v, (v + 1) % n) for v in range(n)])


def cayley_circulant(n: int, jumps) -> Graph:
    """Circulant graph on Z_n with connection set `jumps`.

    The set must be non-empty, must not contain 0, and must be closed
    under negation mod n.
    """
    if n < 2:
        raise GraphError("circulant needs n >= 2")
    js = {j % n for j in jumps}
    if not js:
        raise GraphError("connection set is empty")
    if 0 in js:
        raise GraphError("connection set must not contain 0")
    if {(-j) % n for j in js} != js:
        raise GraphError("connection set must be closed under negation mod n")
    pairs = {(min(v, (v + j) % n), max(v, (v + j) % n)) for v in range(n) for j in js}
    return build_graph(n, sorted(pairs))


def petersen_graph() -> Graph:
    """Outer 5-cycle 0..4, inner 5-cycle 5..9 with step 2, spokes v--v+5."""
    pairs = [(v, (v + 1) % 5) for v in range(5)]
    pairs += [(5 + v, 5 + (v + 2) % 5) for v in range(5)]
    pairs += [(v, v + 5) for v in range(5)]
    return build_graph(10, pairs)


def with_loops(g: Graph, loops) -> Graph:
    return Graph(g.n, g.edges, tuple(loops))


# ---------------------------------------------------------------------------
# isomorphism (brute force over a permutation table, intended for small n)

_ISO_LIMIT = 8


@functools.lru_cache(maxsize=_ISO_LIMIT + 1)
def _permutation_table(n: int) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Every permutation of 0..n-1, where each sends each vertex pair, and
    the pairs.

    Row r of the first array is the r-th image tuple of
    itertools.permutations(range(n)).  Entry [r, i] of the second is the
    slot, in itertools.combinations(range(n), 2) order, that relabeling
    vertex v as perms[r, v] sends pair slot i to.  The third is
    np.triu_indices(n, 1), the pairs in that order.  All are read-only.
    """
    count = math.factorial(n)
    perms = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(n))),
                        dtype=np.int8, count=count * n).reshape(count, n)
    u, v = np.triu_indices(n, 1)
    slot = np.zeros((n, n), dtype=np.int16)
    slot[u, v] = slot[v, u] = np.arange(len(u))
    maps = slot[perms[:, u], perms[:, v]]
    for a in (perms, maps, u, v):
        a.setflags(write=False)
    return perms, maps, (u, v)


def _relabelings_onto(g: Graph, h: Graph) -> np.ndarray:
    """Per row of the permutation table: whether relabeling g by it gives h.

    g and h must have the same number of edges.
    """
    perms, maps, pairs = _permutation_table(g.n)
    g_mask = adjacency_matrix(g)[pairs] != 0
    h_mask = g_mask if h is g else adjacency_matrix(h)[pairs] != 0
    # the relabeled g has pair maps[r, i] exactly when g has pair i; with
    # equal edge counts it is h when every such pair is an edge of h
    same_edges = h_mask[maps[:, g_mask]].all(axis=1)
    same_loops = (np.array(h.loops)[perms] == np.array(g.loops)).all(axis=1)
    return same_edges & same_loops


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n:
        return False
    if g.n > _ISO_LIMIT:
        raise GraphError(f"brute-force isomorphism is limited to n <= {_ISO_LIMIT}")
    if g.m != h.m or sorted(g.degrees()) != sorted(h.degrees()) or sorted(g.loops) != sorted(h.loops):
        return False
    return bool(_relabelings_onto(g, h).any())


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Image tuples of the permutations that keep g's edges and loop
    multiplicities, in itertools.permutations order."""
    if g.n > _ISO_LIMIT:
        raise GraphError(f"automorphism search is limited to n <= {_ISO_LIMIT}")
    perms, _, _ = _permutation_table(g.n)
    return [tuple(p) for p in perms[_relabelings_onto(g, g)].tolist()]


def nonisomorphic_graphs(n: int, min_edges: int = 0) -> list[Graph]:
    """One representative per isomorphism class of loop-free graphs on n vertices.

    Representatives are the lexicographically smallest edge-subset masks of
    their class.  Each class is marked in one vectorized pass over the
    permutation table, so n = 6 (32768 masks x 720 permutations) takes
    tens of milliseconds.
    """
    if not 1 <= n <= 7:
        raise GraphError("enumeration is limited to 1 <= n <= 7")
    pairs = list(itertools.combinations(range(n), 2))
    npairs = len(pairs)
    _, maps, _ = _permutation_table(n)
    weights = np.int64(1) << np.arange(npairs)

    seen = np.zeros(1 << npairs, dtype=bool)
    reps = []
    for mask in range(1 << npairs):
        if seen[mask]:
            continue
        slots = [i for i in range(npairs) if (mask >> i) & 1]
        images = np.zeros(len(maps), dtype=np.int64)
        for i in slots:
            images += weights[maps[:, i]]
        seen[images] = True
        if len(slots) >= min_edges:
            reps.append(build_graph(n, [pairs[i] for i in slots]))
    return reps
