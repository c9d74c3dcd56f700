"""Quantum channels realizing graph edits on graph states.

Each edit (deleting or adding an edge, deleting or adding a vertex) is a
trace-preserving completely positive map.  An edge edit (EdgeEdit, the one
channel class) measures in an orthonormal basis and prepares an edge state
of the target graph: its Kraus operators are |y><x| / sqrt(m'), x over the
basis and y over the m' unit edge vectors of the target.  Each equals the
paper's unitary that relocates x onto y (complete_to_unitary) after the
projector onto x.

Whatever the outcome, an edge edit prepares the same mixture, so the map is
trace-and-replace, rho -> tr(rho) sigma, and whether sigma is the edited
graph's state is a fact about integers: the prepared vectors e_u - e_v sum
their outer products to L(G') exactly when they are the edges of G'.
EdgeEdit.certify and VertexEdit.certify check each landing that way, so a
certified edit's output is the edited graph's state, with error 0 by
construction.  The float basis, targets and Kraus operators are built only
when operators or apply asks for them; apply, VertexEdit.run and
check_landing are the float pass that the tests hold the certificates to.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .concurrence import concurrence
from .density import DensityMatrix, density_of_graph
from .graphs import (
    Graph,
    add_edge,
    add_isolated_vertex,
    build_graph,
    complete_graph,
    delete_edge,
    delete_vertex,
    tensor_product,
)
from .linalg import exact_projector
from .separability import (ENTANGLED_NPT, SEPARABLE, BipartiteLabeling, labeling_search,
                           ppt_test, separable_decomposition)

# largest distance at which complete_to_unitary's U @ source may miss target
CHANNEL_TOL = 1e-10
# largest entrywise distance at which a channel output lands on its graph state
LANDING_TOL = 1e-8


class ChannelError(ValueError):
    """Invalid channel construction or application."""


class EdgeEdit:
    """An edge deletion or addition at pair, held as integers: the
    measure-and-prepare channel of the edit.

    It measures e_i + e_j, e_i - e_j and each e_k off the pair (i, j), in
    that order, and prepares e_u - e_v for each (u, v) of target_edges, every
    vector normalized; result is the edited graph.  certify checks exactly
    that the map sends the state of source to the state of result.  basis
    and targets, the float form that operators and apply read, are built on
    first use.  The map is rho -> tr(rho) targets^T targets / m', so apply
    costs one pass over the state, whatever the operator count.
    """

    def __init__(self, source: Graph, pair: tuple[int, int], target_edges, result: Graph,
                 label: str):
        self.source, self.pair, self.result, self.label = source, pair, result, label
        self.target_edges = tuple(target_edges)

    @property
    def input_dim(self) -> int:
        return self.source.n

    @functools.cached_property
    def basis(self) -> np.ndarray:
        n, (i, j) = self.source.n, self.pair
        h = 1.0 / math.sqrt(2)
        basis = np.zeros((n, n))
        basis[0, [i, j]] = h, h
        basis[1, [i, j]] = h, -h
        basis[range(2, n), [k for k in range(n) if k not in self.pair]] = 1.0
        return basis

    @functools.cached_property
    def targets(self) -> np.ndarray:
        h = 1.0 / math.sqrt(2)
        ends = np.array(self.target_edges).T
        targets = np.zeros((len(self.target_edges), self.source.n))
        rows = np.arange(len(self.target_edges))
        targets[rows, ends[0]] = h
        targets[rows, ends[1]] = -h
        return targets

    @property
    def operators(self) -> tuple:
        """The Kraus operators, basis-major: |y><x| / sqrt(m') for x, then y."""
        n = self.input_dim
        ops = self.targets[None, :, :, None] * self.basis[:, None, None, :]
        return tuple((ops / math.sqrt(len(self.targets))).reshape(-1, n, n))

    def apply(self, state: np.ndarray) -> np.ndarray:
        """sum_x <x|state|x> times the prepared mixture."""
        if state.shape[0] != self.input_dim:
            raise ChannelError(
                f"channel acts on dimension {self.input_dim}, state has {state.shape[0]}")
        weight = np.einsum("ij,jk,ik->", self.basis, state, self.basis).real
        return (weight / len(self.targets)) * (self.targets.T @ self.targets)

    def certify(self) -> None:
        """Check in integers that the edit lands on the state of result.

        The measured rows e_i + e_j, e_i - e_j and e_k for k off the pair
        have Gram matrix diag(2, 2, 1, ..., 1), as (1, 1) . (1, -1) = 0 on
        {i, j}, exactly when i != j are vertices of source.  Then the
        normalized basis is orthonormal and the map is rho -> tr(rho) sigma
        with sigma = T^T T / 2|T| for the integer target rows T.  T^T T has
        each vertex's target count on its diagonal and -1 at each target
        pair, so it is L(result) when the target pairs are result's edges,
        each once.  With at least one target, tr T^T T = 2|T| = 2m', and
        sigma = L(result) / 2m' has trace exactly 1.
        """
        n, (i, j) = self.source.n, self.pair
        if not (0 <= i < n and 0 <= j < n and i != j):
            raise ChannelError(f"{self.label}: the measured pair is not two distinct vertices")
        if self.result.n != n or sorted(self.target_edges) != list(self.result.edges):
            raise ChannelError(f"{self.label}: the prepared edge states are not "
                               "those of the edited graph")
        if not self.target_edges:
            raise ChannelError(f"{self.label}: no edge state is prepared")


@dataclass(frozen=True, eq=False)
class MeasurementOutcome:
    """One outcome of the edit measurement at a vertex pair; vector is the
    unnormalized integer vector the outcome projects onto."""

    projector: str
    probability: float
    vector: tuple[int, ...]

    @property
    def post_state(self) -> DensityMatrix | None:
        """P sigma P / p, which for a rank-one P is P itself (None when p = 0)."""
        if self.probability == 0:
            return None
        return DensityMatrix(exact_projector(self.vector))


# ---------------------------------------------------------------------------
# unitary completion


def _householder(v: np.ndarray) -> np.ndarray:
    n = v.shape[0]
    norm2 = np.vdot(v, v).real
    if norm2 < 1e-24:
        return np.eye(n, dtype=complex)
    return np.eye(n, dtype=complex) - (2.0 / norm2) * np.outer(v, v.conj())


def complete_to_unitary(source, target) -> np.ndarray:
    """Deterministic unitary with U @ source = target.

    Two Householder reflections through a fixed reference axis, with a
    phase factor so complex inputs work; source = target degenerates to
    the identity.
    """
    s = np.asarray(source, dtype=complex).reshape(-1)
    t = np.asarray(target, dtype=complex).reshape(-1)
    if s.shape != t.shape:
        raise ChannelError("source and target dimensions differ")
    for name, vec in (("source", s), ("target", t)):
        if abs(np.linalg.norm(vec) - 1.0) > 1e-10:
            raise ChannelError(f"{name} vector is not unit norm")
    dim = s.shape[0]
    ref = np.zeros(dim, dtype=complex)
    ref[0] = 1.0

    def lead_phase(vec):
        c = vec[0]
        return c / abs(c) if abs(c) > 1e-12 else 1.0 + 0.0j

    p_s, p_t = lead_phase(s), lead_phase(t)
    h_s = _householder(s - p_s * ref)  # sends s to p_s * ref
    h_t = _householder(t - p_t * ref)  # sends p_t * ref to t
    u = (p_t / p_s) * (h_t @ h_s)
    if np.linalg.norm(u @ s - t) > CHANNEL_TOL:
        raise ChannelError("unitary completion failed to map source to target")
    return u


# ---------------------------------------------------------------------------
# edge channels


def _check_vertex(g: Graph, v: int) -> None:
    if not 0 <= v < g.n:
        raise ChannelError(f"vertex {v + 1} out of range 1..{g.n}")


def _normalize_edge(g: Graph, edge) -> tuple[int, int]:
    """A pair of distinct vertices of g, ascending; errors name them 1-based."""
    u, v = edge
    _check_vertex(g, u)
    _check_vertex(g, v)
    if u == v:
        raise ChannelError("an edge needs two distinct vertices")
    return (u, v) if u < v else (v, u)


def edge_deletion_channel(g: Graph, edge) -> EdgeEdit:
    """Channel with apply(sigma(g)) = sigma(g - edge).

    It measures (e_i + e_j)/sqrt(2), (e_i - e_j)/sqrt(2) and the vertices
    off the pair, in that order, and prepares (e_u - e_v)/sqrt(2) for each
    remaining edge (u, v).
    """
    pair = _normalize_edge(g, edge)
    if not g.has_edge(*pair):
        raise ChannelError(f"edge {edge[0] + 1}-{edge[1] + 1} is not in the graph")
    if g.m < 2:
        raise ChannelError("deleting the last edge leaves no graph state")
    remaining = [e for e in g.edges if e != pair]
    return EdgeEdit(g, pair, remaining, delete_edge(g, *pair),
                    f"delete edge {pair[0] + 1}-{pair[1] + 1}")


def edge_addition_channel(g: Graph, edge) -> EdgeEdit:
    """Channel with apply(sigma(g)) = sigma(g + edge), measuring at the pair
    as edge_deletion_channel does and preparing every edge of g + edge."""
    pair = _normalize_edge(g, edge)
    if g.has_edge(*pair):
        raise ChannelError(f"edge {edge[0] + 1}-{edge[1] + 1} is already in the graph")
    if g.m == 0:
        raise ChannelError("source graph has no state to start from")
    return EdgeEdit(g, pair, sorted(g.edges + (pair,)), add_edge(g, *pair),
                    f"add edge {pair[0] + 1}-{pair[1] + 1}")


def check_landing(state: np.ndarray, target: np.ndarray, what: str) -> float:
    """The largest entrywise distance of a channel output from the graph
    state it should land on; beyond LANDING_TOL the edit is refused."""
    err = float(np.max(np.abs(state - target)))
    if err > LANDING_TOL:
        raise ChannelError(f"state after '{what}' missed the graph state by {err:g}")
    return err


# ---------------------------------------------------------------------------
# measurement bookkeeping for a single vertex pair


def measurement_probabilities(g: Graph, pair) -> list[MeasurementOutcome]:
    """Outcome probabilities of the edit measurement at a vertex pair.

    The pair (i, j) need not be an edge.  Each probability is x^T L x / 2m
    for the outcome's vector x, which reduces to degree tallies: plus and
    minus give (d_i + d_j -/+ 2 [ij is an edge]) / 4m and vertex k gives
    d_k / 2m.  They equal tr(P sigma(g)) and sum to 1 exactly.  Outcomes are
    ordered plus, minus, then the off-pair vertices ascending.
    """
    i, j = _normalize_edge(g, pair)
    m, deg = g.m, g.degrees()
    joined = 2 if g.has_edge(i, j) else 0
    unit = [(0,) * k + (1,) + (0,) * (g.n - k - 1) for k in range(g.n)]
    head, tail = unit[i][:j], unit[i][j + 1:]  # e_i +/- e_j, as i < j
    # numerators over 4m
    tallies = [
        (f"plus({i + 1}-{j + 1})", deg[i] + deg[j] - joined, head + (1,) + tail),
        (f"minus({i + 1}-{j + 1})", deg[i] + deg[j] + joined, head + (-1,) + tail),
    ] + [(f"vertex({k + 1})", 2 * deg[k], unit[k]) for k in range(g.n) if k not in (i, j)]
    total = sum(num for _, num, _ in tallies)
    if total != 4 * m:
        raise ChannelError(f"outcome probabilities sum to {total}/{4 * m}, not 1")
    return [MeasurementOutcome(name, num / (4 * m), vec) for name, num, vec in tallies]


# ---------------------------------------------------------------------------
# vertex procedures


@dataclass(frozen=True, eq=False)
class VertexEdit:
    """A vertex edit as a walk through graph states, laid out before any
    state is built.

    Channel k deletes one edge of graphs[k] and lands on the state of
    graphs[k + 1].  A projective measurement then drops the `dropped` rows
    and columns and renormalizes by its keep probability, which lands on the
    state of graphs[-1], the edited graph.  certify checks that walk
    exactly; run takes it in floats.
    """

    channels: tuple[EdgeEdit, ...]
    graphs: tuple[Graph, ...]
    dropped: tuple[int, ...]
    missed: str  # the error when the measured state misses graphs[-1]

    @property
    def result(self) -> Graph:
        return self.graphs[-1]

    def certify(self) -> None:
        """Check in integers that the edit lands on the state of graphs[-1].

        Each channel must be a certified deletion from graphs[k] to
        graphs[k + 1].  Every dropped vertex must have degree 0 in
        graphs[-2], so the measurement keeps the state with probability
        exactly 1, and the kept block of L(graphs[-2]) must be
        L(graphs[-1]): with no edge at a dropped vertex, graphs[-2]'s edges
        renumbered over the kept vertices must be graphs[-1]'s.
        """
        for ch, before, after in zip(self.channels, self.graphs, self.graphs[1:]):
            if ch.source != before or ch.result != after:
                raise ChannelError(f"{ch.label} is not a step of the edit")
            ch.certify()
        last = self.graphs[-2]
        degrees = last.degrees()
        if any(degrees[v] for v in self.dropped):
            raise ChannelError(f"{self.missed}: the measurement drops a vertex with an edge")
        index = {v: k for k, v in enumerate(v for v in range(last.n) if v not in self.dropped)}
        block = sorted((index[u], index[v]) for u, v in last.edges)
        if self.result.n != len(index) or block != list(self.result.edges):
            raise ChannelError(f"{self.missed}: the kept block is not the edited graph's "
                               "Laplacian")

    def run(self) -> tuple[np.ndarray, float, float]:
        """(final state, keep probability, its landing error): the walk in
        floats, from the state of graphs[0], with each landing checked
        against density_of_graph(graphs[k]).to_real()."""
        states = [density_of_graph(g).to_real() for g in self.graphs]
        state = states[0]
        for ch, target in zip(self.channels, states[1:]):
            state = ch.apply(state)
            check_landing(state, target, ch.label)
        keep_prob = 1.0 - sum(state[i, i] for i in self.dropped)
        kept = [i for i in range(len(state)) if i not in self.dropped]
        reduced = state[np.ix_(kept, kept)] / keep_prob
        try:
            return reduced, keep_prob, check_landing(reduced, states[-1], "the measurement")
        except ChannelError as exc:
            raise ChannelError(f"{self.missed}: {exc}") from None


def _edge_deletions(start: Graph, edges):
    """The deletion channel of each edge in turn and the graph it leaves."""
    channels, graphs = [], [start]
    for e in edges:
        channels.append(edge_deletion_channel(graphs[-1], e))
        graphs.append(channels[-1].result)
    return channels, graphs


def vertex_deletion(g: Graph, v: int) -> VertexEdit:
    """Edge deletions at v, then the projective measurement that removes it."""
    _check_vertex(g, v)
    residual = delete_vertex(g, v)
    if residual.m == 0:
        raise ChannelError("vertex deletion leaves an edgeless graph")
    channels, graphs = _edge_deletions(g, [e for e in g.edges if v in e])
    return VertexEdit(tuple(channels), (*graphs, residual), (v,),
                      "vertex deletion did not land on the residual state")


def vertex_addition(g: Graph) -> VertexEdit:
    """Grow the state by one isolated vertex via a looped two-vertex helper.

    The helper state is I/2, so the product state is the state of two
    disjoint copies of the graph.  Deleting every edge of the second copy
    drains it of support; the measurement keeping the first copy plus one
    spare vertex then clicks with probability 1, and compressing the dead
    rows leaves the original state padded with an isolated vertex.
    """
    if g.m == 0:
        raise ChannelError("graph must have at least one edge")
    n = g.n
    helper = build_graph(2, [], loops=[1, 1])
    product = tensor_product(helper, g)  # copy 1 = 0..n-1, copy 2 = n..2n-1
    # the helper's state is I/2, and I (x) L(g) is the Laplacian of two disjoint copies of g
    if product.n != 2 * n or product.edges != g.edges + tuple((u + n, v + n) for u, v in g.edges):
        raise ChannelError("product state does not match the product graph state")
    channels, graphs = _edge_deletions(product, [e for e in product.edges if e[0] >= n])
    return VertexEdit(tuple(channels), (*graphs, add_isolated_vertex(g)),
                      tuple(range(n + 1, 2 * n)),
                      "vertex addition did not land on the padded state")


# ---------------------------------------------------------------------------
# the LOCC obstruction example


@dataclass(frozen=True, eq=False)
class LoccReport:
    crossing_edges: tuple
    crossing_status: str
    crossing_term_count: int
    bell_status: str
    bell_min_pt_eigenvalue: float
    bell_concurrence: float
    k4_minus_edge_status: str
    cycle_separable_all_labelings: bool
    narrative: str


def locc_principle_examples() -> LoccReport:
    """Two-edge crossing matching turning into a Bell state under deletion.

    Verifies that the crossing state is separable with an explicit
    decomposition, that removing one of its edges leaves a maximally
    entangled pure state, and that stripping the entangled edges off the
    complete graph on four vertices ends at a cycle state separable under
    every labeling.
    """
    lab = BipartiteLabeling.default(2, 2)
    crossing = build_graph(4, [(0, 3), (1, 2)])
    _, states = separable_decomposition(density_of_graph(crossing), lab)  # raises unless verified

    bell_graph = delete_edge(crossing, 1, 2)
    bell = density_of_graph(bell_graph)
    bell_verdict = ppt_test(bell, lab)
    bell_c = concurrence(bell)

    k4 = complete_graph(4)
    diamond = delete_edge(k4, 0, 3)
    diamond_verdict = ppt_test(density_of_graph(diamond), lab)
    cycle = delete_edge(diamond, 1, 2)
    cycle_sep = labeling_search(cycle, 2, 2).counts[ENTANGLED_NPT] == 0

    narrative = (
        "Deleting one edge of the separable two-edge crossing state leaves a "
        "maximally entangled pure state with concurrence 1.  No protocol of "
        "local operations and classical communication can increase "
        "entanglement, so the edge-deletion channel, although trace "
        "preserving and completely positive, is not implementable with "
        "local resources.  The complete graph on four vertices tells the "
        "same story in reverse: removing one of its two crossing edges "
        "leaves an entangled state, and removing the second yields a cycle "
        "whose state is separable under every labeling.")
    return LoccReport(
        crossing_edges=crossing.edges,
        crossing_status=SEPARABLE,
        crossing_term_count=len(states),
        bell_status=bell_verdict.status,
        bell_min_pt_eigenvalue=bell_verdict.min_pt_eigenvalue,
        bell_concurrence=bell_c.value,
        k4_minus_edge_status=diamond_verdict.status,
        cycle_separable_all_labelings=cycle_sep,
        narrative=narrative,
    )
