"""Kraus channels realizing graph edits on graph states.

Each edit (deleting or adding an edge, deleting or adding a vertex) is a
trace-preserving completely positive map built from rank-one projectors
followed by unitaries that relocate the measured states onto the edges of
the target graph.  Applying the edit channel to the state of the source
graph lands exactly on the state of the edited graph.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .concurrence import concurrence
from .density import DensityMatrix, density_of_graph, density_with_loops
from .graphs import (
    Graph,
    add_isolated_vertex,
    build_graph,
    complete_graph,
    delete_edge,
    delete_vertex,
    tensor_product,
)
from .linalg import HermitianMatrix, exact_projector, kron
from .separability import (
    NPT_TOL,
    BipartiteLabeling,
    min_pt_eigenvalues,
    pe_matching_separability,
    ppt_test,
)

CHANNEL_TOL = 1e-10


class ChannelError(ValueError):
    """Invalid channel construction or application."""


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A finite set of Kraus operators with the completeness identity checked."""

    operators: tuple
    label: str

    def __post_init__(self):
        if not self.operators:
            raise ChannelError("channel needs at least one operator")
        dim = self.operators[0].shape[1]
        total = np.zeros((dim, dim), dtype=complex)
        for a in self.operators:
            if a.shape[1] != dim:
                raise ChannelError("operators disagree on input dimension")
            total += a.conj().T @ a
        if np.max(np.abs(total - np.eye(dim))) > CHANNEL_TOL:
            raise ChannelError("Kraus operators do not sum to the identity")

    @property
    def input_dim(self) -> int:
        return self.operators[0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.operators[0].shape[0]


@dataclass(frozen=True, eq=False)
class MeasurementOutcome:
    projector: str
    probability: float
    post_state: DensityMatrix | None


@dataclass(frozen=True, eq=False)
class VertexEditReport:
    """Final state of a vertex edit plus the acceptance probability.

    click_probability is the probability of the complement projector that
    keeps the state; the construction makes it 1 up to roundoff.
    """

    state: DensityMatrix
    click_probability: float
    steps: tuple[str, ...]


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


def _normalize_edge(g: Graph, edge) -> tuple[int, int]:
    u, v = edge
    if not (0 <= u < g.n and 0 <= v < g.n) or u == v:
        raise ChannelError(f"({u}, {v}) is not a valid vertex pair")
    return (u, v) if u < v else (v, u)


def _edge_unit(n: int, edge) -> np.ndarray:
    i, j = edge
    y = np.zeros(n)
    y[i] = 1.0 / math.sqrt(2)
    y[j] = -1.0 / math.sqrt(2)
    return y


def _edit_operators(n: int, projector_edge, target_edges) -> list:
    """The three operator families shared by edge deletion and addition.

    Rank-one projectors onto (e_i + e_j)/sqrt(2), (e_i - e_j)/sqrt(2) and
    the vertices off the edited edge, each followed by a unitary carrying
    the measured state onto an edge state of the target graph, all scaled
    by 1/sqrt(number of target edges).
    """
    i_k, j_k = projector_edge
    scale = 1.0 / math.sqrt(len(target_edges))
    x_plus = np.zeros(n)
    x_plus[i_k] = x_plus[j_k] = 1.0 / math.sqrt(2)
    x_minus = np.zeros(n)
    x_minus[i_k] = 1.0 / math.sqrt(2)
    x_minus[j_k] = -1.0 / math.sqrt(2)
    targets = [_edge_unit(n, e) for e in target_edges]
    ops = []
    for proj_vec in (x_plus, x_minus):
        proj = np.outer(proj_vec, proj_vec).astype(complex)
        for y in targets:
            ops.append(scale * (complete_to_unitary(proj_vec, y) @ proj))
    for i in range(n):
        if i in (i_k, j_k):
            continue
        e_i = np.zeros(n)
        e_i[i] = 1.0
        proj = np.outer(e_i, e_i).astype(complex)
        for y in targets:
            ops.append(scale * (complete_to_unitary(e_i, y) @ proj))
    return ops


def edge_deletion_channel(g: Graph, edge) -> KrausChannel:
    """Channel with apply(sigma(g)) = sigma(g - edge)."""
    edge = _normalize_edge(g, edge)
    if edge not in set(g.edges):
        raise ChannelError(f"edge {edge} not in the graph")
    if g.m < 2:
        raise ChannelError("deleting the last edge leaves no graph state")
    remaining = [e for e in g.edges if e != edge]
    ops = _edit_operators(g.n, edge, remaining)
    return KrausChannel(tuple(ops), f"delete edge {edge[0] + 1}-{edge[1] + 1}")


def edge_addition_channel(g: Graph, edge) -> KrausChannel:
    """Channel with apply(sigma(g)) = sigma(g + edge)."""
    edge = _normalize_edge(g, edge)
    if edge in set(g.edges):
        raise ChannelError(f"edge {edge} already in the graph")
    if g.m == 0:
        raise ChannelError("source graph has no state to start from")
    target_edges = sorted(g.edges + (edge,))
    ops = _edit_operators(g.n, edge, target_edges)
    return KrausChannel(tuple(ops), f"add edge {edge[0] + 1}-{edge[1] + 1}")


def apply_channel(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    if ch.input_dim != rho.dim:
        raise ChannelError(
            f"channel acts on dimension {ch.input_dim}, state has {rho.dim}")
    data = rho.mat.to_complex()
    out = np.zeros((ch.output_dim, ch.output_dim), dtype=complex)
    for a in ch.operators:
        out += a @ data @ a.conj().T
    out = (out + out.conj().T) / 2
    return DensityMatrix(HermitianMatrix(out, exact=False))


# ---------------------------------------------------------------------------
# measurement bookkeeping for a single edge


def measurement_probabilities(g: Graph, edge) -> list[MeasurementOutcome]:
    """Outcome probabilities of the three-projector measurement at an edge.

    Probabilities follow the Kronecker-delta tallies over the edge list;
    they coincide with tr(P sigma(g)) and sum to 1 exactly.  Outcomes are
    ordered plus, minus, then the off-edge vertices ascending.
    """
    edge = _normalize_edge(g, edge)
    if edge not in set(g.edges):
        raise ChannelError(f"edge {edge} not in the graph")
    i_k, j_k = edge
    m = g.m
    sigma = density_of_graph(g)

    def delta(a, b):
        return 1 if a == b else 0

    outcomes = []
    exact_probs = []

    plus_sum = sum(
        (delta(i_k, il) - delta(i_k, jl) + delta(j_k, il) - delta(j_k, jl)) ** 2
        for (il, jl) in g.edges if (il, jl) != edge)
    p_plus = Fraction(plus_sum, 4 * m)
    plus_vec = [0] * g.n
    plus_vec[i_k] = 1
    plus_vec[j_k] = 1
    outcomes.append(_outcome(f"plus({i_k + 1}-{j_k + 1})", p_plus, plus_vec, sigma))
    exact_probs.append(p_plus)

    minus_sum = sum(
        (delta(i_k, il) - delta(i_k, jl) - delta(j_k, il) + delta(j_k, jl)) ** 2
        for (il, jl) in g.edges)
    p_minus = Fraction(minus_sum, 4 * m)
    minus_vec = [0] * g.n
    minus_vec[i_k] = 1
    minus_vec[j_k] = -1
    outcomes.append(_outcome(f"minus({i_k + 1}-{j_k + 1})", p_minus, minus_vec, sigma))
    exact_probs.append(p_minus)

    for i in range(g.n):
        if i in (i_k, j_k):
            continue
        vertex_sum = sum(
            (delta(i, il) - delta(i, jl)) ** 2 for (il, jl) in g.edges)
        p_i = Fraction(vertex_sum, 2 * m)
        vec = [0] * g.n
        vec[i] = 1
        outcomes.append(_outcome(f"vertex({i + 1})", p_i, vec, sigma))
        exact_probs.append(p_i)

    if sum(exact_probs) != 1:
        raise ChannelError(f"outcome probabilities sum to {sum(exact_probs)}, not 1")
    return outcomes


def _outcome(name: str, prob: Fraction, vec, sigma: DensityMatrix) -> MeasurementOutcome:
    if prob == 0:
        return MeasurementOutcome(name, 0.0, None)
    proj = exact_projector(vec).data
    post = proj @ sigma.mat.data @ proj
    post = post * (1 / prob)
    return MeasurementOutcome(name, float(prob), DensityMatrix(HermitianMatrix(post)))


# ---------------------------------------------------------------------------
# vertex procedures


def _apply_ops(operators, state: np.ndarray) -> np.ndarray:
    out = np.zeros_like(state)
    for a in operators:
        out += a @ state @ a.conj().T
    return (out + out.conj().T) / 2


def _delete_edges_tracked(start: Graph, state: np.ndarray, edges, steps: list):
    """Run edge-deletion channels for `edges` in order, checking each landing."""
    cur = start
    for e in edges:
        ch = edge_deletion_channel(cur, e)
        state = _apply_ops(ch.operators, state)
        cur = delete_edge(cur, *e)
        expected = density_of_graph(cur).mat.to_complex()
        if np.max(np.abs(state - expected)) > 1e-8:
            raise ChannelError(f"state after '{ch.label}' missed the graph state")
        steps.append(ch.label)
    return cur, state


def delete_vertex_report(g: Graph, v: int) -> VertexEditReport:
    """Edge deletions at v, then the projective measurement that removes it."""
    residual = delete_vertex(g, v)  # validates v
    if residual.m == 0:
        raise ChannelError("vertex deletion leaves an edgeless graph")
    steps: list[str] = []
    state = density_of_graph(g).mat.to_complex()
    at_v = [e for e in g.edges if v in e]
    _, state = _delete_edges_tracked(g, state, at_v, steps)

    keep_prob = 1.0 - state[v, v].real
    keep = np.eye(g.n, dtype=complex)
    keep[v, v] = 0.0
    post = keep @ state @ keep / keep_prob
    steps.append(f"measure away vertex {v + 1} (keep probability {keep_prob:.15f})")
    idx = [u for u in range(g.n) if u != v]
    reduced = post[np.ix_(idx, idx)]
    expected = density_of_graph(residual).mat.to_complex()
    if np.max(np.abs(reduced - expected)) > 1e-8:
        raise ChannelError("vertex deletion did not land on the residual state")
    return VertexEditReport(
        DensityMatrix(HermitianMatrix(reduced, exact=False)), keep_prob, tuple(steps))


def delete_vertex_procedure(g: Graph, v: int) -> DensityMatrix:
    return delete_vertex_report(g, v).state


def add_vertex_report(g: Graph) -> VertexEditReport:
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
    rho = kron(density_with_loops(helper).mat, density_of_graph(g).mat)
    if not rho.exact_equal(density_of_graph(product).mat):
        raise ChannelError("product state does not match the product graph state")
    steps = [f"prepare helper product state on {2 * n} vertices ({product.m} edges)"]
    state = rho.to_complex()
    copy2_edges = [e for e in product.edges if e[0] >= n]
    _, state = _delete_edges_tracked(product, state, copy2_edges, steps)

    drop = list(range(n + 1, 2 * n))
    keep_prob = 1.0 - sum(state[i, i].real for i in drop)
    keep = np.eye(2 * n, dtype=complex)
    for i in drop:
        keep[i, i] = 0.0
    post = keep @ state @ keep / keep_prob
    steps.append(
        f"measure away {len(drop)} spare vertices (keep probability {keep_prob:.15f})")
    idx = list(range(n + 1))
    reduced = post[np.ix_(idx, idx)]
    expected = density_of_graph(add_isolated_vertex(g)).mat.to_complex()
    if np.max(np.abs(reduced - expected)) > 1e-8:
        raise ChannelError("vertex addition did not land on the padded state")
    return VertexEditReport(
        DensityMatrix(HermitianMatrix(reduced, exact=False)), keep_prob, tuple(steps))


def add_vertex_procedure(g: Graph) -> DensityMatrix:
    return add_vertex_report(g).state


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
    verdict, states = pe_matching_separability(crossing, lab)

    bell_graph = delete_edge(crossing, 1, 2)
    bell = density_of_graph(bell_graph)
    bell_verdict = ppt_test(bell, lab)
    bell_c = concurrence(bell)

    k4 = complete_graph(4)
    diamond = delete_edge(k4, 0, 3)
    diamond_verdict = ppt_test(density_of_graph(diamond), lab)
    cycle = delete_edge(diamond, 1, 2)
    sigma_c = density_of_graph(cycle).mat.to_complex().real
    cycle_sep = bool((min_pt_eigenvalues(
        sigma_c, list(itertools.permutations(range(4))), 2, 2) >= -NPT_TOL).all())

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
        crossing_status=verdict.status,
        crossing_term_count=len(states),
        bell_status=bell_verdict.status,
        bell_min_pt_eigenvalue=bell_verdict.min_pt_eigenvalue,
        bell_concurrence=bell_c.value,
        k4_minus_edge_status=diamond_verdict.status,
        cycle_separable_all_labelings=cycle_sep,
        narrative=narrative,
    )
