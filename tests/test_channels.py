"""Tests for the edge/vertex editing channels and their Kraus operators."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphdm.channels as channels_mod
from graphdm import (
    ChannelError,
    EdgeEdit,
    HermitianMatrix,
    LinalgError,
    add_edge,
    add_isolated_vertex,
    build_graph,
    complete_graph,
    complete_to_unitary,
    cycle_graph,
    delete_edge,
    delete_vertex,
    density_of_graph,
    edge_addition_channel,
    edge_deletion_channel,
    exact_projector,
    measurement_probabilities,
    nonisomorphic_graphs,
    path_graph,
    star_graph,
    VertexEdit,
    vertex_addition,
    vertex_deletion,
)
from graphdm.channels import check_landing
from graphdm.density import TRACE_TOL
from graphdm.linalg import PSD_TOL

F = Fraction


def state_of(g):
    return density_of_graph(g).to_real()


def assert_states(outs):
    """Every channel output is a state: Hermitian, unit trace and PSD at the
    tolerances DensityMatrix applies, with one eigvalsh per vertex count."""
    for n in {len(out) for out in outs}:
        stack = np.array([out for out in outs if len(out) == n])
        assert np.abs(stack - stack.conj().transpose(0, 2, 1)).max() <= 1e-10
        assert np.abs(np.trace(stack, axis1=1, axis2=2) - 1).max() <= TRACE_TOL
        assert np.linalg.eigvalsh(stack).min() >= -PSD_TOL


def run(edit):
    """A VertexEdit run on its own graph states: (state, keep probability,
    landing error), with the state checked."""
    state, keep_prob, err = edit.run()
    assert_states([state])
    return state, keep_prob, err


def completeness_defect(ch):
    total = np.zeros((ch.input_dim, ch.input_dim), dtype=complex)
    for op in ch.operators:
        total += op.conj().T @ op
    return np.abs(total - np.eye(ch.input_dim)).max()


def test_deletion_channel_shape_and_completeness():
    g = path_graph(4)
    ch = edge_deletion_channel(g, (1, 2))
    # plus and minus families over the remaining edges, vertex family besides
    m, n = g.m, g.n
    assert len(ch.operators) == 2 * (m - 1) + (n - 2) * (m - 1)
    assert completeness_defect(ch) < 1e-10
    assert ch.label == "delete edge 2-3"


def test_addition_channel_shape_and_completeness():
    g = path_graph(4)
    ch = edge_addition_channel(g, (0, 2))
    assert len(ch.operators) == g.n * (g.m + 1)
    assert completeness_defect(ch) < 1e-10
    assert ch.label == "add edge 1-3"


def test_channels_land_on_target_state():
    cases = [
        (path_graph(4), (1, 2)),
        (complete_graph(4), (0, 3)),
        (cycle_graph(5), (2, 3)),
        (star_graph(5), (0, 4)),
    ]
    outs = []
    for g, edge in cases:
        ch = edge_deletion_channel(g, edge)
        outs.append(ch.apply(state_of(g)))
        assert np.abs(outs[-1] - state_of(delete_edge(g, *edge))).max() < 1e-10
    g = path_graph(4)
    ch = edge_addition_channel(g, (0, 3))
    outs.append(ch.apply(state_of(g)))
    assert np.abs(outs[-1] - state_of(add_edge(g, 0, 3))).max() < 1e-10
    assert_states(outs)


def test_channel_output_ignores_input_state():
    """The editing channels are constant maps: any input lands on the target."""
    g = cycle_graph(4)
    ch = edge_deletion_channel(g, (0, 1))
    target = state_of(delete_edge(g, 0, 1))
    outs = [ch.apply(np.eye(4) / 4), ch.apply(state_of(star_graph(4)))]
    for out in outs:
        assert np.abs(out - target).max() < 1e-10
    assert_states(outs)


def test_delete_then_add_round_trip():
    for g in [path_graph(4), cycle_graph(5), complete_graph(4)]:
        edge = g.edges[1]
        down = edge_deletion_channel(g, edge).apply(state_of(g))
        reduced = delete_edge(g, *edge)
        up = edge_addition_channel(reduced, edge).apply(down)
        assert np.abs(up - state_of(g)).max() < 1e-10
        assert_states([down, up])


def test_channel_error_paths():
    # the constructors name vertices 1-based, in the order given
    g = path_graph(4)
    with pytest.raises(ChannelError, match="^edge 1-3 is not in the graph$"):
        edge_deletion_channel(g, (0, 2))
    with pytest.raises(ChannelError, match="^deleting the last edge leaves no graph state$"):
        edge_deletion_channel(path_graph(2), (0, 1))
    with pytest.raises(ChannelError, match="^edge 3-2 is already in the graph$"):
        edge_addition_channel(g, (2, 1))
    with pytest.raises(ChannelError, match=r"^vertex 5 out of range 1\.\.4$"):
        edge_addition_channel(g, (1, 4))
    with pytest.raises(ChannelError, match="^an edge needs two distinct vertices$"):
        edge_deletion_channel(g, (1, 1))
    with pytest.raises(ChannelError, match=r"^vertex 0 out of range 1\.\.4$"):
        measurement_probabilities(g, (-1, 2))
    for v in (-1, 4):
        with pytest.raises(ChannelError, match=rf"^vertex {v + 1} out of range 1\.\.4$"):
            vertex_deletion(g, v)
    ch = edge_deletion_channel(g, (1, 2))
    with pytest.raises(ChannelError, match="^channel acts on dimension 4, state has 3$"):
        ch.apply(state_of(path_graph(3)))


def test_complete_to_unitary_maps_source_to_target():
    rng = np.random.default_rng(5)
    for dim in [2, 3, 5, 8]:
        for _ in range(5):
            s = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            t = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            s /= np.linalg.norm(s)
            t /= np.linalg.norm(t)
            u = complete_to_unitary(s, t)
            assert np.abs(u @ u.conj().T - np.eye(dim)).max() < 1e-10
            assert np.abs(u @ s - t).max() < 1e-10


def test_complete_to_unitary_fixed_point_is_identity():
    v = np.array([1.0, 2.0, 2.0]) / 3.0
    u = complete_to_unitary(v, v)
    np.testing.assert_allclose(u, np.eye(3), atol=1e-12)
    with pytest.raises(ChannelError):
        complete_to_unitary(np.array([1.0, 1.0]), np.array([1.0, 0.0]))


def test_measurement_probabilities_exact_and_ordered():
    g = path_graph(4)
    outs = measurement_probabilities(g, (1, 2))
    names = [o.projector for o in outs]
    assert names == ["plus(2-3)", "minus(2-3)", "vertex(1)", "vertex(4)"]
    assert abs(sum(o.probability for o in outs) - 1.0) < 1e-15
    # cross-check each probability against the direct trace tr(P sigma)
    sigma = density_of_graph(g).mat.to_real()
    half = 1 / math.sqrt(2)
    vecs = {
        "plus(2-3)": np.array([0, half, half, 0]),
        "minus(2-3)": np.array([0, half, -half, 0]),
        "vertex(1)": np.array([1.0, 0, 0, 0]),
        "vertex(4)": np.array([0, 0, 0, 1.0]),
    }
    for o in outs:
        v = vecs[o.projector]
        direct = float(np.real(v @ sigma @ v))
        assert abs(o.probability - direct) < 1e-12


def test_measurement_post_states():
    # the last graph has an isolated vertex, so one outcome has probability 0
    cases = [(path_graph(3), (0, 1)), (path_graph(4), (0, 2)),
             (build_graph(4, [(0, 1), (1, 2)]), (0, 1))]
    for g, pair in cases:
        sigma = density_of_graph(g).mat
        for o in measurement_probabilities(g, pair):
            proj = exact_projector(o.vector)
            prob = F(int((proj.num @ sigma.num).trace()), proj.den * sigma.den)
            assert o.probability == float(prob)
            if prob == 0:
                assert o.post_state is None
                continue
            post = o.post_state
            assert post.mat.trace() == 1
            # rank-one outcome: P sigma P / p is the projector itself, exactly
            exact = HermitianMatrix(proj.num @ sigma.num @ proj.num, den=proj.den ** 2 * sigma.den)
            assert post.mat.exact_equal(exact.scale(1 / prob))


def test_vertex_deletion_on_triangle():
    state, click, err = run(vertex_deletion(complete_graph(3), 2))
    assert click == 1.0
    assert state.shape == (2, 2)
    assert np.abs(state - state_of(path_graph(2))).max() == err < 1e-10


def test_vertex_deletion_on_star_leaf():
    state, click, _ = run(vertex_deletion(star_graph(4), 3))
    assert click == 1.0
    assert np.abs(state - state_of(star_graph(3))).max() < 1e-10


def test_vertex_deletion_rejects_emptying():
    with pytest.raises(ChannelError):
        vertex_deletion(path_graph(2), 0)
    with pytest.raises(ChannelError):
        vertex_deletion(star_graph(4), 0)  # removing the hub empties it


def test_vertex_addition_appends_isolated_vertex():
    for g in [path_graph(2), path_graph(3), star_graph(4), cycle_graph(5)]:
        state, click, _ = run(vertex_addition(g))
        assert click == 1.0
        assert state.shape == (g.n + 1, g.n + 1)
        assert np.abs(state - state_of(add_isolated_vertex(g))).max() < 1e-10


def test_vertex_addition_checks_the_product_graph(monkeypatch):
    # the second copy's edge n-(n+1) moved to n-(n+2): not the state of g twice
    product = channels_mod.tensor_product
    monkeypatch.setattr(channels_mod, "tensor_product", lambda helper, g: add_edge(
        delete_edge(product(helper, g), g.n, g.n + 1), g.n, g.n + 2))
    for g in (path_graph(3), cycle_graph(5)):
        with pytest.raises(ChannelError,
                           match="^product state does not match the product graph state$"):
            vertex_addition(g)


# landing checks: an edit whose float state misses its graph state is refused


@pytest.fixture
def drifting_apply(monkeypatch):
    """Every channel output moved by 1e-6 in each entry."""
    apply = EdgeEdit.apply
    monkeypatch.setattr(EdgeEdit, "apply",
                        lambda self, state: apply(self, state) + 1e-6)


def test_vertex_edits_check_each_edge_landing(drifting_apply):
    # C5's vertex 4 (1-based) loses edge 3-4 first; P3's copy drains 4-5 first
    with pytest.raises(ChannelError,
                       match="^state after 'delete edge 3-4' missed the graph state by 1e-06$"):
        run(vertex_deletion(cycle_graph(5), 3))
    with pytest.raises(ChannelError,
                       match="^state after 'delete edge 4-5' missed the graph state by 1e-06$"):
        run(vertex_addition(path_graph(3)))


def test_vertex_edits_check_the_final_landing(monkeypatch):
    # the compressed state is compared with the graph the edit claims to reach
    monkeypatch.setattr(channels_mod, "delete_vertex",
                        lambda g, v: add_edge(delete_vertex(g, v), 0, 2))
    monkeypatch.setattr(channels_mod, "add_isolated_vertex",
                        lambda g: add_edge(add_isolated_vertex(g), 0, g.n))
    with pytest.raises(ChannelError, match="^vertex deletion did not land on the residual state: "
                                           "state after 'the measurement' missed the graph state by "):
        run(vertex_deletion(cycle_graph(5), 4))
    with pytest.raises(ChannelError, match="^vertex addition did not land on the padded state: "):
        run(vertex_addition(path_graph(3)))


def test_locc_examples_report():
    from graphdm import locc_principle_examples

    rep = locc_principle_examples()
    assert rep.crossing_status == "SEPARABLE"
    assert rep.crossing_term_count == 2
    assert rep.bell_status == "ENTANGLED_NPT"
    assert abs(rep.bell_min_pt_eigenvalue - (-0.5)) < 1e-10
    assert abs(rep.bell_concurrence - 1.0) < 1e-10
    assert rep.k4_minus_edge_status == "ENTANGLED_NPT"
    assert rep.cycle_separable_all_labelings is True
    assert rep.narrative


# ---------------------------------------------------------------------------
# measure-and-prepare form against the Householder Kraus operators


def householder_operators(n, pair, target_edges):
    """The paper's Kraus operators: the projector onto each measured x, then
    the unitary carrying x onto each target edge state, over sqrt(m').

    Measured vectors come in the order plus, minus, then the vertices off the
    pair ascending; targets in edge order.
    """
    i, j = pair
    h = 1 / math.sqrt(2)
    measured = []
    for sign in (1.0, -1.0):
        x = np.zeros(n)
        x[i], x[j] = h, sign * h
        measured.append(x)
    measured += [np.eye(n)[k] for k in range(n) if k not in pair]
    targets = []
    for u, v in target_edges:
        y = np.zeros(n)
        y[u], y[v] = h, -h
        targets.append(y)
    scale = 1 / math.sqrt(len(targets))
    return [scale * (complete_to_unitary(x, y) @ np.outer(x, x))
            for x in measured for y in targets]


@pytest.fixture(scope="module")
def small_graphs():
    """Every graph with 3 to 5 vertices and at least two edges, up to isomorphism."""
    return [g for n in range(3, 6) for g in nonisomorphic_graphs(n, min_edges=2)]


def edits_at(g, edge):
    """(channel, Householder operators, source state) for deleting edge from g
    and for adding it back to the reduced graph."""
    reduced = delete_edge(g, *edge)
    return [(edge_deletion_channel(g, edge), householder_operators(g.n, edge, reduced.edges),
             density_of_graph(g).to_real()),
            (edge_addition_channel(reduced, edge), householder_operators(g.n, edge, g.edges),
             density_of_graph(reduced).to_real())]


def test_measure_prepare_matches_householder_kraus_sum(small_graphs):
    for g in small_graphs:
        for edge in g.edges:
            for ch, ops, sigma in edits_at(g, edge):
                assert len(ch.operators) == len(ops)
                for derived, reference in zip(ch.operators, ops):
                    assert np.abs(derived - reference).max() < 1e-15
                want = sum(a @ sigma @ a.conj().T for a in ops)
                assert np.abs(ch.apply(sigma) - want).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_measure_prepare_matches_householder_on_random_states(small_graphs, data):
    """Complex PSD unit-trace inputs of every rank, from a drawn seed."""
    g = data.draw(st.sampled_from(small_graphs))
    edge = data.draw(st.sampled_from(g.edges))
    rank = data.draw(st.integers(1, g.n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((g.n, rank)) + 1j * rng.standard_normal((g.n, rank))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    for ch, ops, _ in edits_at(g, edge):
        want = sum(k @ rho @ k.conj().T for k in ops)
        assert np.abs(ch.apply(rho) - want).max() < 1e-12


def test_probabilities_at_every_pair_are_quadratic_forms():
    """Non-edges too: these are the outcome probabilities of edge addition."""
    h = 1 / math.sqrt(2)
    for n in range(3, 6):
        for g in nonisomorphic_graphs(n, min_edges=1):
            sigma = density_of_graph(g).to_real()
            for i, j in itertools.combinations(range(n), 2):
                outs = measurement_probabilities(g, (i, j))
                off = [k for k in range(n) if k not in (i, j)]
                assert [o.projector for o in outs] == (
                    [f"plus({i + 1}-{j + 1})", f"minus({i + 1}-{j + 1})"]
                    + [f"vertex({k + 1})" for k in off])
                xs = [h * (np.eye(n)[i] + np.eye(n)[j]),
                      h * (np.eye(n)[i] - np.eye(n)[j])] + [np.eye(n)[k] for k in off]
                for o, x in zip(outs, xs):
                    assert abs(o.probability - x @ sigma @ x) < 1e-12


def test_exact_only_functions_refuse_a_channel_output():
    # a channel output is a float state, so it never becomes an exact matrix
    # and no exact-only function can be handed one
    g = path_graph(4)
    out = edge_deletion_channel(g, (1, 2)).apply(state_of(g))
    with pytest.raises(LinalgError, match="must be integers"):
        HermitianMatrix(out)


# ---------------------------------------------------------------------------
# exact certificates against the float pass they replace on the CLI path


def other_graph(g):
    """g with one vertex pair toggled, keeping an edge: a state g's is not.
    None for the one edge on two vertices, the only graph there with a state."""
    absent = [e for e in itertools.combinations(range(g.n), 2) if not g.has_edge(*e)]
    if absent:
        return add_edge(g, *absent[0])
    return delete_edge(g, *g.edges[0]) if g.m > 1 else None


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_certificates_agree_with_the_float_pass(data):
    n = data.draw(st.integers(3, 9))
    pairs = list(itertools.combinations(range(n), 2))
    g = build_graph(n, data.draw(st.lists(st.sampled_from(pairs), min_size=2, unique=True)))
    kinds = ["del-edge", "add-vertex"] + ["add-edge"] * (g.m < len(pairs))
    kinds += ["del-vertex"] * any(delete_vertex(g, v).m for v in range(n))
    kind = data.draw(st.sampled_from(kinds))
    if kind == "del-edge":
        edit = edge_deletion_channel(g, data.draw(st.sampled_from(g.edges)))
    elif kind == "add-edge":
        edit = edge_addition_channel(g, data.draw(st.sampled_from(
            [e for e in pairs if not g.has_edge(*e)])))
    elif kind == "del-vertex":
        edit = vertex_deletion(g, data.draw(st.sampled_from(
            [v for v in range(n) if delete_vertex(g, v).m])))
    else:
        edit = vertex_addition(g)
    wrong = other_graph(edit.result)

    def float_pass(edit):
        """Apply the edit to the state of g and compare with edit.result's."""
        if isinstance(edit, VertexEdit):
            edit.run()
        else:
            check_landing(edit.apply(state_of(g)), state_of(edit.result), edit.label)

    # a certified edit lands under the float pass ...
    edit.certify()
    float_pass(edit)
    # ... and one whose target is another graph is refused by both: a vertex
    # edit that claims to reach it, an edge edit that prepares its edges
    if wrong is None:
        return
    if isinstance(edit, VertexEdit):
        off = VertexEdit(edit.channels, (*edit.graphs[:-1], wrong), edit.dropped, edit.missed)
    else:
        off = EdgeEdit(g, edit.pair, wrong.edges, edit.result, edit.label)
    with pytest.raises(ChannelError):
        off.certify()
    with pytest.raises(ChannelError, match="missed the graph state"):
        float_pass(off)


def test_edit_certificates_refuse_malformed_edits():
    # edits no constructor makes: the certificates still refuse them
    g = cycle_graph(5)
    edit = edge_deletion_channel(g, (0, 1))
    with pytest.raises(ChannelError, match="^delete edge 1-2: the measured pair is not two "
                                           "distinct vertices$"):
        EdgeEdit(g, (1, 1), edit.target_edges, edit.result, edit.label).certify()
    with pytest.raises(ChannelError, match="^delete edge 1-2: no edge state is prepared$"):
        EdgeEdit(g, (0, 1), [], build_graph(5, []), edit.label).certify()
    # a vertex edit that skips its last edge deletion measures a vertex that
    # still has an edge: refused exactly, and missed by the float pass
    edit = vertex_deletion(g, 3)
    short = VertexEdit(edit.channels[:-1], (*edit.graphs[:-2], edit.result), edit.dropped,
                       edit.missed)
    with pytest.raises(ChannelError, match="drops a vertex with an edge"):
        short.certify()
    with pytest.raises(ChannelError, match="missed the graph state"):
        short.run()
    # its two deletions, swapped, are each certified but do not chain
    swapped = VertexEdit(edit.channels[::-1], edit.graphs, edit.dropped, edit.missed)
    with pytest.raises(ChannelError, match="^delete edge 4-5 is not a step of the edit$"):
        swapped.certify()
    with pytest.raises(ChannelError, match="missed the graph state"):
        swapped.run()
