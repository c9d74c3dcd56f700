"""Tests for partial transpose, separability verdicts and decompositions."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdm import (
    ENTANGLED_NPT,
    PPT_INCONCLUSIVE,
    SEPARABLE,
    BipartiteLabeling,
    DensityError,
    ProductStates,
    SeparabilityError,
    build_graph,
    complete_graph,
    complete_graph_decomposition,
    coset_representatives,
    cycle_graph,
    density_of_graph,
    density_with_loops,
    eigensystem,
    entangled_edges,
    labeling_search,
    min_pt_eigenvalues,
    nonisomorphic_graphs,
    partial_transpose,
    path_graph,
    petersen_graph,
    ppt_test,
    ppt_verdicts,
    pure_mixture_decomposition,
    separable_decomposition,
    sigma_plus,
    star_graph,
    star_projection_witness,
    tally_mark_decomposition,
    verify_separable_decomposition,
    von_neumann_entropy,
)
import graphdm.separability as separability
from graphdm.graphs import laplacian
from graphdm.separability import (
    _EIG_BLOCK,
    RECONSTRUCTION_TOL,
    _pair_table,
    certify_ppt_verdicts,
    partial_transposes,
)

F = Fraction
LAB22 = BipartiteLabeling.default(2, 2)


def tally_chain(k):
    """Two-row pe-matching whose column map is the increasing k-cycle."""
    return build_graph(2 * k, [(c, k + (c + 1) % k) for c in range(k)])


def test_labeling_helpers():
    lab = BipartiteLabeling.default(2, 3)
    assert lab.n == 6
    assert lab.cells == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2))
    assert lab.assign == (0, 1, 2, 3, 4, 5)
    other = BipartiteLabeling.from_assignment(2, 3, (5, 4, 3, 2, 1, 0))
    assert other.assign == (5, 4, 3, 2, 1, 0)
    assert other.cells[0] == (1, 2)
    with pytest.raises(SeparabilityError):
        BipartiteLabeling.from_assignment(2, 2, (0, 1, 2, 2))


@pytest.mark.parametrize("cells", [
    ((0, 0), (0, 1), (0, 2), (1, 1)),  # (0, 2) has the flat index of (1, 0)
    ((0, 0), (1, -1), (1, 0), (1, 1)),  # (1, -1) has the flat index of (0, 1)
    ((0, 0), (0, 1), (2, -2), (1, 1)),
])
def test_labeling_rejects_cells_outside_the_grid(cells):
    # each flat index s*q + t still occurs once, so only the range check refuses
    assert sorted(s * 2 + t for s, t in cells) == [0, 1, 2, 3]
    with pytest.raises(SeparabilityError, match="outside the 2x2 grid"):
        BipartiteLabeling(2, 2, cells)


def test_partial_transpose_is_exact_involution():
    from graphdm import DensityMatrix

    for g in [path_graph(4), complete_graph(4), star_graph(4)]:
        rho = density_of_graph(g)
        pt = partial_transpose(rho, LAB22)
        assert pt.trace() == 1
    # applying it twice returns the original (via a state whose PT stays PSD)
    crossing = density_of_graph(build_graph(4, [(0, 3), (1, 2)]))
    once = DensityMatrix(partial_transpose(crossing, LAB22))
    twice = partial_transpose(once, LAB22)
    assert twice.exact_equal(crossing.mat)


def test_partial_transpose_swaps_column_blocks():
    # PT transposes each 2x2 block in the column index of the second factor
    rho = density_of_graph(path_graph(4))
    pt = partial_transpose(rho, LAB22)
    mat = rho.mat
    assert pt.entry(0, 1) == mat.entry(0, 1)  # within-block diagonal stays
    assert pt.entry(0, 3) == mat.entry(1, 2)  # cross-block corner swaps
    assert pt.entry(1, 2) == mat.entry(0, 3)


def test_interleaved_path_pt_spectrum():
    # vertex -> cell map (0,0),(1,0),(0,1),(1,1) puts the path across rows
    lab = BipartiteLabeling(2, 2, ((0, 0), (1, 0), (0, 1), (1, 1)))
    rho = density_of_graph(path_graph(4))
    spec = eigensystem(partial_transpose(rho, lab))
    expected = sorted([0.5, 1 / 6, (1 + math.sqrt(2)) / 6, (1 - math.sqrt(2)) / 6])
    for got, want in zip(spec.eigenvalues, expected):
        assert abs(got - want) < 1e-9


def test_relabeled_path_is_pt_invariant():
    # the same path drawn without entangled edges: PT fixes the state
    h = build_graph(4, [(0, 3), (3, 2), (2, 1)])
    rho = density_of_graph(h)
    lab = BipartiteLabeling(2, 2, ((0, 0), (1, 0), (0, 1), (1, 1)))
    pt = partial_transpose(rho, lab)
    assert pt.exact_equal(rho.mat)
    assert ppt_test(rho, lab).status == SEPARABLE


def test_ppt_test_statuses():
    assert ppt_test(density_of_graph(path_graph(4)), LAB22).status == ENTANGLED_NPT
    crossing = build_graph(4, [(0, 3), (1, 2)])
    assert ppt_test(density_of_graph(crossing), LAB22).status == SEPARABLE
    # PPT at 2x3 still certifies separability
    lab23 = BipartiteLabeling.default(2, 3)
    two = build_graph(6, [(0, 4), (1, 3)])
    assert ppt_test(density_of_graph(two), lab23).status == SEPARABLE
    # beyond 2x2 and 2x3 a positive partial transpose proves nothing
    lab34 = BipartiteLabeling.default(3, 4)
    big = ppt_test(density_of_graph(cycle_graph(12)), lab34)
    assert big.status in (ENTANGLED_NPT, PPT_INCONCLUSIVE)


def test_ppt_test_refuses_states_not_of_a_graph():
    looped = build_graph(4, [(0, 1), (2, 3)], loops=[1, 0, 0, 0])
    for rho in (density_with_loops(looped), sigma_plus(path_graph(4))):
        with pytest.raises(SeparabilityError):
            ppt_test(rho, LAB22)
    with pytest.raises(SeparabilityError):
        ppt_test(density_of_graph(path_graph(4)), BipartiteLabeling.default(2, 3))


def test_origin_marks_exactly_the_graph_states():
    # a state's origin is set exactly when the state is L(origin)/2m; the
    # PPT test and the exact kernel zeros of the spectrum read it alone
    g = build_graph(6, [(0, 1), (0, 4), (1, 3), (2, 5), (3, 4)])
    lab = BipartiteLabeling.default(2, 3)
    assert density_of_graph(g).origin == g
    assert density_with_loops(g).origin == g
    for _, part in pure_mixture_decomposition(g):
        one = part.origin
        assert one.m == 1 and part.mat.exact_equal(density_of_graph(one).mat)
        status = ENTANGLED_NPT if entangled_edges(one, lab) else SEPARABLE
        assert ppt_test(part, lab).status == status
        assert von_neumann_entropy(part).spectrum.eigenvalues[:g.n - 1] == (0.0,) * (g.n - 1)
    looped = build_graph(6, g.edges, loops=[1, 0, 0, 0, 0, 0])
    for rho in (sigma_plus(g), density_with_loops(looped)):
        assert rho.origin is None
        with pytest.raises(SeparabilityError, match="graph states"):
            ppt_test(rho, lab)


@settings(max_examples=100, deadline=None)
@given(grid=st.sampled_from([(p, q) for p in range(2, 7) for q in range(2, 7) if p * q <= 12]),
       seed=st.integers(0, 2**32 - 1), density=st.floats(0.1, 1))
def test_assign_is_the_one_flat_form(grid, seed, density):
    """lab.assign is the flat form of lab.cells and the input of
    from_assignment, and checking a decomposition under the default
    labeling gathers by the identity, as checking with no labeling does:
    K_n's, and a random graph's under the default and a random labeling."""
    p, q = grid
    n = p * q
    rng = np.random.default_rng(seed)
    a = rng.permutation(n).tolist()
    lab = BipartiteLabeling.from_assignment(p, q, a)
    assert lab.assign == tuple(s * q + t for s, t in lab.cells)
    assert lab.assign == tuple(a)
    default = BipartiteLabeling.default(p, q)
    assert default.assign == tuple(range(n))
    pairs = list(itertools.combinations(range(n), 2))
    g = build_graph(n, [e for e in pairs if rng.random() < density] or pairs[:1])
    cases = [(density_of_graph(complete_graph(n)), complete_graph_decomposition(n, p, q))]
    rho = density_of_graph(g)
    for read in (default, lab):
        found = separable_decomposition(rho, read)
        if found is not None:
            cases.append((rho, found[1]))
    for rho, states in cases:
        assert (verify_separable_decomposition(rho, states, default)
                == verify_separable_decomposition(rho, states))
    assert verify_separable_decomposition(*cases[0], lab)


def test_min_pt_eigenvalue_known_values():
    got = ppt_test(density_of_graph(path_graph(4)), LAB22).min_pt_eigenvalue
    assert abs(got - (1 - math.sqrt(2)) / 6) < 1e-10
    got = ppt_test(density_of_graph(star_graph(4)), LAB22).min_pt_eigenvalue
    assert abs(got - (0.25 - math.sqrt(17) / 12)) < 1e-10


def test_entangled_edges():
    assert entangled_edges(path_graph(4), LAB22) == [(1, 2)]
    crossing = build_graph(4, [(0, 3), (1, 2)])
    assert entangled_edges(crossing, LAB22) == [(0, 3), (1, 2)]
    assert entangled_edges(build_graph(4, [(0, 1), (2, 3)]), LAB22) == []


def test_pe_matching_separability_decomposes():
    crossing = build_graph(4, [(0, 3), (1, 2)])
    rho = density_of_graph(crossing)
    route, states = separable_decomposition(rho, LAB22)
    assert route == "criss-cross-matching" and len(states) == 2
    assert verify_separable_decomposition(rho, states, LAB22)
    # P4's one entangled edge is an arc no other arc balances: NPT, no route
    assert separable_decomposition(density_of_graph(path_graph(4)), LAB22) is None


def test_builder_refuses_what_is_not_its_graph_state():
    looped = build_graph(4, [(0, 3), (1, 2)], loops=[1, 0, 0, 0])
    for rho in (sigma_plus(path_graph(4)), density_with_loops(looped)):
        assert rho.origin is None
        with pytest.raises(SeparabilityError, match="graph states"):
            separable_decomposition(rho, LAB22)
    with pytest.raises(SeparabilityError, match="labeling size"):
        separable_decomposition(density_of_graph(path_graph(4)), BipartiteLabeling.default(2, 3))


def column_cycles(pi):
    """The cycles of the column map t -> pi[t], each as its set of columns."""
    cycles, seen = [], set()
    for start in range(len(pi)):
        cycle, t = set(), start
        while t not in seen:
            seen.add(t)
            cycle.add(t)
            t = pi[t]
        if cycle:
            cycles.append(frozenset(cycle))
    return cycles


def assert_marks_are_column_cycles(pi, lab):
    """The two-row pe-matching joining cell (0, t) to (1, pi[t]) under lab
    decomposes by criss-crosses into q states, and the supports of their
    right factors group them into pi's cycles, one state per column."""
    vertex_at = {cell: v for v, cell in enumerate(lab.cells)}
    g = build_graph(lab.n, [(vertex_at[(0, t)], vertex_at[(1, pi[t])]) for t in range(lab.q)])
    route, states = separable_decomposition(density_of_graph(g), lab)
    assert route == "criss-cross-matching" and len(states) == lab.q
    supports = Counter(frozenset(np.flatnonzero(np.abs(right) > 1e-12).tolist())
                       for right in states.right)
    assert supports == {cycle: len(cycle) for cycle in column_cycles(pi)}


def test_tally_marks_are_the_column_cycles_of_worked_examples():
    # the crossing is one criss-cross; the scrambled chain 0 -> 2 -> 1 -> 0
    # of (0,5), (1,3), (2,4) is one 3-column mark
    assert column_cycles([1, 0]) == [{0, 1}]
    assert column_cycles([2, 0, 1]) == [{0, 1, 2}]
    assert_marks_are_column_cycles([1, 0], LAB22)
    assert_marks_are_column_cycles([2, 0, 1], BipartiteLabeling.default(2, 3))


def test_tally_marks_are_the_column_cycles_of_every_derangement():
    # every two-row pe-matching on q = 2..5 columns, 1 + 2 + 9 + 44 graphs,
    # under the default labeling and one random relabeling each
    rng = np.random.default_rng(29)
    counts = []
    for q in range(2, 6):
        derangements = [pi for pi in itertools.permutations(range(q))
                        if all(pi[t] != t for t in range(q))]
        counts.append(len(derangements))
        for pi in derangements:
            assert_marks_are_column_cycles(pi, BipartiteLabeling.default(2, q))
            assert_marks_are_column_cycles(
                pi, BipartiteLabeling.from_assignment(2, q, rng.permutation(2 * q)))
    assert counts == [1, 2, 9, 44]


def test_cycle_graph_separable_under_every_labeling():
    g = cycle_graph(4)
    census = labeling_search(g, 2, 2)
    assert census.counts[ENTANGLED_NPT] == 0
    assert census.counts[SEPARABLE] == census.total == 24


def test_tally_mark_decompositions():
    # a mark of size k spans k+1 columns and yields k+1 product states
    for k in range(1, 5):
        cols = k + 1
        g = tally_chain(cols)
        states = tally_mark_decomposition(g)
        assert len(states) == cols
        assert states.left.shape == (cols, 2) and states.right.shape == (cols, cols)
        assert abs(states.weights.sum() - 1.0) < 1e-12
        assert verify_separable_decomposition(
            density_of_graph(g), states, BipartiteLabeling.default(2, cols))
        # the right factors are discrete Fourier vectors: pairwise orthonormal
        np.testing.assert_allclose(
            states.right @ states.right.conj().T, np.eye(cols), atol=1e-10)
    with pytest.raises(SeparabilityError):
        tally_mark_decomposition(path_graph(4))
    with pytest.raises(SeparabilityError):
        tally_mark_decomposition(tally_chain(1))  # one column is not a mark


def test_tally_mark_check_accepts_what_the_matching_rule_accepts():
    # the rule the one-line check replaced: a pe-matching (no loop, each
    # vertex on exactly one edge, every edge entangled) under the default
    # two-row labeling whose column map is the increasing cycle
    def old_rule(g):
        lab = BipartiteLabeling.default(2, g.n // 2)
        ends = sorted(v for edge in g.edges for v in edge)
        if any(g.loops) or ends != list(range(g.n)) or len(entangled_edges(g, lab)) < g.m:
            return False
        pi = {lab.cells[u][1]: lab.cells[v][1] for u, v in g.edges}  # u sits in row 0
        return all(pi[c] == (c + 1) % lab.q for c in range(lab.q))

    def accepted(g):
        try:
            tally_mark_decomposition(g)
        except SeparabilityError:
            return False
        return True

    # every graph on 2 and 4 vertices, and every one with at most 4 edges on
    # 6 (a pe-matching there has 3)
    for n, most in ((2, 1), (4, 6), (6, 4)):
        pairs = list(itertools.combinations(range(n), 2))
        for size in range(most + 1):
            for edges in itertools.combinations(pairs, size):
                g = build_graph(n, edges)
                assert accepted(g) == old_rule(g), g.edges
    looped = build_graph(6, tally_chain(3).edges, loops=[1, 0, 0, 0, 0, 0])
    assert not accepted(looped) and not old_rule(looped)


def test_complete_graph_decomposition():
    for n, p, q in [(4, 2, 2), (6, 2, 3), (9, 3, 3)]:
        states = complete_graph_decomposition(n, p, q)
        assert len(states) == n * (n - 1) // 2
        assert verify_separable_decomposition(
            density_of_graph(complete_graph(n)), states,
            BipartiteLabeling.default(p, q))
    with pytest.raises(SeparabilityError):
        complete_graph_decomposition(5, 2, 2)  # dimensions must match n


def test_verify_separable_decomposition_rejects_wrong_mixture():
    rho = density_of_graph(path_graph(4))  # entangled under default labeling
    states = complete_graph_decomposition(4, 2, 2)
    assert not verify_separable_decomposition(rho, states, LAB22)
    assert not verify_separable_decomposition(rho, no_states(2, 2), LAB22)


def no_states(p, q):
    return ProductStates(np.zeros((0, p), dtype=complex), np.zeros((0, q), dtype=complex),
                         np.zeros(0))


def looped_check(rho, states, lab=None):
    """verify_separable_decomposition with one np.kron and one np.outer per
    row of the stacks and each state's own norm and weight checks: the
    reference for the stacked product and its stacked checks."""
    rows = list(zip(states.left, states.right, states.weights.tolist()))
    if not rows:
        return False
    for left, right, weight in rows:
        for vec in (left, right):
            if abs(np.linalg.norm(vec) - 1.0) > 1e-10:
                raise SeparabilityError("product-state factor is not unit norm")
        if weight < 0:
            raise SeparabilityError("product-state weight must be nonnegative")
    total = sum(weight for _, _, weight in rows)
    if abs(total - 1.0) > 1e-10:
        raise SeparabilityError(f"weights sum to {total}, not 1")
    n = rho.dim
    mix = np.zeros((n, n), dtype=complex)
    for left, right, weight in rows:
        vec = np.kron(np.asarray(left, dtype=complex), np.asarray(right, dtype=complex))
        mix += weight * np.outer(vec, vec.conj())
    if lab is not None:
        mix = mix[np.ix_(lab.assign, lab.assign)]
    return bool(np.abs(mix - rho.mat.to_real()).max() <= RECONSTRUCTION_TOL)


def random_unit(rng, dim):
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


@settings(max_examples=120, deadline=None)
@given(p=st.integers(2, 3), q=st.integers(2, 4), seed=st.integers(0, 2**32 - 1),
       labeled=st.booleans(),
       kind=st.sampled_from(["verified", "relabeled", "dropped", "random", "weights", "empty",
                             "long", "negative"]))
def test_stacked_check_matches_the_per_state_loop(p, q, seed, labeled, kind):
    """A random graph with a verified decomposition under a random or the
    default labeling, then that decomposition, the same states read under
    another labeling, one term dropped, random product states, weights that
    do not sum to 1, no states at all, one factor doubled, or one weight
    negated with the rest rescaled to sum to 1."""
    rng = np.random.default_rng(seed)
    n = p * q
    lab = BipartiteLabeling.from_assignment(p, q, rng.permutation(n)) if labeled else None
    read = lab or BipartiteLabeling.default(p, q)
    pairs = [(u, v) for u, v in itertools.combinations(range(n), 2)
             if read.cells[u][0] == read.cells[v][0] or read.cells[u][1] == read.cells[v][1]]
    edges = [e for e in pairs if rng.random() < 0.5] or pairs[:1]
    if p == 2 and rng.random() < 0.5:  # an entangled pe-matching brings complex factors
        vertex_at = {cell: v for v, cell in enumerate(read.cells)}
        shift = int(rng.integers(1, q))
        edges += [(vertex_at[(0, t)], vertex_at[(1, (t + shift) % q)]) for t in range(q)]
    g = build_graph(n, edges)
    rho = density_of_graph(g)
    states = separable_decomposition(rho, read)[1]
    left, right, weights = states.left, states.right, states.weights
    if kind == "relabeled":
        lab = BipartiteLabeling.from_assignment(p, q, rng.permutation(n))
    elif kind == "dropped":
        states = ProductStates(left[1:], right[1:], weights[1:] / (1 - weights[0]))
    elif kind == "random":
        weights = rng.dirichlet(np.ones(len(states)))
        pairs = [(random_unit(rng, p), random_unit(rng, q)) for _ in weights]
        states = ProductStates(np.array([x for x, _ in pairs]), np.array([y for _, y in pairs]),
                               weights)
    elif kind == "weights":
        states = ProductStates(left, right, 1.5 * weights)
    elif kind == "empty":
        states = no_states(p, q)
    elif kind == "long":
        k = int(rng.integers(len(states)))
        left, right = left.copy(), right.copy()
        (left if rng.random() < 0.5 else right)[k] *= 2
        states = ProductStates(left, right, weights)
    elif kind == "negative":
        k = int(rng.integers(len(states)))
        w = float(weights[k])
        states = ProductStates(left, right, np.array(
            [-w if i == k else x * (1 + w) / (1 - w) for i, x in enumerate(weights.tolist())]))

    def outcome(check):
        try:
            return check(rho, states, lab)
        except SeparabilityError as exc:
            return str(exc)

    assert outcome(verify_separable_decomposition) == outcome(looped_check)
    if kind == "verified":
        assert outcome(verify_separable_decomposition) is True
    elif kind == "long":
        assert outcome(verify_separable_decomposition) == "product-state factor is not unit norm"
    elif kind == "negative":
        assert outcome(verify_separable_decomposition) == "product-state weight must be nonnegative"


def test_star_projection_witness_formula():
    for n, p, q in [(4, 2, 2), (6, 2, 3), (8, 2, 4), (9, 3, 3), (12, 3, 4)]:
        w = star_projection_witness(n, p, q)
        neg = (1 - math.sqrt((n - 1) ** 2 + 8) / (n - 1)) / 4
        assert neg < 0
        assert abs(w.pt_eigenvalues[0] - neg) < 1e-10
        assert abs(w.formula_eigenvalues[0] - neg) < 1e-12
        for got, want in zip(w.pt_eigenvalues, w.formula_eigenvalues):
            assert abs(got - want) < 1e-10
    with pytest.raises(SeparabilityError):
        star_projection_witness(5, 2, 2)  # n must equal p*q


def test_labeling_search_exhaustive_counts():
    census = labeling_search(path_graph(4), 2, 2)
    assert census.mode == "exhaustive"
    assert census.total == 24
    assert census.counts[ENTANGLED_NPT] == 8
    assert census.counts[SEPARABLE] == 16
    assert census.counts[PPT_INCONCLUSIVE] == 0
    # each reported witness really is an assignment with the claimed verdict
    npt_assign = census.witnesses[ENTANGLED_NPT]
    lab = BipartiteLabeling.from_assignment(2, 2, npt_assign)
    assert ppt_test(density_of_graph(path_graph(4)), lab).status == ENTANGLED_NPT


def test_labeling_search_sampled_is_deterministic():
    g = petersen_graph()
    a = labeling_search(g, 2, 5, sample=300, seed=123)
    b = labeling_search(g, 2, 5, sample=300, seed=123)
    assert a.counts == b.counts and a.witnesses == b.witnesses
    assert a.mode == "sampled" and a.total == 300 and a.seed == 123
    c = labeling_search(g, 2, 5, sample=300, seed=124)
    assert c.total == 300  # different seed still yields a full tally
    assert sum(a.counts.values()) == 300


def test_labeling_search_validates_dimensions():
    with pytest.raises(SeparabilityError):
        labeling_search(path_graph(4), 2, 3)
    with pytest.raises(SeparabilityError):
        labeling_search(complete_graph(16), 4, 4)  # n > 12 guard
    with pytest.raises(DensityError):  # an edgeless graph has no state
        labeling_search(build_graph(4, []), 2, 2)


# ---------------------------------------------------------------------------
# the coset census against the n! brute force


def _brute_force_census(g, p, q, tol=1e-9):
    """Counts and lex-first witnesses over all n! assignments, with the PT
    taken in the cell basis by reshaping, independently of graphdm."""
    n = p * q
    perms = np.array(list(itertools.permutations(range(n))))
    sigma = density_of_graph(g).to_real()
    pos = np.argsort(perms, axis=1)  # vertex at each cell
    cell = sigma[pos[:, :, None], pos[:, None, :]]
    pt = cell.reshape(-1, p, q, p, q).transpose(0, 1, 4, 3, 2).reshape(-1, n, n)
    npt = np.linalg.eigvalsh(pt)[:, 0] < -tol
    ppt_status = SEPARABLE if (p, q) in {(2, 2), (2, 3), (3, 2)} else PPT_INCONCLUSIVE
    counts = {SEPARABLE: 0, ENTANGLED_NPT: 0, PPT_INCONCLUSIVE: 0}
    witnesses = {}
    for status, mask in ((ENTANGLED_NPT, npt), (ppt_status, ~npt)):
        hits = np.flatnonzero(mask)
        counts[status] = len(hits)
        if len(hits):
            witnesses[status] = tuple(int(a) for a in perms[hits[0]])
    return counts, witnesses


def _random_graph(n, seed):
    rng = np.random.default_rng(seed)
    pairs = list(itertools.combinations(range(n), 2))
    pick = rng.choice(len(pairs), size=len(pairs) // 2, replace=False)
    return build_graph(n, [pairs[i] for i in pick])


def _differential_cases():
    for g in nonisomorphic_graphs(4, min_edges=1):
        yield g, 2, 2
    for g in nonisomorphic_graphs(6, min_edges=1):
        yield g, 2, 3
        yield g, 3, 2
    for g in (path_graph(8), complete_graph(8), _random_graph(8, 1), _random_graph(8, 2)):
        yield g, 2, 4
        yield g, 4, 2


def test_coset_census_matches_brute_force():
    cases = 0
    for g, p, q in _differential_cases():
        census = labeling_search(g, p, q)
        counts, witnesses = _brute_force_census(g, p, q)
        assert census.counts == counts, (g.edges, p, q)
        assert census.witnesses == witnesses, (g.edges, p, q)
        assert sum(census.counts.values()) == census.total == math.factorial(g.n)
        cases += 1
    assert cases == 10 + 2 * 155 + 8


def recursive_coset_representatives(p: int, q: int):
    """The recursive generator the array builder replaced, kept as its reference."""
    n = p * q
    assign = [0] * n
    used = [False] * n

    def extend(v: int, rows: int, cols: int):
        if v == n:
            yield tuple(assign)
            return
        for s in range(min(rows + 1, p)):
            for t in range(min(cols + 1, q)):
                cell = s * q + t
                if used[cell]:
                    continue
                used[cell] = True
                assign[v] = cell
                yield from extend(v + 1, max(rows, s + 1), max(cols, t + 1))
                used[cell] = False

    yield from extend(0, 0, 0)


@pytest.mark.parametrize("p,q", [(p, q) for p in range(1, 11) for q in range(1, 10 // p + 1)])
def test_coset_array_matches_recursive_generator(p, q):
    n = p * q
    reps = coset_representatives(p, q)
    assert reps.dtype == np.int8 and not reps.flags.writeable
    assert reps.shape == (math.factorial(n) // (math.factorial(p) * math.factorial(q)), n)
    assert reps.tolist() == [list(r) for r in recursive_coset_representatives(p, q)]


@pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)])
def test_coset_representatives_are_sorted_distinct_minima(p, q):
    n = p * q
    reps = [tuple(r) for r in coset_representatives(p, q).tolist()]
    assert len(reps) == math.factorial(n) // (math.factorial(p) * math.factorial(q))
    assert reps == sorted(set(reps))
    assert all(sorted(r) == list(range(n)) for r in reps)
    if n > 6:
        return
    # each is the smallest member of its coset under row and column relabelings
    for r in reps:
        for rows in itertools.permutations(range(p)):
            for cols in itertools.permutations(range(q)):
                moved = tuple(rows[a // q] * q + cols[a % q] for a in r)
                assert moved >= r


@settings(max_examples=60, deadline=None)
@given(dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (2, 5), (3, 4)]),
       data=st.data())
def test_min_pt_eigenvalue_invariant_under_local_relabeling(dims, data):
    p, q = dims
    n = p * q
    pairs = list(itertools.combinations(range(n), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    sigma = density_of_graph(build_graph(n, edges)).to_real()
    assign = data.draw(st.permutations(range(n)))
    rows = data.draw(st.permutations(range(p)))
    cols = data.draw(st.permutations(range(q)))
    moved = [rows[a // q] * q + cols[a % q] for a in assign]
    low, low_moved = min_pt_eigenvalues(sigma, [assign, moved], p, q)
    assert abs(low - low_moved) < 1e-12


def test_kernel_matches_ppt_test_bit_for_bit():
    g = _random_graph(8, 3)
    rho = density_of_graph(g)
    assigns = coset_representatives(2, 4)[::37]
    lows = min_pt_eigenvalues(rho.to_real(), assigns, 2, 4)
    for assign, low in zip(assigns, lows):
        lab = BipartiteLabeling.from_assignment(2, 4, assign)
        pt = partial_transpose(rho, lab).to_real()
        assert low == np.linalg.eigvalsh(pt)[0]
        assert low == ppt_test(rho, lab).min_pt_eigenvalue


# ---------------------------------------------------------------------------
# the exact degree-criterion kernel against the PT eigenvalues


@settings(max_examples=120, deadline=None)
@given(dims=st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 4), (2, 5), (3, 4)]),
       density=st.floats(0.1, 0.9), seed=st.integers(0, 2 ** 32 - 1))
def test_ppt_verdicts_match_pt_eigenvalues(dims, density, seed):
    p, q = dims
    n = p * q
    rng = np.random.default_rng(seed)
    pairs = np.array(list(itertools.combinations(range(n), 2)))
    present = rng.random((8, len(pairs))) < density
    present[np.arange(8), rng.integers(len(pairs), size=8)] = True
    assigns = np.array([rng.permutation(n) for _ in range(8)])
    sigma = np.stack([density_of_graph(build_graph(n, [tuple(e) for e in pairs[row]])).to_real()
                      for row in present])

    def agree(ppt, lows):
        # a PPT state's PT is a Laplacian, smallest eigenvalue exactly 0
        return np.all(np.where(ppt, np.abs(lows) < 1e-12, lows < -1e-9))

    # instance k: graph k under labeling k
    assert agree(ppt_verdicts(pairs, assigns, p, q, present),
                 min_pt_eigenvalues(sigma, assigns, p, q))
    # one graph, as an edge list, under every labeling
    assert agree(ppt_verdicts(pairs[present[0]], assigns, p, q),
                 min_pt_eigenvalues(sigma[0], assigns, p, q))
    # every graph under one labeling
    assert agree(ppt_verdicts(pairs, assigns[0], p, q, present),
                 min_pt_eigenvalues(sigma, np.broadcast_to(assigns[0], (8, n)), p, q))
    # ppt_test on the exact state of each instance
    verdicts = [ppt_test(density_of_graph(build_graph(n, [tuple(e) for e in pairs[row]])),
                         BipartiteLabeling.from_assignment(p, q, a))
                for row, a in zip(present, assigns)]
    assert agree(np.array([v.status != ENTANGLED_NPT for v in verdicts]),
                 np.array([v.min_pt_eigenvalue for v in verdicts]))


@settings(max_examples=120, deadline=None)
@given(dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (2, 5), (3, 4)]),
       density=st.floats(0.1, 0.9), seed=st.integers(0, 2 ** 32 - 1))
def test_certificate_matches_verdicts_and_pt_eigenvalues(dims, density, seed):
    p, q = dims
    n = p * q
    rng = np.random.default_rng(seed)
    pairs = np.array(list(itertools.combinations(range(n), 2)))
    present = rng.random((8, len(pairs))) < density
    present[np.arange(8), rng.integers(len(pairs), size=8)] = True
    assigns = np.array([rng.permutation(n) for _ in range(8)])
    graphs = [build_graph(n, [tuple(e) for e in pairs[row]]) for row in present]
    pts = partial_transposes(np.stack([laplacian(g) for g in graphs]), assigns, p, q)
    ppt = ppt_verdicts(pairs, assigns, p, q, present)
    cert = certify_ppt_verdicts(pts, ppt)
    lows = min_pt_eigenvalues(np.stack([density_of_graph(g).to_real() for g in graphs]),
                              assigns, p, q)
    assert np.array_equal(cert < 0, ~ppt) and np.array_equal(cert < 0, lows < -1e-9)
    assert (cert[ppt] == 0).all()
    # x^T M x = d^T M d - 2n |d|^2 <= -2 |d|^2, with d = M 1, by hand
    for pt, c in zip(pts, cert):
        d = pt.sum(axis=1)
        assert c == d @ pt @ d - 2 * n * d @ d <= -2 * d @ d
    # the exact state's gcd-reduced PT gives the same verdict
    for g, a, verdict in zip(graphs, assigns, ppt):
        lab = BipartiteLabeling.from_assignment(p, q, a)
        assert (certify_ppt_verdicts(partial_transpose(density_of_graph(g), lab).num,
                                     verdict) < 0) == (not verdict)
    # one wrong verdict raises, naming its instance
    k = int(rng.integers(8))
    wrong = ppt.copy()
    wrong[k] = not wrong[k]
    with pytest.raises(RuntimeError, match=rf"of instance {k} contradicts"):
        certify_ppt_verdicts(pts, wrong)


def test_ppt_verdicts_on_known_states():
    rng = np.random.default_rng(3)
    for p, q in [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4)]:
        n = p * q
        assigns = np.array([rng.permutation(n) for _ in range(50)])
        # complete graphs are separable under every labeling
        assert ppt_verdicts(complete_graph(n).edges, assigns, p, q).all()
        # a lone edge is entangled exactly when it crosses rows and columns
        lone = ppt_verdicts([(0, 1)], assigns, p, q)
        s, t = np.divmod(assigns[:, :2], q)
        assert np.array_equal(lone, (s[:, 0] == s[:, 1]) | (t[:, 0] == t[:, 1]))
    # the criss-cross pair is PPT, its single edges NPT, in blocks past the
    # block size
    crossing = ppt_verdicts([(0, 3), (1, 2)], np.tile(np.arange(4), (5000, 1)), 2, 2)
    assert crossing.shape == (5000,) and crossing.all()
    assert not ppt_verdicts([(0, 3)], np.arange(4), 2, 2).any()


# ---------------------------------------------------------------------------
# the pair-table kernel against the edge-by-edge tally it replaced

TABLE_GRIDS = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 5), (3, 4)]


def reference_ppt_verdicts(edges, assigns, p, q, present=None):
    """The edge-by-edge tally `ppt_verdicts` used before its pair table, kept
    as its reference: each entangled edge's four cells, gathered per edge
    and bincounted with signs +1, +1, -1, -1."""
    n = p * q
    u, v = np.asarray(edges, dtype=np.intp).reshape(-1, 2).T
    assigns = np.asarray(assigns, dtype=np.intp).reshape(-1, n)
    present = np.ones((1, len(u)), dtype=bool) if present is None else \
        np.asarray(present, dtype=bool).reshape(-1, len(u))
    total = max(len(assigns), len(present))
    sign = np.array([1.0, 1.0, -1.0, -1.0])
    out = np.empty(total, dtype=bool)
    for lo in range(0, total, _EIG_BLOCK):
        k = min(_EIG_BLOCK, total - lo)
        s, t = np.divmod(assigns[lo:lo + k] if len(assigns) > 1 else assigns, q)
        mask = present[lo:lo + k] if len(present) > 1 else present
        i, e = np.nonzero((s[:, u] != s[:, v]) & (t[:, u] != t[:, v]) & mask)
        j = i if len(s) > 1 else 0
        su, sv, tu, tv = s[j, u[e]], s[j, v[e]], t[j, u[e]], t[j, v[e]]
        cells = np.stack([su * q + tu, sv * q + tv, su * q + tv, sv * q + tu], axis=1)
        cells += n * i[:, None]
        tally = np.bincount(cells.ravel(), np.broadcast_to(sign, cells.shape).ravel(),
                            minlength=k * n)
        out[lo:lo + k] = ~tally.reshape(k, n).any(axis=1)
    return out


@settings(max_examples=200, deadline=None)
@given(dims=st.sampled_from(TABLE_GRIDS),
       shape=st.sampled_from(["labelings", "masks", "paired"]),
       k=st.sampled_from([1, 2, 9, 60, 5000]),
       density=st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]),
       absent=st.sampled_from([0.0, 0.2, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pair_table_kernel_matches_the_edge_tally(dims, shape, k, density, absent, seed):
    p, q = dims
    n = p * q
    rng = np.random.default_rng(seed)
    pairs = np.array(list(itertools.combinations(range(n), 2)))
    edges = pairs[rng.random(len(pairs)) < density]  # empty at density 0
    assigns = rng.permuted(np.tile(np.arange(n), (k, 1)), axis=1)
    present = rng.random((k, len(edges))) < 0.7
    present[rng.random(k) < absent] = False  # rows with every edge absent
    # many labelings x one edge set, one labeling x many masks, paired rows
    args = {"labelings": (assigns, None), "masks": (assigns[0], present),
            "paired": (assigns, present)}[shape]
    got = ppt_verdicts(edges, args[0], p, q, args[1])
    # the reference cannot shape masks of no edge; with no edge, all is PPT
    want = (reference_ppt_verdicts(edges, args[0], p, q, args[1])
            if len(edges) or args[1] is None else np.ones(k, dtype=bool))
    assert got.shape == want.shape == (k,)
    assert np.array_equal(got, want)
    if not len(edges):
        assert got.all()


def test_pair_table_kernel_edge_cases():
    n = 12
    pairs = np.array(list(itertools.combinations(range(n), 2)))
    assigns = np.random.default_rng(4).permuted(np.tile(np.arange(n), (5000, 1)), axis=1)
    # past the block size, both verdicts occur in both blocks
    edges = [(0, 1), (2, 3), (4, 5)]
    got = ppt_verdicts(edges, assigns, 3, 4)
    assert np.array_equal(got, reference_ppt_verdicts(edges, assigns, 3, 4))
    for block in (got[:_EIG_BLOCK], got[_EIG_BLOCK:]):
        assert block.any() and not block.all()
    # no edge, or every edge absent, leaves every cell its degree
    assert ppt_verdicts(np.empty((0, 2), dtype=int), assigns[:3], 3, 4).tolist() == [True] * 3
    assert ppt_verdicts(np.empty((0, 2), dtype=int), assigns[0], 3, 4,
                        np.zeros((2, 0), dtype=bool)).tolist() == [True] * 2
    assert ppt_verdicts(pairs, assigns[0], 3, 4,
                        np.zeros((4, len(pairs)), dtype=bool)).tolist() == [True] * 4


@pytest.mark.parametrize("p,q", TABLE_GRIDS)
def test_pair_tables_are_cached_and_read_only(p, q):
    n = p * q
    table = _pair_table(p, q)
    assert _pair_table(p, q) is table
    assert table.shape == (n * n + 1, 4) and table.dtype == np.intp
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1
    # row a*n + b: the endpoints, then the swapped cells in the second half
    s, t = np.divmod(np.arange(n), q)
    a, b = np.divmod(np.arange(n * n), n)
    assert np.array_equal(table[:-1], np.stack(
        [a, b, n + s[a] * q + t[b], n + s[b] * q + t[a]], axis=1))
    assert table[-1].tolist() == [0, 0, n, n]
    # an absent edge, or one within a row or a column, cancels
    kept = (s[a] == s[b]) | (t[a] == t[b])
    rows = np.concatenate([table[:-1][kept], table[-1:]])
    assert np.array_equal(np.sort(rows[:, :2], axis=1), np.sort(rows[:, 2:] - n, axis=1))
    crossing = table[:-1][~kept]
    assert (crossing[:, 2:, None] - n != crossing[:, None, :2]).all()


def test_ppt_verdicts_memory_grows_as_n_squared():
    """A grid of a few hundred cells costs megabytes, not n**3 table entries."""
    # a 300-cycle is PPT under the row-major labeling; the chord is entangled
    g = build_graph(300, [*cycle_graph(300).edges, (0, 21)])
    lab = BipartiteLabeling.default(15, 20)
    rho = density_of_graph(g)
    _pair_table.cache_clear()
    tracemalloc.start()
    try:
        verdict = ppt_test(rho, lab)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the table is 2.9 MB and the PT 0.7 MB a copy; an (n*n + 1, n) float
    # table would be 216 MB
    assert peak < 16 * 2 ** 20
    assert verdict.status == ENTANGLED_NPT and verdict.min_pt_eigenvalue < -1e-5


def test_coset_representatives_are_cached_and_read_only():
    reps = coset_representatives(2, 3)
    assert coset_representatives(2, 3) is reps
    assert not reps.flags.writeable


def test_importing_the_cli_fills_no_cache():
    """Both per-grid caches fill on first use, so a cold start pays nothing."""
    code = ("import graphdm.cli\n"
            "from graphdm.separability import _pair_table, coset_representatives\n"
            "print(_pair_table.cache_info().currsize, "
            "coset_representatives.cache_info().currsize)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert run.stdout.split() == ["0", "0"]


@pytest.mark.parametrize("n", [4, 8, 9, 10, 12])
def test_vectorized_draws_keep_the_stream(n):
    a, b = np.random.default_rng(n), np.random.default_rng(n)
    rows = a.permuted(np.tile(np.arange(n), (64, 1)), axis=1)
    assert np.array_equal(rows, [b.permutation(n) for _ in range(64)])
    bits = a.integers(0, 2, size=3 * n)
    assert bits.tolist() == [int(b.integers(0, 2)) for _ in range(3 * n)]
    assert a.bit_generator.state == b.bit_generator.state


def test_sampled_search_matches_per_row_draws_and_eigenvalues():
    g = petersen_graph()
    census = labeling_search(g, 2, 5, sample=400, seed=11)
    rng = np.random.default_rng(11)
    assigns = np.array([rng.permutation(10) for _ in range(400)])
    npt = min_pt_eigenvalues(density_of_graph(g).to_real(), assigns, 2, 5) < -1e-9
    assert npt.any() and not npt.all()
    assert census.counts == {SEPARABLE: 0, ENTANGLED_NPT: int(npt.sum()),
                             PPT_INCONCLUSIVE: int((~npt).sum())}
    assert census.witnesses == {ENTANGLED_NPT: tuple(assigns[np.argmax(npt)]),
                                PPT_INCONCLUSIVE: tuple(assigns[np.argmin(npt)])}


def test_every_verdict_path_checks_the_certificate(monkeypatch):
    """ppt_test, the search witnesses and the 4-vertex census each hold
    their exact verdicts to the integer certificate: flipped verdicts raise."""
    census = sys.modules["graphdm.concurrence"]  # the package's `concurrence` is a function
    exact = ppt_verdicts
    for module in (separability, census):
        monkeypatch.setattr(module, "ppt_verdicts", lambda *a, **k: ~exact(*a, **k))
    for run in (lambda: ppt_test(density_of_graph(path_graph(4)), LAB22),
                lambda: labeling_search(path_graph(4), 2, 2),
                lambda: labeling_search(petersen_graph(), 2, 5, sample=50),
                census.four_vertex_census):
        with pytest.raises(RuntimeError, match="^integer certificate x"):
            run()


# ---------------------------------------------------------------------------
# the matching decomposition under any two-row labeling, checked against the
# mixture rebuilt in the vertex basis without graphdm


def vertex_mixture(states, lab):
    """sum of weight |x><x| with x = left (x) right read at vertex v's cell
    (s, t), entry s*q + t."""
    cells = [s * lab.q + t for s, t in lab.cells]
    mix = np.zeros((lab.n, lab.n), dtype=complex)
    for left, right, weight in zip(states.left, states.right, states.weights):
        x = np.kron(left, right)[cells]
        mix += weight * np.outer(x, x.conj())
    return mix


def laplacian_state(n, edges):
    lap = np.zeros((n, n))
    for u, v in edges:
        lap[[u, v], [u, v]] += 1
        lap[[u, v], [v, u]] -= 1
    return lap / (2 * len(edges))


def test_matching_decomposition_reads_any_labeling():
    # vertex 1 sits in row 1, so the entangled edge 1-2 (1-based) is read from
    # row 1 first; edges 1-3 (one column) and 2-3 (one row) are separable
    lab = BipartiteLabeling(2, 2, ((1, 0), (0, 1), (0, 0), (1, 1)))
    assert lab.assign == (2, 1, 0, 3)
    g = build_graph(4, [(0, 1), (2, 3), (0, 2), (1, 2)])
    assert entangled_edges(g, lab) == [(0, 1), (2, 3)]
    rho = density_of_graph(g)
    route, states = separable_decomposition(rho, lab)
    assert route == "criss-cross-matching" and len(states) == 2 + 2
    assert np.abs(vertex_mixture(states, lab) - laplacian_state(4, g.edges)).max() < 1e-15
    # the verification reads the labeling: under the default one the mixture misses
    assert verify_separable_decomposition(rho, states, lab)
    assert not verify_separable_decomposition(rho, states)


@settings(max_examples=80, deadline=None)
@given(q=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), density=st.floats(0, 1))
def test_matching_decomposition_on_random_labelings(q, seed, density):
    """A random 2 x q labeling, an entangled pe-matching (a column
    derangement) and each separable pair with probability `density`."""
    rng = np.random.default_rng(seed)
    n = 2 * q
    lab = BipartiteLabeling.from_assignment(2, q, rng.permutation(n))
    vertex_at = {cell: v for v, cell in enumerate(lab.cells)}
    perm = rng.permutation(q)
    while (perm == np.arange(q)).any():
        perm = rng.permutation(q)
    matching = [(vertex_at[(0, t)], vertex_at[(1, int(perm[t]))]) for t in range(q)]
    separable = [(u, v) for u, v in itertools.combinations(range(n), 2)
                 if lab.cells[u][0] == lab.cells[v][0] or lab.cells[u][1] == lab.cells[v][1]]
    g = build_graph(n, matching + [e for e in separable if rng.random() < density])
    states = separable_decomposition(density_of_graph(g), lab)[1]
    assert np.abs(vertex_mixture(states, lab) - laplacian_state(n, g.edges)).max() < 1e-12


# ---------------------------------------------------------------------------
# the directed-cycle builder against the degree criterion, its mixtures
# rebuilt in the vertex basis without graphdm


def drawn_graph(rng, p, q, balanced, density):
    """A random graph under a random p x q labeling.  Each pair of vertices
    is an edge with probability `density`; when balanced, only the separable
    pairs are, and the entangled edges are edge-disjoint directed cycles,
    each between two random rows (the two columns' rows on a p x 2 grid,
    so that only the transposed pass balances)."""
    n = p * q
    lab = BipartiteLabeling.from_assignment(p, q, rng.permutation(n))
    vertex_at = {cell: v for v, cell in enumerate(lab.cells)}
    pairs = list(itertools.combinations(range(n), 2))
    separable = [(u, v) for u, v in pairs
                 if lab.cells[u][0] == lab.cells[v][0] or lab.cells[u][1] == lab.cells[v][1]]
    edges = [e for e in (separable if balanced else pairs) if rng.random() < density]
    if balanced:
        flip = q == 2 < p
        rows, cols = (q, p) if flip else (p, q)
        arcs = set()
        for _ in range(int(rng.integers(1, 5))):
            r, s = sorted(rng.choice(rows, size=2, replace=False).tolist())
            cycle = rng.permutation(cols)[:int(rng.integers(2, cols + 1))].tolist()
            new = {(r, s, a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1])}
            if not new & arcs:
                arcs |= new
        for r, s, a, b in arcs:
            ends = ((a, r), (b, s)) if flip else ((r, a), (s, b))
            edges.append(tuple(sorted(vertex_at[c] for c in ends)))
    return build_graph(n, sorted(edges) or pairs[:1]), lab


@settings(max_examples=250, deadline=None)
@given(grid=st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (2, 5), (5, 2),
                             (2, 6), (6, 2), (3, 3), (3, 4)]),
       seed=st.integers(0, 2**32 - 1), balanced=st.booleans(), density=st.floats(0.05, 0.7))
def test_cycle_builder_decides_ppt_with_two_rows_or_columns(grid, seed, balanced, density):
    """With two rows or two columns a decomposition is returned exactly when
    the state is PPT; on 3 x 3 and 3 x 4 never for an NPT state, and always
    when each row pair's arcs balance.  Each one rebuilds L(G)/2m."""
    p, q = grid
    g, lab = drawn_graph(np.random.default_rng(seed), p, q, balanced, density)
    ppt = ppt_verdicts(g.edges, lab.assign, p, q)[0]
    found = separable_decomposition(density_of_graph(g), lab)
    if 2 in grid:
        assert (found is not None) == ppt
    else:
        assert ppt or found is None
    if balanced:
        assert found is not None
    if found is not None:
        route, states = found
        assert len(states) == g.m and (states.weights == 1 / g.m).all()
        assert np.abs(vertex_mixture(states, lab) - laplacian_state(g.n, g.edges)).max() < 1e-10


def test_two_column_decomposition_swaps_the_transposed_factors():
    # a 3-column tally mark read with its rows as columns: on the 3 x 2 grid
    # each row pair holds one arc, so only the transposed 2 x 3 pass balances
    lab = BipartiteLabeling.default(3, 2)
    g = build_graph(6, [(0, 3), (1, 4), (2, 5)])
    flipped = BipartiteLabeling(2, 3, tuple((t, s) for s, t in lab.cells))
    rho = density_of_graph(g)
    route, states = separable_decomposition(rho, lab)
    flipped_route, flipped_states = separable_decomposition(rho, flipped)
    assert (route, flipped_route) == ("directed-cycles", "criss-cross-matching")
    assert len(states) == len(flipped_states) == 3
    assert np.array_equal(states.left, flipped_states.right)
    assert np.array_equal(states.right, flipped_states.left)
    assert np.array_equal(states.weights, flipped_states.weights)
    assert np.abs(vertex_mixture(states, lab) - laplacian_state(6, g.edges)).max() < 1e-15
