"""Tests for partial transpose, separability verdicts and decompositions."""

import itertools
import math
from fractions import Fraction

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
    ProductState,
    SeparabilityError,
    build_graph,
    canonicalize_pe_matching,
    classify_matching,
    complete_graph,
    complete_graph_decomposition,
    coset_representatives,
    cycle_graph,
    density_of_graph,
    density_with_loops,
    eigensystem,
    entangled_edges,
    labeling_search,
    laplacian_states,
    min_pt_eigenvalue,
    min_pt_eigenvalues,
    nonisomorphic_graphs,
    partial_transpose,
    path_graph,
    pe_matching_separability,
    petersen_graph,
    ppt_test,
    ppt_verdicts,
    sigma_plus,
    star_graph,
    star_projection_witness,
    tally_mark_decomposition,
    verify_separable_decomposition,
)
from graphdm.separability import RECONSTRUCTION_TOL

F = Fraction
LAB22 = BipartiteLabeling.default(2, 2)


def tally_chain(k):
    """Two-row pe-matching whose column map is the increasing k-cycle."""
    return build_graph(2 * k, [(c, k + (c + 1) % k) for c in range(k)])


def test_labeling_helpers():
    lab = BipartiteLabeling.default(2, 3)
    assert lab.n == 6 and lab.is_default()
    assert lab.cells == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2))
    assert [lab.flat(v) for v in range(6)] == [0, 1, 2, 3, 4, 5]
    other = BipartiteLabeling.from_assignment(2, 3, (5, 4, 3, 2, 1, 0))
    assert not other.is_default()
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
    assert big.dims == (3, 4)


def test_ppt_test_decides_graph_states_only():
    looped = build_graph(4, [(0, 1), (2, 3)], loops=[1, 0, 0, 0])
    for rho in (density_with_loops(looped), sigma_plus(path_graph(4))):
        with pytest.raises(SeparabilityError):
            ppt_test(rho, LAB22)
    with pytest.raises(SeparabilityError):
        ppt_test(density_of_graph(path_graph(4)), BipartiteLabeling.default(2, 3))


def test_min_pt_eigenvalue_known_values():
    got = min_pt_eigenvalue(density_of_graph(path_graph(4)), LAB22)
    assert abs(got - (1 - math.sqrt(2)) / 6) < 1e-10
    got = min_pt_eigenvalue(density_of_graph(star_graph(4)), LAB22)
    assert abs(got - (0.25 - math.sqrt(17) / 12)) < 1e-10


def test_entangled_edges():
    assert entangled_edges(path_graph(4), LAB22) == [(1, 2)]
    crossing = build_graph(4, [(0, 3), (1, 2)])
    assert entangled_edges(crossing, LAB22) == [(0, 3), (1, 2)]
    assert entangled_edges(build_graph(4, [(0, 1), (2, 3)]), LAB22) == []


def test_classify_matching_labels():
    cases = [
        (build_graph(4, [(0, 3), (1, 2)]), "pe-matching"),
        (build_graph(4, [(1, 2)]), "e-matching"),
        (build_graph(4, [(0, 1)]), "matching"),
        (path_graph(4), "not-matching"),
        (complete_graph(4), "not-matching"),
    ]
    for g, want in cases:
        assert classify_matching(g, LAB22) == want


def test_canonicalize_crossing():
    perm, canonical, marks = canonicalize_pe_matching(
        build_graph(4, [(0, 3), (1, 2)]), LAB22)
    assert canonical.edges == ((0, 3), (1, 2))
    assert [m.columns for m in marks] == [(0, 1)]
    assert perm == (0, 1)


def test_canonicalize_longer_chain():
    # a 3-column chain in scrambled column order still yields one mark
    g = build_graph(6, [(0, 5), (1, 3), (2, 4)])
    perm, canonical, marks = canonicalize_pe_matching(
        g, BipartiteLabeling.default(2, 3))
    assert sum(len(m.columns) for m in marks) == 3
    # the canonical graph is a union of increasing chains
    assert classify_matching(canonical, BipartiteLabeling.default(2, 3)) == "pe-matching"


def test_pe_matching_separability_decomposes():
    crossing = build_graph(4, [(0, 3), (1, 2)])
    states = pe_matching_separability(crossing, LAB22)
    assert len(states) == 2
    assert verify_separable_decomposition(
        density_of_graph(crossing), states, LAB22)
    with pytest.raises(SeparabilityError):
        pe_matching_separability(path_graph(4), LAB22)


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
        assert abs(sum(s.weight for s in states) - 1.0) < 1e-12
        assert verify_separable_decomposition(
            density_of_graph(g), states, BipartiteLabeling.default(2, cols))
        # the right factors are discrete Fourier vectors: pairwise orthonormal
        rights = np.array([s.right for s in states])
        np.testing.assert_allclose(
            rights @ rights.conj().T, np.eye(cols), atol=1e-10)
    with pytest.raises(SeparabilityError):
        tally_mark_decomposition(path_graph(4))
    with pytest.raises(SeparabilityError):
        tally_mark_decomposition(tally_chain(1))  # one column is not a mark


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
    assert not verify_separable_decomposition(rho, [], LAB22)


def looped_check(rho, states, lab=None):
    """verify_separable_decomposition with one np.kron and one np.outer per
    product state: the reference for the stacked product."""
    if not states:
        return False
    total = sum(s.weight for s in states)
    if abs(total - 1.0) > 1e-10:
        raise SeparabilityError(f"weights sum to {total}, not 1")
    n = rho.dim
    mix = np.zeros((n, n), dtype=complex)
    for s in states:
        vec = np.kron(np.asarray(s.left, dtype=complex), np.asarray(s.right, dtype=complex))
        mix += s.weight * np.outer(vec, vec.conj())
    if lab is not None and not lab.is_default():
        fl = [lab.flat(v) for v in range(n)]
        mix = mix[np.ix_(fl, fl)]
    return bool(np.abs(mix - rho.mat.to_real()).max() <= RECONSTRUCTION_TOL)


def random_unit(rng, dim):
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


@settings(max_examples=120, deadline=None)
@given(p=st.integers(2, 3), q=st.integers(2, 4), seed=st.integers(0, 2**32 - 1),
       labeled=st.booleans(),
       kind=st.sampled_from(["verified", "relabeled", "dropped", "random", "weights", "empty"]))
def test_stacked_check_matches_the_per_state_loop(p, q, seed, labeled, kind):
    """A random graph with a verified decomposition under a random or the
    default labeling, then that decomposition, the same states read under
    another labeling, one term dropped, random product states, weights that
    do not sum to 1, or no states at all."""
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
    states = pe_matching_separability(g, read)
    if kind == "relabeled":
        lab = BipartiteLabeling.from_assignment(p, q, rng.permutation(n))
    elif kind == "dropped":
        states = [ProductState(s.left, s.right, s.weight / (1 - states[0].weight))
                  for s in states[1:]]
    elif kind == "random":
        weights = rng.dirichlet(np.ones(len(states)))
        states = [ProductState(random_unit(rng, p), random_unit(rng, q), w) for w in weights]
    elif kind == "weights":
        states = [ProductState(s.left, s.right, 1.5 * s.weight) for s in states]
    elif kind == "empty":
        states = []

    def outcome(check):
        try:
            return check(rho, states, lab)
        except SeparabilityError as exc:
            return str(exc)

    assert outcome(verify_separable_decomposition) == outcome(looped_check)
    if kind == "verified":
        assert outcome(verify_separable_decomposition) is True


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


def test_laplacian_states_equal_exact_states():
    graphs = [path_graph(6), complete_graph(6), build_graph(6, [(0, 5)]),
              _random_graph(6, 4)]
    stack = laplacian_states(6, [g.edges for g in graphs])
    for g, layer in zip(graphs, stack):
        assert np.array_equal(layer, density_of_graph(g).to_real())
    with pytest.raises(DensityError):  # the second graph has no edge
        laplacian_states(4, [[(0, 1)], []])


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
    sigma = laplacian_states(n, [[tuple(e) for e in pairs[row]] for row in present])

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
    assert census.float_disagreements == 0


def test_tol_only_governs_the_cross_check():
    g = path_graph(4)
    exact = labeling_search(g, 2, 2)
    # the NPT witness has smallest PT eigenvalue (1 - sqrt 2)/6 = -0.069
    loose = labeling_search(g, 2, 2, tol=0.1)
    assert (loose.counts, loose.witnesses) == (exact.counts, exact.witnesses)
    assert exact.float_disagreements == 0 and loose.float_disagreements == 1


# ---------------------------------------------------------------------------
# the matching decomposition under any two-row labeling, checked against the
# mixture rebuilt in the vertex basis without graphdm


def vertex_mixture(states, lab):
    """sum of weight |x><x| with x = left (x) right read at vertex v's cell
    (s, t), entry s*q + t."""
    cells = [s * lab.q + t for s, t in lab.cells]
    mix = np.zeros((lab.n, lab.n), dtype=complex)
    for prod in states:
        x = np.kron(prod.left, prod.right)[cells]
        mix += prod.weight * np.outer(x, x.conj())
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
    assert not lab.is_default()
    g = build_graph(4, [(0, 1), (2, 3), (0, 2), (1, 2)])
    assert entangled_edges(g, lab) == [(0, 1), (2, 3)]
    states = pe_matching_separability(g, lab)
    assert len(states) == 2 + 2
    assert np.abs(vertex_mixture(states, lab) - laplacian_state(4, g.edges)).max() < 1e-15
    # the verification reads the labeling: under the default one the mixture misses
    rho = density_of_graph(g)
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
    states = pe_matching_separability(g, lab)
    assert np.abs(vertex_mixture(states, lab) - laplacian_state(n, g.edges)).max() < 1e-12
