"""Tests for partial transpose, separability verdicts and decompositions."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphdm.separability as separability

from graphdm import (
    ENTANGLED_NPT,
    PPT_INCONCLUSIVE,
    SEPARABLE,
    BipartiteLabeling,
    DensityError,
    SeparabilityError,
    build_graph,
    canonicalize_pe_matching,
    classify_matching,
    complete_graph,
    complete_graph_decomposition,
    coset_representatives,
    cycle_graph,
    density_of_graph,
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
    star_graph,
    star_projection_witness,
    tally_mark_decomposition,
    verify_separable_decomposition,
)

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


def test_partial_transpose_is_exact_involution():
    from graphdm import DensityMatrix

    for g in [path_graph(4), complete_graph(4), star_graph(4)]:
        rho = density_of_graph(g)
        pt = partial_transpose(rho, LAB22)
        assert pt.exact_real and pt.trace() == 1
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
    verdict, states = pe_matching_separability(crossing, LAB22)
    assert verdict.status == SEPARABLE
    assert len(states) == 2
    assert verify_separable_decomposition(
        density_of_graph(crossing), states, 1e-10, LAB22)
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
            density_of_graph(g), states, 1e-10, BipartiteLabeling.default(2, cols))
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
            1e-10, BipartiteLabeling.default(p, q))
    with pytest.raises(SeparabilityError):
        complete_graph_decomposition(5, 2, 2)  # dimensions must match n


def test_verify_separable_decomposition_rejects_wrong_mixture():
    rho = density_of_graph(path_graph(4))  # entangled under default labeling
    states = complete_graph_decomposition(4, 2, 2)
    assert not verify_separable_decomposition(rho, states, 1e-10, LAB22)
    assert not verify_separable_decomposition(rho, [], 1e-10, LAB22)


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
    # the draws do not depend on the worker count; workers only split the
    # eigensolves
    par = labeling_search(g, 2, 5, sample=300, seed=123, workers=2)
    assert par.counts == a.counts and par.witnesses == a.witnesses
    assert sum(par.counts.values()) == 300


class _SerialContext:
    """Stands in for a multiprocessing context: records the pool size and
    runs the work in this process."""

    def __init__(self):
        self.sizes = []

    def Pool(self, procs):
        self.sizes.append(procs)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, fn, jobs):
        return [fn(*job) for job in jobs]


def test_labeling_search_workers_clamped_to_cpu_count(monkeypatch):
    g = petersen_graph()
    ref = labeling_search(g, 2, 5, sample=50, seed=7)
    fake = _SerialContext()
    monkeypatch.setattr(separability.multiprocessing, "get_context", lambda method: fake)
    monkeypatch.setattr(separability.os, "cpu_count", lambda: 3)
    got = labeling_search(g, 2, 5, sample=50, seed=7, workers=64)
    assert fake.sizes == [3]
    assert got.counts == ref.counts and got.witnesses == ref.witnesses
    monkeypatch.setattr(separability.os, "cpu_count", lambda: 1)
    labeling_search(g, 2, 5, sample=50, seed=7, workers=64)
    assert fake.sizes == [3]  # one CPU: no pool at all
    for bad in (0, -1):
        with pytest.raises(SeparabilityError):
            labeling_search(g, 2, 5, sample=50, seed=7, workers=bad)


def test_labeling_search_validates_dimensions():
    with pytest.raises(SeparabilityError):
        labeling_search(path_graph(4), 2, 3)
    with pytest.raises(SeparabilityError):
        labeling_search(complete_graph(16), 4, 4)  # n > 12 guard


# ---------------------------------------------------------------------------
# the coset census against the n! brute force


def _brute_force_census(g, p, q, tol=1e-9):
    """Counts and lex-first witnesses over all n! assignments, with the PT
    taken in the cell basis by reshaping, independently of graphdm."""
    n = p * q
    perms = np.array(list(itertools.permutations(range(n))))
    sigma = density_of_graph(g).to_complex().real
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


@pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)])
def test_coset_representatives_are_sorted_distinct_minima(p, q):
    n = p * q
    reps = list(coset_representatives(p, q))
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
    sigma = density_of_graph(build_graph(n, edges)).to_complex().real
    assign = data.draw(st.permutations(range(n)))
    rows = data.draw(st.permutations(range(p)))
    cols = data.draw(st.permutations(range(q)))
    moved = [rows[a // q] * q + cols[a % q] for a in assign]
    low, low_moved = min_pt_eigenvalues(sigma, [assign, moved], p, q)
    assert abs(low - low_moved) < 1e-12


def test_kernel_matches_ppt_test_bit_for_bit():
    g = _random_graph(8, 3)
    rho = density_of_graph(g)
    assigns = np.array(list(coset_representatives(2, 4))[::37])
    lows = min_pt_eigenvalues(rho.to_complex().real, assigns, 2, 4)
    for assign, low in zip(assigns, lows):
        lab = BipartiteLabeling.from_assignment(2, 4, assign)
        pt = partial_transpose(rho, lab).to_complex().real
        assert low == np.linalg.eigvalsh(pt)[0]
        assert low == ppt_test(rho, lab).min_pt_eigenvalue


def test_laplacian_states_equal_exact_states():
    graphs = [path_graph(6), complete_graph(6), build_graph(6, [(0, 5)]),
              _random_graph(6, 4)]
    stack = laplacian_states(6, [g.edges for g in graphs])
    for g, layer in zip(graphs, stack):
        assert np.array_equal(layer, density_of_graph(g).to_complex().real)
    with pytest.raises(DensityError):  # the second graph has no edge
        laplacian_states(4, [[(0, 1)], []])
