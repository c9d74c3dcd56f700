"""Tests for the two-qubit concurrence and the exhaustive 4-vertex census."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdm import (
    ConcurrenceError,
    ConcurrenceResult,
    DensityError,
    DensityMatrix,
    HermitianMatrix,
    LinalgError,
    build_graph,
    concurrence,
    concurrences,
    density_of_graph,
    four_vertex_census,
    nonisomorphic_graphs,
    path_graph,
    ppt_verdicts,
    pure_state_concurrence,
    spin_flip,
)
from graphdm.concurrence import census_to_csv_rows, census_to_json_dict
from graphdm.density import TRACE_TOL
from graphdm.linalg import PSD_TOL

F = Fraction


def test_single_entangled_edge_is_maximal():
    # the edge joins cells (0,1) and (1,0): a Bell state
    rho = density_of_graph(build_graph(4, [(1, 2)]))
    res = concurrence(rho)
    assert abs(res.value - 1.0) < 1e-12
    assert len(res.lambdas) == 4
    assert res.lambdas[0] >= res.lambdas[1] >= res.lambdas[2] >= res.lambdas[3]


def test_separable_edge_has_zero_concurrence():
    rho = density_of_graph(build_graph(4, [(0, 1)]))
    assert concurrence(rho).value == 0.0


def test_maximally_mixed_state():
    eye = HermitianMatrix.identity(4).scale(F(1, 4))
    assert concurrence(DensityMatrix(eye)).value == 0.0


def test_spin_flip_is_exact_involution():
    rho = density_of_graph(path_graph(4))
    flipped = spin_flip(rho)
    back = spin_flip(DensityMatrix(flipped))
    assert back.exact_equal(rho.mat)


def test_spin_flip_of_identity():
    eye = HermitianMatrix.identity(4).scale(F(1, 4))
    assert spin_flip(DensityMatrix(eye)).exact_equal(eye)


def test_concurrence_requires_two_qubits():
    with pytest.raises(ConcurrenceError):
        concurrence(density_of_graph(path_graph(3)))
    with pytest.raises(ConcurrenceError):
        spin_flip(density_of_graph(path_graph(2)))


def test_pure_state_concurrence_known_values():
    bell = np.array([1, 0, 0, -1]) / math.sqrt(2)
    assert abs(pure_state_concurrence(bell) - 1.0) < 1e-12
    product = np.array([1, 0, 0, 0], dtype=float)
    assert abs(pure_state_concurrence(product)) < 1e-12
    with pytest.raises(ConcurrenceError):
        pure_state_concurrence(np.array([1.0, 0, 0, 1.0]))  # not normalized


def test_pure_state_agrees_with_density_formula():
    rng = np.random.default_rng(42)
    psis = rng.standard_normal((100, 4)) + 1j * rng.standard_normal((100, 4))
    psis /= np.linalg.norm(psis, axis=1)[:, None]
    values, _ = concurrences(psis[:, :, None] * psis[:, None, :].conj())
    for psi, b in zip(psis, values):
        assert abs(pure_state_concurrence(psi) - b) < 1e-8


def test_census_class_counts():
    rep = four_vertex_census()
    assert rep.class_count_total == 11
    assert rep.class_count_with_edges == 10
    assert len(rep.rows) == 10
    assert rep.ever_entangled_count == 7
    assert rep.always_entangled_count == 2
    # labeled-graph total: sum of 24/|Aut| over all classes plus the empty one
    assert sum(24 // r.aut_order for r in rep.rows) + 1 == 2 ** 6


def test_census_entangled_labelings_and_values():
    rep = four_vertex_census()
    # keyed by (edge count, entangled labeling count) -> single concurrence value
    facts = {}
    for row in rep.rows:
        assert row.labeling_count == 24
        assert 0 <= row.entangled_labelings <= 24
        assert row.ever_entangled == (row.entangled_labelings > 0)
        assert row.always_entangled == (row.entangled_labelings == 24)
        for v in row.concurrence_values:
            assert -1e-12 < v <= 1 + 1e-12
        if row.ever_entangled:
            assert len(row.concurrence_values) == 1
            deg = [0, 0, 0, 0]
            for (u, v) in row.edges:  # 1-based in the report
                deg[u - 1] += 1
                deg[v - 1] += 1
            key = (row.edge_count, row.entangled_labelings, max(deg))
            facts[key] = row.concurrence_values[0]
        else:
            assert row.concurrence_values == ()
    expected = {
        (1, 8, 1): 1.0,      # single edge
        (2, 16, 2): 0.5,     # path of three vertices plus an isolate
        (3, 24, 3): 1 / 3,   # three-point star
        (3, 24, 2): 1 / 3,   # triangle plus an isolated vertex
        (3, 8, 2): 1 / 3,    # path on four vertices
        (4, 16, 3): 0.25,    # triangle with a tail
        (5, 8, 3): 0.2,      # two triangles sharing an edge
    }
    assert set(facts) == set(expected)
    for key, want in expected.items():
        assert abs(facts[key] - want) < 1e-9, key


def test_census_never_entangled_classes():
    rep = four_vertex_census()
    quiet = [r for r in rep.rows if not r.ever_entangled]
    # perfect matching, 4-cycle and complete graph stay separable
    assert sorted(r.edge_count for r in quiet) == [2, 4, 6]


def test_census_exports():
    rep = four_vertex_census()
    blob = census_to_json_dict(rep)
    assert blob["always_entangled_count"] == 2
    assert len(blob["classes"]) == 10
    rows = census_to_csv_rows(rep)
    assert rows[0][0] == "class_id"
    assert len(rows) == 11  # header + 10 classes
    widths = {len(r) for r in rows}
    assert len(widths) == 1  # rectangular table


# ---------------------------------------------------------------------------
# the stacked kernel against the scalar concurrence it replaced


# sigma_y (x) sigma_y in the product basis
FLIP = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex)


def hermitian(mat) -> np.ndarray:
    """A float or complex matrix checked Hermitian within 1e-10 relative,
    then symmetrized."""
    data = np.asarray(mat, dtype=complex)
    scale = max(1.0, np.abs(data).max())
    if np.abs(data - data.conj().T).max() > 1e-10 * scale:
        raise LinalgError("matrix is not Hermitian")
    return (data + data.conj().T) / 2


def psd_root(data: np.ndarray) -> np.ndarray:
    """Principal square root, by eigh checked for its reconstruction."""
    mat = data.real if np.abs(data.imag).max() < 1e-300 else data
    vals, vecs = np.linalg.eigh(mat)
    err = np.abs((vecs * vals) @ vecs.conj().T - mat).max()
    if err > 1e-10 * 4:
        raise LinalgError(f"eigendecomposition failed to reconstruct (err={err:g})")
    if vals[0] < -1e-10:
        raise LinalgError(f"matrix is not PSD (eigenvalue {vals[0]:g})")
    return hermitian((vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T)


def scalar_concurrence(state) -> ConcurrenceResult:
    """The one-state concurrence the stacked kernel replaced, kept as its
    oracle: a 4x4 array is checked as a state (Hermitian, unit trace, PSD),
    then rho~ and sqrt(rho) are taken one matrix at a time."""
    data = hermitian(state)
    tr = data.trace()
    if abs(tr - 1) > TRACE_TOL:
        raise DensityError(f"trace is {tr}, not 1")
    low = np.linalg.eigvalsh(data)[0]
    if low < -PSD_TOL:
        raise DensityError(f"matrix is not PSD (eigenvalue {low:g})")
    flipped = hermitian(FLIP @ data.conj() @ FLIP)
    root = psd_root(data)
    sym = root @ flipped @ root
    vals = np.linalg.eigvalsh((sym + sym.conj().T) / 2)
    if vals[0] < -1e-8:
        raise ConcurrenceError(f"spin-flip product has eigenvalue {vals[0]:g}")
    # floor roundoff before the square root: an eigenvalue that is exactly
    # zero lands at +-1e-16 numerically and sqrt would inflate it to 1e-8
    lams = tuple(sorted(
        (math.sqrt(v) if v > 1e-13 else 0.0 for v in vals), reverse=True))
    value = max(0.0, lams[0] - lams[1] - lams[2] - lams[3])
    return ConcurrenceResult(value, lams)


def assert_matches_oracle(stack):
    values, lams = concurrences(stack)
    assert values.shape == (len(stack),) and lams.shape == (len(stack), 4)
    for k, state in enumerate(stack):
        want = scalar_concurrence(state)
        assert values[k] == want.value, k
        assert tuple(lams[k].tolist()) == want.lambdas, k


def random_state(rng, rank: int, complex_entries: bool) -> np.ndarray:
    a = rng.standard_normal((4, rank))
    if complex_entries:
        a = a + 1j * rng.standard_normal((4, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def census_cell_states() -> np.ndarray:
    """Every NPT 4-vertex graph state in the cell basis, one labeling at a time."""
    out = []
    for g in nonisomorphic_graphs(4, min_edges=1):
        sigma = density_of_graph(g).to_real()
        for assign in itertools.permutations(range(4)):
            if not ppt_verdicts(g.edges, [assign], 2, 2)[0]:
                pos = np.argsort(assign)
                out.append(sigma[np.ix_(pos, pos)])
    return np.array(out)


@settings(max_examples=60, deadline=None)
@given(kinds=st.lists(st.tuples(st.integers(1, 4), st.booleans()), min_size=1, max_size=8),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_kernel_matches_scalar_concurrence(kinds, seed):
    # ranks 1 to 4, real and complex layers mixed in one stack
    rng = np.random.default_rng(seed)
    assert_matches_oracle(np.array([random_state(rng, r, c) for r, c in kinds]))


def test_stacked_kernel_matches_scalar_concurrence_on_census_states():
    stack = census_cell_states()
    assert len(stack) == 104
    assert_matches_oracle(stack)


def _eigenvalue_below_zero(rng):
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    return (u * np.array([0.5, 0.3, 0.2 + 1e-6, -1e-6])) @ u.conj().T


def _not_hermitian(rng):
    state = random_state(rng, 4, True)
    state[0, 1] += 1e-3
    return state


@pytest.mark.parametrize("make_bad,error", [
    (lambda rng: 1.01 * random_state(rng, 3, False), DensityError),
    (_eigenvalue_below_zero, DensityError),
    (_not_hermitian, LinalgError),
])
@pytest.mark.parametrize("index", [0, 2, 4])
def test_stacked_kernel_names_the_failing_state(make_bad, error, index):
    rng = np.random.default_rng(index)
    stack = [random_state(rng, 2, k % 2 == 1) for k in range(5)]
    stack[index] = make_bad(rng)
    with pytest.raises(error):
        scalar_concurrence(stack[index])
    with pytest.raises(error, match=rf"^state {index} of the stack: "):
        concurrences(np.array(stack))


def test_census_batches_its_eigensolves(monkeypatch):
    # a loop over the labelings makes 332 eigensolver calls; the batched census needs 5
    four_vertex_census()
    calls = []
    for name in ("eigh", "eigvalsh"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _solve=solve, **k: calls.append(1) or _solve(*a, **k))
    four_vertex_census()
    assert 0 < len(calls) <= 25
