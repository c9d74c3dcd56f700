"""Tests for graph density matrices and their exact decompositions."""

from fractions import Fraction

import numpy as np
import pytest

import graphdm.density as density_mod
from graphdm import (
    DensityError,
    DensityMatrix,
    HermitianMatrix,
    build_graph,
    complete_graph,
    cycle_graph,
    density_of_graph,
    density_with_loops,
    disjoint_union,
    edge_state_vector,
    eigensystem,
    exact_projector,
    graph_states,
    is_psd,
    is_pure,
    kron,
    path_graph,
    petersen_graph,
    pure_mixture_decomposition,
    purity,
    sigma_plus,
    star_graph,
    tensor_product,
    tensor_separable_decomposition,
)

F = Fraction


def test_single_edge_state_by_hand():
    rho = density_of_graph(path_graph(2))
    expected = HermitianMatrix([[1, -1], [-1, 1]], den=2)
    assert rho.mat.exact_equal(expected)
    assert rho.normalization == 2
    assert rho.origin == path_graph(2)


def test_density_properties_across_generators():
    graphs = [path_graph(4), cycle_graph(5), star_graph(6),
              complete_graph(4), petersen_graph()]
    for g in graphs:
        rho = density_of_graph(g)
        assert rho.mat.trace() == 1
        ok, low = is_psd(rho.mat)
        assert ok, (g, low)
        # entries are exact: off-diagonal -1/(2m), diagonal deg/(2m)
        twom = 2 * g.m
        degs = g.degrees()
        for (u, v) in g.edges:
            assert rho.mat.entry(u, v) == F(-1, twom)
        for v in range(g.n):
            assert rho.mat.entry(v, v) == F(degs[v], twom)


def test_density_needs_an_edge():
    with pytest.raises(DensityError):
        density_of_graph(build_graph(3, []))


def test_density_with_loops_normalization():
    # loops enter only the diagonal and the trace normalization
    g = build_graph(2, [], loops=[1, 1])
    rho = density_with_loops(g)
    assert rho.mat.exact_equal(HermitianMatrix([[1, 0], [0, 1]], den=2))
    h = build_graph(3, [(0, 1)], loops=[0, 0, 2])
    rho = density_with_loops(h)
    # denominator 2m + loops = 2 + 2 = 4
    assert rho.mat.entry(0, 0) == F(1, 4)
    assert rho.mat.entry(2, 2) == F(2, 4)
    assert rho.mat.trace() == 1


def test_sigma_plus_uses_signless_combination():
    rho = sigma_plus(path_graph(2))
    expected = HermitianMatrix([[1, 1], [1, 1]], den=2)
    assert rho.mat.exact_equal(expected)
    ok, _ = is_psd(rho.mat)
    assert ok


def test_edge_state_vector_signs():
    g = path_graph(3)
    assert edge_state_vector(g, (1, 2)) == [F(0), F(1), F(-1)]
    assert edge_state_vector(g, (1, 2), sign=+1) == [F(0), F(1), F(1)]
    # any vertex pair is accepted; the vector does not require an edge
    assert edge_state_vector(g, (0, 2)) == [F(1), F(0), F(-1)]


def test_pure_mixture_decomposition_reconstructs_exactly():
    for g in [path_graph(4), star_graph(5), complete_graph(4), cycle_graph(6)]:
        terms = pure_mixture_decomposition(g)
        assert len(terms) == g.m
        assert sum(w for w, _ in terms) == 1
        mix = HermitianMatrix.zeros(g.n)
        for w, pure in terms:
            assert is_pure(pure)
            mix = mix + pure.mat.scale(w)
        assert mix.exact_equal(density_of_graph(g).mat)
        # every edge of a simple graph carries equal weight 1/m
        assert {w for w, _ in terms} == {F(1, g.m)}


def test_purity_values():
    assert purity(density_of_graph(path_graph(2))) == 1
    assert is_pure(density_of_graph(path_graph(2)))
    rho = density_of_graph(path_graph(3))
    assert purity(rho) == F(5, 8)
    assert not is_pure(rho)
    # an extra isolated vertex does not change purity
    rho2 = density_of_graph(build_graph(3, [(0, 1)]))
    assert purity(rho2) == 1 and is_pure(rho2)


def test_purity_matches_spectrum():
    for g in [cycle_graph(4), star_graph(5), petersen_graph()]:
        rho = density_of_graph(g)
        spec = eigensystem(rho.mat)
        from_spec = sum(v * v for v in spec.eigenvalues)
        assert abs(float(purity(rho)) - from_spec) < 1e-10


def test_loop_helper_density_factorizes():
    """With a looped left factor the product state is an exact Kronecker product.

    Plainly sigma(G) x sigma(H) != sigma(G x H): the Laplacian of a tensor
    product does not factor.  It does factor when the left graph carries
    loops and no edges, because then its adjacency acts as an identity block.
    """
    helper = build_graph(2, [], loops=[1, 1])
    for h in [path_graph(2), path_graph(3), complete_graph(3), cycle_graph(4)]:
        left = density_with_loops(helper)
        right = density_of_graph(h)
        prod = density_of_graph(tensor_product(helper, h))
        assert kron(left.mat, right.mat).exact_equal(prod.mat)
    # and the loop-free version really does fail
    a = density_of_graph(path_graph(2))
    p = density_of_graph(tensor_product(path_graph(2), path_graph(2)))
    assert not kron(a.mat, a.mat).exact_equal(p.mat)


def test_tensor_separable_decomposition_reconstructs():
    pairs = [(path_graph(3), path_graph(2)),
             (complete_graph(3), path_graph(3)),
             (path_graph(2), cycle_graph(3))]
    for g, h in pairs:
        terms = tensor_separable_decomposition(g, h)
        assert sum(w for w, _, _ in terms) == 1
        prod = density_of_graph(tensor_product(g, h))
        mix = HermitianMatrix.zeros(prod.dim)
        for w, left, right in terms:
            assert is_psd(left.mat)[0] and is_psd(right.mat)[0]
            mix = mix + kron(left.mat, right.mat).scale(w)
        assert mix.exact_equal(prod.mat)


def test_density_matrix_validation():
    with pytest.raises(DensityError):
        DensityMatrix(HermitianMatrix([[1, 0], [0, 1]]))  # trace 2
    with pytest.raises(DensityError):
        DensityMatrix(HermitianMatrix([[2, 0], [0, -1]]))  # not PSD


def test_exact_dominant_states_skip_the_eigensolve(monkeypatch):
    checked = []
    psd = density_mod.is_psd
    monkeypatch.setattr(density_mod, "is_psd", lambda h: checked.append(h) or psd(h))
    density_of_graph(cycle_graph(12))
    sigma_plus(petersen_graph())
    density_with_loops(build_graph(3, [(0, 1)], loops=[0, 2, 1]))
    assert checked == []
    # a projector onto (1, 1, 1) fails the certificate
    DensityMatrix(exact_projector([1, 1, 1]))
    assert len(checked) == 1
    with pytest.raises(DensityError, match=r"matrix is not PSD \(eigenvalue -1\)"):
        DensityMatrix(HermitianMatrix([[2, 0], [0, -1]]))


def test_graph_states_stack_once_per_order_without_an_eigensolve(monkeypatch):
    def refuse(*_):
        raise AssertionError("eigensolve")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    orders = []
    build = density_mod.laplacian_states
    monkeypatch.setattr(density_mod, "laplacian_states",
                        lambda n, edge_lists: orders.append(n) or build(n, edge_lists))
    graphs = [cycle_graph(5), path_graph(3), complete_graph(5), star_graph(3), cycle_graph(5)]
    states = graph_states(graphs)
    assert sorted(orders) == [3, 5]
    for g, state in zip(graphs, states):
        assert np.array_equal(state, density_of_graph(g).to_real())
