"""Tests for von Neumann entropy, the q-generalization and circulant formulas."""

import math

import numpy as np
import pytest

from graphdm import (
    EntropyError,
    build_graph,
    cayley_circulant,
    circulant_entropy_approx,
    circulant_entropy_exact,
    complete_graph,
    cycle_graph,
    density_of_graph,
    eigensystem,
    path_graph,
    petersen_graph,
    q_entropy,
    regular_graph_entropy,
    star_graph,
    von_neumann_entropy,
)
from graphdm.graphs import laplacian


def entropy_of(g):
    return von_neumann_entropy(density_of_graph(g)).entropy


def test_report_fields():
    rep = von_neumann_entropy(density_of_graph(path_graph(3)))
    # the bound is log2(n-1), attained only by the complete graph
    assert abs(rep.bound_max - math.log2(2)) < 1e-12
    assert 0.0 <= rep.entropy <= rep.bound_max
    # spectrum of L(P_3)/4 is {0, 1/4, 3/4}
    lams = rep.spectrum.eigenvalues
    assert len(lams) == 3
    for got, want in zip(lams, [0.0, 0.25, 0.75]):
        assert abs(got - want) < 1e-10
    want = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
    assert abs(rep.entropy - want) < 1e-12


@pytest.mark.parametrize("g,kernel", [
    (cycle_graph(5), 1),  # eigh alone reads -1.1e-17 here
    (path_graph(4), 1),  # and 1.7e-17 here
    (petersen_graph(), 1),
    (build_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]), 2),
    (build_graph(6, [(0, 1), (2, 3)]), 4),  # two isolated vertices
], ids=["c5", "p4", "petersen", "two-triangles", "isolated"])
def test_graph_state_kernel_is_exact_zeros(g, kernel):
    """L(G) vanishes exactly on the vectors constant on each component, so
    the component-count smallest eigenvalues read 0.0, as one multiplicity;
    the others are eigh's own eigenvalues of L/2m."""
    spec = von_neumann_entropy(density_of_graph(g)).spectrum
    want = np.linalg.eigh(laplacian(g) / (2 * g.m))[0].tolist()
    assert spec.eigenvalues == (0.0,) * kernel + tuple(want[kernel:])
    assert min(want[kernel:]) > 1e-3
    assert spec.multiplicities[0] == (0.0, kernel)


def test_single_edge_has_zero_entropy():
    assert entropy_of(path_graph(2)) == 0.0


def test_complete_graph_entropy_closed_form():
    for n in range(3, 11):
        assert abs(entropy_of(complete_graph(n)) - math.log2(n - 1)) < 1e-9


def test_star_entropy_is_small():
    # stars are far from maximally mixed; entropy grows slower than log2(n-1)
    for n in [4, 6, 9]:
        s = entropy_of(star_graph(n))
        assert 0.0 < s < math.log2(n - 1)


def test_regular_graph_entropy_matches_direct():
    for g in [cycle_graph(6), complete_graph(5), petersen_graph(),
              cayley_circulant(8, [1, 7, 4])]:
        assert abs(regular_graph_entropy(g) - entropy_of(g)) < 1e-9
    with pytest.raises(EntropyError):
        regular_graph_entropy(path_graph(3))


def test_circulant_exact_matches_direct():
    cases = [(12, 1), (12, 5), (10, 2), (10, 5), (9, 3), (24, 4)]
    for n, k in cases:
        jumps = {k % n, (n - k) % n}
        g = cayley_circulant(n, sorted(jumps))
        assert abs(circulant_entropy_exact(n, k) - entropy_of(g)) < 1e-9


def test_circulant_half_jump_is_perfect_matching():
    # jump n/2 gives n/2 disjoint edges: entropy log2(n/2) exactly
    for n in [6, 12, 20]:
        assert abs(circulant_entropy_exact(n, n // 2) - math.log2(n // 2)) < 1e-12


def test_circulant_entropy_decreases_over_divisors():
    for n in [12, 24]:
        divisors = [k for k in range(1, n // 2 + 1) if n % k == 0]
        values = [circulant_entropy_exact(n, k) for k in divisors]
        for a, b in zip(values, values[1:]):
            assert a > b + 1e-9


def test_circulant_approximation_error_shrinks():
    err_small = abs(circulant_entropy_exact(64, 1) - circulant_entropy_approx(64, 1))
    err_large = abs(circulant_entropy_exact(512, 1) - circulant_entropy_approx(512, 1))
    assert err_large < err_small
    assert err_large < 0.01


def test_q_entropy_limits():
    lams = eigensystem(density_of_graph(complete_graph(4)).mat).eigenvalues
    # order-q spectral norm tends to the largest eigenvalue (1/3 for K_4)
    assert abs(q_entropy(lams, 200) - 1 / 3) < 1e-2
    for q in [1.5, 2, 3, 10]:
        assert q_entropy(lams, q) >= q_entropy(lams, q + 0.5) - 1e-12
    with pytest.raises(EntropyError):
        q_entropy(lams, 1)
    with pytest.raises(EntropyError):
        q_entropy(lams, 0.5)
    for bad in [math.nan, math.inf]:
        with pytest.raises(EntropyError):
            q_entropy(lams, bad)
    # a huge order must not underflow to 0: P4's largest eigenvalue is (2+sqrt 2)/6
    top = (2 + math.sqrt(2)) / 6
    p4 = eigensystem(density_of_graph(path_graph(4)).mat).eigenvalues
    assert abs(q_entropy(p4, 1e308) - top) < 1e-12


def test_q_entropy_against_hand_sum():
    rho = density_of_graph(path_graph(3))  # spectrum {0, 1/4, 3/4}
    want = (0.25 ** 2 + 0.75 ** 2) ** 0.5
    assert abs(q_entropy(eigensystem(rho.mat).eigenvalues, 2) - want) < 1e-12
