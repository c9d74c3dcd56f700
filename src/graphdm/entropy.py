"""Von Neumann and q-entropies of graph states, with closed forms.

Regular graphs admit an entropy formula in terms of adjacency eigenvalues,
and circulants have a fully analytic sine spectrum; both are implemented
independently of the generic eigensolver path so they can cross-validate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .density import DensityMatrix
from .graphs import Graph, adjacency_matrix, component_count
from .linalg import HermitianMatrix, SpectrumResult, eigensystem

ZERO_EIGENVALUE_CUTOFF = 1e-12

# constant in the large-n cycle approximation
APPROX_C = 1.0 - math.log2(math.e) / 2.0


class EntropyError(ValueError):
    """Invalid entropy computation."""


@dataclass(frozen=True)
class EntropyReport:
    entropy: float
    spectrum: SpectrumResult
    bound_max: float
    kernel: int | None = None  # the eigenvalues written as exact zeros, for a graph state


def _entropy_of_values(values) -> float:
    s = 0.0
    for lam in values:
        if lam > ZERO_EIGENVALUE_CUTOFF:
            s -= lam * math.log2(lam)
    return s


def von_neumann_entropy(rho: DensityMatrix) -> EntropyReport:
    """-sum lambda log2 lambda, with eigenvalues below 1e-12 treated as 0.
    A graph state's kernel is reported as exact zeros."""
    spec = eigensystem(rho.mat)
    kernel = None
    if rho.origin is not None:  # L(G)/2m: one zero per component
        kernel = component_count(rho.origin)
        spec = replace(spec, eigenvalues=(0.0,) * kernel + spec.eigenvalues[kernel:])
    ent = _entropy_of_values(spec.eigenvalues)
    bound = math.log2(rho.dim - 1) if rho.dim > 1 else 0.0
    return EntropyReport(ent, spec, bound, kernel)


def q_entropy(eigenvalues, q: float) -> float:
    """(sum lambda^q)^(1/q) of an ascending spectrum; tends to the largest
    eigenvalue as q grows.

    Computed as lmax * (sum (lambda/lmax)^q)^(1/q), whose terms lie in
    [0, 1] and whose sum is at least 1, so no order underflows to 0.
    """
    if not 1 < q < math.inf:
        raise EntropyError(f"q must be a finite number above 1, got {q}")
    top = eigenvalues[-1]
    total = sum((lam / top) ** q for lam in eigenvalues if lam > 0)
    return top * total ** (1.0 / q)


def regular_graph_entropy(g: Graph) -> float:
    """Entropy of the state of a d-regular graph from adjacency eigenvalues.

    Uses -(1/(dn)) sum m_i (d - mu_i) log2(d - mu_i) + log2(dn) over the
    distinct adjacency eigenvalues mu_i with multiplicities m_i.
    """
    degs = set(g.degrees())
    if len(degs) != 1:
        raise EntropyError("graph is not regular")
    d = degs.pop()
    if d == 0:
        raise EntropyError("regular graph of degree 0 has no state")
    if any(g.loops):
        raise EntropyError("closed form assumes a loop-free graph")
    spec = eigensystem(HermitianMatrix(adjacency_matrix(g)))
    dn = d * g.n
    total = 0.0
    for (mu, mult) in spec.multiplicities:
        gap = d - mu
        if gap > ZERO_EIGENVALUE_CUTOFF:
            total -= mult * gap * math.log2(gap)
    return total / dn + math.log2(dn)


def circulant_entropy_exact(n: int, k: int) -> float:
    """Entropy of the circulant on Z_n with jumps {k, n-k}, analytically.

    The graph is gcd(n, k) disjoint cycles through p = n/gcd(n, k) vertices,
    so the state's eigenvalues are 2 sin^2(pi j / p) / n for j = 1..p, each
    with multiplicity gcd(n, k).  No eigensolver involved.
    """
    if n < 2 or not 1 <= k <= n - 1:
        raise EntropyError("need n >= 2 and 1 <= k <= n-1")
    g = math.gcd(n, k)
    p = n // g
    values = [2.0 * math.sin(math.pi * j / p) ** 2 / n for j in range(1, p + 1)]
    return g * _entropy_of_values(values)


def circulant_entropy_approx(n: int, k: int) -> float:
    """Large-n approximation log2 n - 1 + 2C/k with C = 1 - log2(e)/2."""
    if k < 1 or n < 2:
        raise EntropyError("need n >= 2 and k >= 1")
    if n / k < 3:
        raise EntropyError("approximation requires n/k >= 3")
    return math.log2(n) - 1.0 + 2.0 * APPROX_C / k
