"""Density matrices built from graphs.

A graph with at least one non-loop edge yields the unit-trace positive
matrix (degree matrix minus adjacency) / (2 * edge count).  The loop-aware
variant adds the loop-multiplicity diagonal and renormalizes.  Each is an
exact integer matrix over one denominator; numerics only appear once a
spectrum is requested.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import Graph, laplacian, tensor_product
from .linalg import HermitianMatrix, diagonally_dominant, exact_projector, is_psd, kron

TRACE_TOL = 1e-12


class DensityError(ValueError):
    """Invalid density-matrix construction."""


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace positive semidefinite matrix, possibly tied to a graph.

    origin is the graph G exactly when the state is L(G)/2m, a graph state;
    it is None for looped states, sigma_plus, channel outputs and the like.
    A state whose numerator is diagonally dominant (every Laplacian, D + A)
    is PSD by that certificate; any other state needs an eigensolve.
    """

    mat: HermitianMatrix
    origin: Graph | None = None

    def __post_init__(self):
        tr = self.mat.trace()
        if tr != 1:
            raise DensityError(f"trace is {tr}, not 1")
        if diagonally_dominant(self.mat.num):
            return
        ok, low = is_psd(self.mat)
        if not ok:
            raise DensityError(f"matrix is not PSD (eigenvalue {low:g})")

    @property
    def dim(self) -> int:
        return self.mat.dim

    def to_real(self) -> np.ndarray:
        return self.mat.to_real()


def density_of_graph(g: Graph) -> DensityMatrix:
    """Normalized combinatorial Laplacian of g.  Loops are ignored entirely."""
    if g.m == 0:
        raise DensityError("graph has no non-loop edge")
    return DensityMatrix(HermitianMatrix(laplacian(g), den=2 * g.m), origin=g)


def density_with_loops(g: Graph) -> DensityMatrix:
    """Loop-aware state: (Laplacian + loop-multiplicity diagonal) / (2m + loops).
    Without loops it is g's graph state, and only then is its origin g."""
    denom = 2 * g.m + g.loop_total
    if denom == 0:
        raise DensityError("graph has neither edges nor loops")
    data = laplacian(g) + np.diag(g.loops)
    return DensityMatrix(HermitianMatrix(data, den=denom), origin=None if g.loop_total else g)


def purity(rho: DensityMatrix) -> Fraction:
    """tr(rho^2) as the exact Fraction sum(num^2) / den^2."""
    flat = rho.mat.num.ravel().tolist()
    return Fraction(sum(x * x for x in flat), rho.mat.den ** 2)


def is_pure(rho: DensityMatrix) -> bool:
    return purity(rho) == 1


def edge_state_vector(g: Graph, edge, sign: int = -1) -> list[int]:
    """Unnormalized e_u +/- e_v for an edge of g (exact integer entries)."""
    u, v = edge
    vec = [0] * g.n
    vec[u] = 1
    vec[v] = sign
    return vec


def pure_mixture_decomposition(g: Graph) -> list[tuple[Fraction, DensityMatrix]]:
    """Write the graph state as the uniform mixture of its edge states.

    Each non-loop edge (u, v) contributes weight 1/m on the projector onto
    (e_u - e_v)/sqrt(2), the graph state of that one edge.  The weighted sum
    reproduces the state exactly.
    """
    if g.m == 0:
        raise DensityError("graph has no non-loop edge")
    w = Fraction(1, g.m)
    parts = []
    total = HermitianMatrix.zeros(g.n)
    for edge in g.edges:
        proj = exact_projector(edge_state_vector(g, edge, -1))
        total = total + proj.scale(w)
        factor = Graph(g.n, (edge,), (0,) * g.n)
        parts.append((w, DensityMatrix(proj, origin=factor)))
    if not total.exact_equal(density_of_graph(g).mat):
        raise DensityError("edge mixture failed to reconstruct the state")
    return parts


def sigma_plus(g: Graph) -> DensityMatrix:
    """Uniform mixture of plus-sign edge states: (degrees + adjacency) / 2m."""
    if g.m == 0:
        raise DensityError("graph has no non-loop edge")
    # the Laplacian's entries are the degrees and -1 per edge, so |L| = D + A
    return DensityMatrix(HermitianMatrix(np.abs(laplacian(g)), den=2 * g.m))


def tensor_separable_decomposition(g: Graph, h: Graph):
    """Split the state of the tensor-product graph across the two factors.

    Returns [(1/2, state_a, state_b), (1/2, ...)] whose Kronecker mixture
    equals the product graph's state exactly: minus-sign states on one
    factor pair with plus-sign mixtures on the other.
    """
    if g.m == 0 or h.m == 0:
        raise DensityError("both factors need at least one non-loop edge")
    if any(g.loops) or any(h.loops):
        raise DensityError("tensor split requires loop-free factors")
    half = Fraction(1, 2)
    parts = [
        (half, density_of_graph(g), sigma_plus(h)),
        (half, sigma_plus(g), density_of_graph(h)),
    ]
    mix = HermitianMatrix.zeros(g.n * h.n)
    for (w, a, b) in parts:
        mix = mix + kron(a.mat, b.mat).scale(w)
    target = density_of_graph(tensor_product(g, h)).mat
    if not mix.exact_equal(target):
        raise DensityError("tensor split failed to reconstruct the product state")
    return parts
