"""Bipartite structure of graph states: partial transpose, PPT verdicts,
entangled edges, matching canonicalization, and explicit separable
decompositions.

A labeling identifies the n = p*q vertices with the product basis
|row s>|column t>.  The default map sends vertex v (0-based) to
(v // q, v % q); explicit overrides reproduce bases that interleave rows.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .density import DensityMatrix, density_of_graph
from .graphs import Graph, build_graph, complete_graph
from .linalg import HermitianMatrix

SEPARABLE = "SEPARABLE"
ENTANGLED_NPT = "ENTANGLED_NPT"
PPT_INCONCLUSIVE = "PPT_INCONCLUSIVE"

NPT_TOL = 1e-9
RECONSTRUCTION_TOL = 1e-10

# dimensions at which a positive partial transpose certifies separability
_PPT_EXACT_DIMS = {(2, 2), (2, 3), (3, 2)}

DEFAULT_SEARCH_SEED = 20060111

# labelings per batched eigensolve or verdict tally: bounds the memory of
# one PT or index stack
_EIG_BLOCK = 4096


class SeparabilityError(ValueError):
    """Invalid separability computation."""


@dataclass(frozen=True)
class BipartiteLabeling:
    """Assignment of each vertex to a cell (s, t), 0 <= s < p, 0 <= t < q."""

    p: int
    q: int
    cells: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = self.p * self.q
        if len(self.cells) != n:
            raise SeparabilityError("labeling must cover exactly p*q vertices")
        for s, t in self.cells:
            if not (0 <= s < self.p and 0 <= t < self.q):
                raise SeparabilityError(f"cell {s}.{t} is outside the {self.p}x{self.q} grid")
        flats = sorted(self.flat(v) for v in range(n))
        if flats != list(range(n)):
            raise SeparabilityError("labeling is not a bijection onto the cells")

    @classmethod
    def default(cls, p: int, q: int) -> "BipartiteLabeling":
        """Vertex v sits at (v // q, v % q): rows are consecutive blocks."""
        return cls(p, q, tuple(divmod(v, q) for v in range(p * q)))

    @classmethod
    def from_assignment(cls, p: int, q: int, assign) -> "BipartiteLabeling":
        """Build from flat cell indices: vertex v sits at cell assign[v]."""
        return cls(p, q, tuple(divmod(int(a), q) for a in assign))

    @property
    def n(self) -> int:
        return self.p * self.q

    def flat(self, v: int) -> int:
        s, t = self.cells[v]
        return s * self.q + t

    def is_default(self) -> bool:
        return all(self.flat(v) == v for v in range(self.n))


@dataclass(frozen=True)
class SeparabilityVerdict:
    status: str
    min_pt_eigenvalue: float
    dims: tuple[int, int]


@dataclass(frozen=True)
class ProductState:
    """Weighted product vector left (x) right with unit-norm factors."""

    left: np.ndarray
    right: np.ndarray
    weight: float

    def __post_init__(self):
        for vec in (self.left, self.right):
            if abs(np.linalg.norm(vec) - 1.0) > 1e-10:
                raise SeparabilityError("product-state factor is not unit norm")
        if self.weight < 0:
            raise SeparabilityError("product-state weight must be nonnegative")


# ---------------------------------------------------------------------------
# partial transpose and PPT testing


def _pt_index(assigns: np.ndarray, p: int, q: int) -> np.ndarray:
    """Row indices of the vertex-basis partial transposes of a state.

    assigns[k, v] is the flat cell s*q + t of vertex v under labeling k, and
    at[s, t] is the vertex sitting in cell (s, t).  Entry (u, v) of the k-th
    PT is sigma[rows[k, u, v], rows[k, v, u]] with rows[k, u, v] =
    at[s_u, t_v]: transposing the column factor swaps t_u and t_v.
    """
    k = np.arange(len(assigns))[:, None]
    at = np.empty_like(assigns)
    at[k, assigns] = np.arange(p * q)
    s, t = np.divmod(assigns, q)
    return at.reshape(-1, p, q)[k[:, :, None], s[:, :, None], t[:, None, :]]


def _pt_indexed(mat: np.ndarray, lab: BipartiteLabeling) -> np.ndarray:
    """Partial transpose in the vertex basis of the input matrix."""
    assign = np.array([[lab.flat(v) for v in range(lab.n)]])
    rows = _pt_index(assign, lab.p, lab.q)[0]
    return mat[rows, rows.T]


def min_pt_eigenvalues(sigma: np.ndarray, assigns, p: int, q: int) -> np.ndarray:
    """Smallest partial-transpose eigenvalue of a real state per labeling.

    sigma is one n x n state shared by every labeling, or a stack of K
    states paired with the K rows of assigns (flat cells, assigns[k, v] =
    s*q + t).  The partial transposes are gathered in the vertex basis,
    the matrices `ppt_test` sees, and each block of labelings goes through
    one batched eigvalsh call.
    """
    sigma = np.asarray(sigma, dtype=float)
    assigns = np.asarray(assigns, dtype=np.intp).reshape(-1, p * q)
    out = np.empty(len(assigns))
    for lo in range(0, len(assigns), _EIG_BLOCK):
        rows = _pt_index(assigns[lo:lo + _EIG_BLOCK], p, q)
        cols = rows.transpose(0, 2, 1)
        if sigma.ndim == 2:
            pt = sigma[rows, cols]
        else:
            k = np.arange(lo, lo + len(rows))[:, None, None]
            pt = sigma[k, rows, cols]
        out[lo:lo + len(rows)] = np.linalg.eigvalsh(pt)[:, 0]
    return out


def ppt_verdicts(edges, assigns, p: int, q: int, present=None) -> np.ndarray:
    """Exact PPT verdicts of graph states by the degree criterion.

    The PT moves each entangled edge, (s, t)-(s', t') with s != s' and
    t != t', to (s, t')-(s', t), so it is L(G') + D(G) - D(G'): PSD when
    every cell keeps its degree, NPT otherwise (Braunstein et al., PRA 73,
    012320 (2006); Hildebrand, Mancini and Severini, MSCS 18 (2008)).  Each
    entangled edge adds +1 at its two cells and -1 at the swapped ones.

    edges is an (m, 2) array of vertex pairs, assigns[k, v] the flat cell of
    vertex v under labeling k, and present[k] (optional) the edges instance
    k has; one row of either is shared by all K instances.  Returns K
    booleans, True where the state is PPT.
    """
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
        # any other edge's four terms cancel, so only entangled ones are tallied
        i, e = np.nonzero((s[:, u] != s[:, v]) & (t[:, u] != t[:, v]) & mask)
        j = i if len(s) > 1 else 0  # the labeling of each entangled edge
        su, sv, tu, tv = s[j, u[e]], s[j, v[e]], t[j, u[e]], t[j, v[e]]
        cells = np.stack([su * q + tu, sv * q + tv, su * q + tv, sv * q + tu], axis=1)
        cells += n * i[:, None]
        tally = np.bincount(cells.ravel(), np.broadcast_to(sign, cells.shape).ravel(),
                            minlength=k * n)
        out[lo:lo + k] = ~tally.reshape(k, n).any(axis=1)
    return out


def _min_eig_for_assignment(sigma: np.ndarray, assign, p: int, q: int) -> float:
    """min_pt_eigenvalues for one labeling."""
    return float(min_pt_eigenvalues(sigma, [assign], p, q)[0])


def partial_transpose(rho: DensityMatrix, lab: BipartiteLabeling) -> HermitianMatrix:
    """Transpose the second tensor factor of an exact state, exactly.

    The result is expressed in the same vertex basis as the input, so
    printed matrices line up with the labeled examples.
    """
    if rho.dim != lab.n:
        raise SeparabilityError(f"state dim {rho.dim} != p*q = {lab.n}")
    return HermitianMatrix(_pt_indexed(rho.mat.num, lab), den=rho.mat.den)


def min_pt_eigenvalue(rho: DensityMatrix, lab: BipartiteLabeling) -> float:
    return _min_eig_for_assignment(rho.mat.to_real(),
                                   [lab.flat(v) for v in range(lab.n)], lab.p, lab.q)


def ppt_status(p: int, q: int) -> str:
    """Verdict of a positive partial transpose at dimensions p x q."""
    return SEPARABLE if (p, q) in _PPT_EXACT_DIMS else PPT_INCONCLUSIVE


def ppt_test(rho: DensityMatrix, lab: BipartiteLabeling) -> SeparabilityVerdict:
    """Peres-Horodecki test of a graph state, decided by `ppt_verdicts`: NPT
    certifies entanglement at any dimension, while a positive partial
    transpose certifies separability only at 2x2 and 2x3.  The verdict also
    reports the smallest PT eigenvalue."""
    g = rho.origin
    if g is None or rho.normalization != 2 * g.m:
        raise SeparabilityError("the PPT test decides graph states L(G)/2m only")
    if rho.dim != lab.n:
        raise SeparabilityError(f"state dim {rho.dim} != p*q = {lab.n}")
    ppt = ppt_verdicts(g.edges, [lab.flat(v) for v in range(lab.n)], lab.p, lab.q)[0]
    status = ppt_status(lab.p, lab.q) if ppt else ENTANGLED_NPT
    return SeparabilityVerdict(status, min_pt_eigenvalue(rho, lab), (lab.p, lab.q))


# ---------------------------------------------------------------------------
# entangled edges and matchings


def entangled_edges(g: Graph, lab: BipartiteLabeling) -> list[tuple[int, int]]:
    """Edges whose endpoints differ in both the row and the column label."""
    if g.n != lab.n:
        raise SeparabilityError("labeling size does not match the graph")
    out = []
    for (u, v) in g.edges:
        (s, t), (s2, t2) = lab.cells[u], lab.cells[v]
        if s != s2 and t != t2:
            out.append((u, v))
    return out


def classify_matching(g: Graph, lab: BipartiteLabeling) -> str:
    """Strongest of: pe-matching > e-matching > matching > not-matching.

    A matching is a set of vertex-disjoint non-loop edges; an e-matching has
    every edge entangled; a pe-matching additionally spans every vertex.
    """
    if any(g.loops):
        return "not-matching"
    used = set()
    for (u, v) in g.edges:
        if u in used or v in used:
            return "not-matching"
        used.update((u, v))
    if g.m == 0 or len(entangled_edges(g, lab)) < g.m:
        return "matching"
    if len(used) == g.n:
        return "pe-matching"
    return "e-matching"


def _row_derangement(g: Graph, lab: BipartiteLabeling) -> dict[int, int]:
    """For a p = 2 pe-matching: column map t -> t' along row 0 -> row 1."""
    pi = {}
    for (u, v) in g.edges:
        (su, tu), (sv, tv) = lab.cells[u], lab.cells[v]
        if su == sv:
            raise SeparabilityError("matching edge joins two cells in the same row")
        if su == 1:
            tu, tv = tv, tu
        pi[tu] = tv
    return pi


@dataclass(frozen=True)
class TallyMark:
    """A cyclic chain of entangled edges between two rows, recorded by the
    ascending column set it occupies (chains of length 2 are criss-crosses)."""

    columns: tuple[int, ...]


def canonicalize_pe_matching(g: Graph, lab: BipartiteLabeling):
    """Relabel columns so a two-row pe-matching becomes stacked tally-marks.

    Columns are processed in ascending order; whenever the chain through
    column c continues to some later column j, the transposition (j, c+1)
    is applied to the column labels, so every chain closes on a consecutive
    block.  Returns (column permutation as an image tuple, canonical graph,
    tally-marks); the canonical graph uses the default labeling.
    """
    if lab.p != 2:
        raise SeparabilityError("canonical form is defined for two rows")
    if classify_matching(g, lab) != "pe-matching":
        raise SeparabilityError("graph is not a pe-matching under this labeling")
    q = lab.q
    pi = _row_derangement(g, lab)

    relab = list(range(q))  # cumulative column relabeling, col -> new col

    def apply_transposition(a: int, b: int):
        swap = {a: b, b: a}
        nonlocal pi
        pi = {swap.get(x, x): swap.get(y, y) for x, y in pi.items()}
        for col in range(q):
            if relab[col] == a:
                relab[col] = b
            elif relab[col] == b:
                relab[col] = a

    marks = []
    start = 0
    for c in range(q):
        img = pi[c]
        if img == start:
            marks.append(TallyMark(tuple(range(start, c + 1))))
            start = c + 1
        elif img != c + 1:
            apply_transposition(img, c + 1)
    canonical = build_graph(2 * q, [(c, q + pi[c]) for c in range(q)])
    return tuple(relab), canonical, marks


def _tally_states(cycle_columns, q: int, weight: float) -> list[ProductState]:
    """Product states whose uniform mixture is the state of one tally-mark.

    cycle_columns lists the columns in traversal order along the chain;
    the left factors run through (|0> - e^{-2 pi i m/(k+1)} |1>)/sqrt(2) and
    the right factors are the matching discrete-Fourier vectors.
    """
    size = len(cycle_columns)
    states = []
    for m in range(size):
        phase = cmath.exp(-2j * cmath.pi * m / size)
        left = np.array([1.0, -phase]) / math.sqrt(2)
        right = np.zeros(q, dtype=complex)
        for s, col in enumerate(cycle_columns):
            right[col] = cmath.exp(2j * cmath.pi * s * m / size)
        right /= math.sqrt(size)
        states.append(ProductState(left, right, weight))
    return states


def tally_mark_decomposition(g: Graph) -> list[ProductState]:
    """Separable decomposition of a single tally-mark spanning its graph.

    Under the default two-row labeling the graph must be a pe-matching whose
    column map is one cycle visiting its columns in increasing order.
    Returns k+1 product states with uniform weights whose mixture
    reconstructs the state, built and verified by the matching route.
    """
    if g.n % 2:
        raise SeparabilityError("tally-mark graph needs an even vertex count")
    lab = BipartiteLabeling.default(2, g.n // 2)
    if classify_matching(g, lab) != "pe-matching":
        raise SeparabilityError("graph is not a pe-matching under this labeling")
    pi = _row_derangement(g, lab)
    if any(pi[c] != (c + 1) % lab.q for c in range(lab.q)):
        raise SeparabilityError("pe-matching is not a single increasing chain")
    return pe_matching_separability(g, lab)


# ---------------------------------------------------------------------------
# decompositions and their verification


def verify_separable_decomposition(rho: DensityMatrix, states,
                                   lab: BipartiteLabeling | None = None) -> bool:
    """True iff the weighted product mixture matches rho entrywise within
    RECONSTRUCTION_TOL.

    Product vectors live on cells; `lab` translates them to the vertex basis
    (omit it for the default labeling).  The K product vectors are stacked
    as the rows of V, so the mixture is one product V^T diag(w) conj(V).
    """
    if not states:
        return False
    weights = [s.weight for s in states]
    total = sum(weights)
    if abs(total - 1.0) > 1e-10:
        raise SeparabilityError(f"weights sum to {total}, not 1")
    left = np.array([s.left for s in states], dtype=complex)
    right = np.array([s.right for s in states], dtype=complex)
    vecs = (left[:, :, None] * right[:, None, :]).reshape(len(states), -1)
    mix = (vecs.T * np.array(weights)) @ vecs.conj()
    if lab is not None and not lab.is_default():
        # cell-basis mixture -> vertex basis
        fl = [lab.flat(v) for v in range(rho.dim)]
        mix = mix[np.ix_(fl, fl)]
    return bool(np.abs(mix - rho.mat.to_real()).max() <= RECONSTRUCTION_TOL)


def _basis(dim: int, i: int, sign_j: float | None = None, j: int | None = None) -> np.ndarray:
    """|i>, or (|i> + sign_j |j>)/sqrt(2), in dimension dim."""
    vec = np.zeros(dim)
    vec[i] = 1.0
    if j is not None:
        vec[j] = sign_j
        vec /= math.sqrt(2)
    return vec


def complete_graph_decomposition(n: int, p: int, q: int) -> list[ProductState]:
    """Explicit product-state mixture for the complete graph's state.

    Separable edges keep their own projectors; each criss-crossing pair of
    entangled edges is rewritten as two product projectors on (|u_s> +/-
    |u_s'>)/sqrt(2) tensor (|w_t> -/+ |w_t'>)/sqrt(2).  Relabeling leaves
    the complete graph's state unchanged, so the check under the default
    labeling holds, with the same residual, under every labeling.
    """
    if p * q != n:
        raise SeparabilityError("n must equal p*q")
    if n < 2:
        raise SeparabilityError("complete graph needs n >= 2")
    m = n * (n - 1) // 2
    w = 1.0 / m
    states = []
    row_pairs = list(itertools.combinations(range(p), 2))
    col_pairs = list(itertools.combinations(range(q), 2))
    # separable edges: same row (column pair) or same column (row pair)
    for s, (t, t2) in itertools.product(range(p), col_pairs):
        states.append(ProductState(_basis(p, s), _basis(q, t, -1.0, t2), w))
    for t, (s, s2) in itertools.product(range(q), row_pairs):
        states.append(ProductState(_basis(p, s, -1.0, s2), _basis(q, t), w))
    # entangled edges, handled as criss-crossing pairs
    for (s, s2), (t, t2) in itertools.product(row_pairs, col_pairs):
        states.append(ProductState(_basis(p, s, 1.0, s2), _basis(q, t, -1.0, t2), w))
        states.append(ProductState(_basis(p, s, -1.0, s2), _basis(q, t, 1.0, t2), w))
    rho = density_of_graph(complete_graph(n))
    if not verify_separable_decomposition(rho, states):
        raise SeparabilityError("complete-graph decomposition failed to reconstruct")
    return states


def pe_matching_separability(g: Graph, lab: BipartiteLabeling) -> list[ProductState]:
    """Verified product states of g's state, by the matching theorem.

    Requires every entangled edge of g to lie in one pe-matching H (so the
    entangled edges are vertex-disjoint and span the graph, or there are
    none at all); entangled edges need a two-row labeling, while a graph
    without them decomposes at any p.  The state splits as a mixture of
    H's tally-mark product states and the remaining separable edge states,
    each a product vector; the decomposition is checked against the state
    before it is returned, so it certifies SEPARABLE at any q.
    """
    ent = entangled_edges(g, lab)  # rejects a labeling of the wrong size
    if ent and lab.p != 2:
        raise SeparabilityError("matching separability is stated for two rows")
    if g.m == 0:
        raise SeparabilityError("graph has no edges")
    states = []
    w = 1.0 / g.m
    if ent:
        h = Graph(g.n, tuple(sorted(ent)), (0,) * g.n)
        if classify_matching(h, lab) != "pe-matching":
            raise SeparabilityError("entangled edges do not form one pe-matching")
        column_perm, _, marks = canonicalize_pe_matching(h, lab)
        # pull each canonical tally-mark back through the column relabeling
        for mark in marks:
            for st in _tally_states(mark.columns, lab.q, w):
                right = np.array([st.right[column_perm[t]] for t in range(lab.q)])
                states.append(ProductState(st.left, right, w))
    for (u, v) in g.edges:
        (s, t), (s2, t2) = lab.cells[u], lab.cells[v]
        if s == s2:
            states.append(ProductState(_basis(lab.p, s), _basis(lab.q, t, -1.0, t2), w))
        elif t == t2:
            states.append(ProductState(_basis(lab.p, min(s, s2), -1.0, max(s, s2)),
                                       _basis(lab.q, t), w))
    if not verify_separable_decomposition(density_of_graph(g), states, lab):
        raise SeparabilityError("matching decomposition failed to reconstruct")
    return states


def separable_decomposition(g: Graph, lab: BipartiteLabeling):
    """(route, verified product states) when a constructive route certifies
    g's state separable under lab, else None.

    A complete graph decomposes under every labeling ("complete-graph").
    Under a two-row labeling the entangled edges may form one criss-cross
    pe-matching ("criss-cross-matching"); with more rows, a graph with no
    entangled edge is a mixture of product edge states ("product-edges").
    """
    if g.m == g.n * (g.n - 1) // 2:
        return "complete-graph", complete_graph_decomposition(g.n, lab.p, lab.q)
    if lab.p == 2:
        route = "criss-cross-matching"
    elif not entangled_edges(g, lab):
        route = "product-edges"
    else:
        return None
    try:
        return route, pe_matching_separability(g, lab)
    except SeparabilityError:
        return None


# ---------------------------------------------------------------------------
# star witness


@dataclass(frozen=True)
class StarWitness:
    """Local 2x2-corner compression of a star state and its partial transpose.

    The compressed matrix is not renormalized; its PT picks up a negative
    eigenvalue for every n = pq >= 4, witnessing the star's entanglement.
    """

    projected: HermitianMatrix
    pt: HermitianMatrix
    pt_eigenvalues: tuple[float, ...]
    formula_eigenvalues: tuple[float, ...]


def star_projection_witness(n: int, p: int, q: int) -> StarWitness:
    """Compress the star state onto rows {0,1} x columns {0,1} and PT it.

    The hub sits at cell (0,0) under the default labeling.  The four PT
    eigenvalues are {1/(2(n-1)), 1/(n-1), (1 +/- sqrt((n-1)^2+8)/(n-1))/4};
    the minus branch is negative whenever n >= 4.
    """
    if p * q != n or n < 4 or p < 2 or q < 2:
        raise SeparabilityError("witness needs n = p*q >= 4 with p, q >= 2")
    # corner vertices at cells (0,0), (0,1), (1,0), (1,1); the hub, at (0,0),
    # has degree n - 1 and is joined to the three leaves
    data = np.eye(4, dtype=np.int64)
    data[0, 0] = n - 1
    data[0, 1:] = data[1:, 0] = -1
    projected = HermitianMatrix(data, den=2 * (n - 1))
    sub = BipartiteLabeling.default(2, 2)
    pt = HermitianMatrix(_pt_indexed(projected.num, sub), den=projected.den)
    pt_eigs = tuple(float(v) for v in np.linalg.eigvalsh(pt.to_real()))
    root = math.sqrt((n - 1) ** 2 + 8) / (n - 1)
    formula = tuple(sorted([1.0 / (2 * (n - 1)), 1.0 / (n - 1),
                            (1 + root) / 4, (1 - root) / 4]))
    return StarWitness(projected, pt, pt_eigs, formula)


# ---------------------------------------------------------------------------
# labeling search


@dataclass(frozen=True)
class LabelingCensus:
    p: int
    q: int
    mode: str  # "exhaustive" or "sampled"
    total: int
    counts: dict
    witnesses: dict  # status -> flat cell assignment tuple
    seed: int | None = None
    float_disagreements: int = 0  # witnesses the eigenvalues at tol call otherwise


def coset_representatives(p: int, q: int) -> np.ndarray:
    """One cell assignment per coset of S_p x S_q, in lexicographic order.

    Relabeling the rows or the columns is a local permutation unitary, so
    it leaves the partial-transpose spectrum unchanged.  The group acts
    freely on the cells, so each of the n!/(p!q!) cosets holds p!q!
    assignments.  The one returned is its lexicographically smallest
    member: the assignment whose rows, and whose columns, first appear in
    increasing order along the vertices.  Returns a read-only (K, n) int8
    array, built one vertex at a time from every valid prefix.
    """
    n = p * q
    s, t = np.divmod(np.arange(n), q)
    assigns = np.zeros((1, 0), dtype=np.int8)
    used = np.zeros((1, n), dtype=bool)
    rows = cols = np.zeros(1, dtype=np.intp)  # rows and columns opened so far
    for _ in range(n):
        # the next vertex takes a free cell opening at most one new row and
        # column; nonzero walks prefix by prefix, cells ascending, so the
        # rows stay in lexicographic order
        parent, cell = np.nonzero(~used & (s <= rows[:, None]) & (t <= cols[:, None]))
        assigns = np.concatenate([assigns[parent], cell[:, None].astype(np.int8)], axis=1)
        used = used[parent]
        used[np.arange(len(cell)), cell] = True
        rows = np.maximum(rows[parent], s[cell] + 1)
        cols = np.maximum(cols[parent], t[cell] + 1)
    assigns.setflags(write=False)
    return assigns


def labeling_search(g: Graph, p: int, q: int, *, tol: float = NPT_TOL,
                    sample: int | None = None, seed: int | None = None) -> LabelingCensus:
    """Census of PPT verdicts over vertex labelings of g.

    Every verdict is exact, from `ppt_verdicts`.  Exhaustive mode (n <= 8)
    evaluates one representative per coset of the row and column
    relabelings S_p x S_q, which leave the PT spectrum unchanged, and
    weights it by p!q!; counts refer to all n! labelings, and each witness
    is the lexicographically first labeling of its status.  For larger
    graphs pass `sample` to draw that many uniform labelings from
    default_rng(seed).  `tol` only governs the float cross-check:
    `float_disagreements` counts the witnesses whose smallest PT
    eigenvalue says otherwise.
    """
    n = g.n
    if p * q != n:
        raise SeparabilityError("n must equal p*q")
    if n > 12:
        raise SeparabilityError("labeling search is limited to n <= 12")
    if sample is None and n > 8:
        raise SeparabilityError("exhaustive search needs n <= 8; pass a sample budget")
    if sample is not None and sample < 1:
        raise SeparabilityError("sample budget must be positive")
    if seed is not None and seed < 0:
        raise SeparabilityError(f"seed must be non-negative, got {seed}")
    sigma = density_of_graph(g).mat.to_real()  # rejects an edgeless graph

    if sample is None:
        assigns = coset_representatives(p, q)
        weight = math.factorial(p) * math.factorial(q)
        mode, total = "exhaustive", math.factorial(n)
    else:
        if seed is None:
            seed = DEFAULT_SEARCH_SEED
        # row k is the k-th rng.permutation(n) draw of the same generator
        assigns = np.random.default_rng(seed).permuted(np.tile(np.arange(n), (sample, 1)), axis=1)
        weight, mode, total = 1, "sampled", sample
    ppt = ppt_verdicts(g.edges, assigns, p, q)
    counts = {SEPARABLE: 0, ENTANGLED_NPT: 0, PPT_INCONCLUSIVE: 0}
    witnesses = {}  # the first labeling of each status
    for status, mask in ((ENTANGLED_NPT, ~ppt), (ppt_status(p, q), ppt)):
        hits = np.flatnonzero(mask)
        counts[status] = weight * len(hits)
        if len(hits):
            witnesses[status] = tuple(int(a) for a in assigns[hits[0]])
    lows = min_pt_eigenvalues(sigma, list(witnesses.values()), p, q)
    off = sum(bool(low < -tol) != (status == ENTANGLED_NPT)
              for status, low in zip(witnesses, lows))
    return LabelingCensus(p, q, mode, total, counts, witnesses,
                          seed=None if sample is None else seed, float_disagreements=off)
