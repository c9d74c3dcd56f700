"""Bipartite structure of graph states: partial transpose, PPT verdicts,
entangled edges, and explicit separable decompositions, all built by one
pass that peels the entangled edges into directed cycles.

A labeling identifies the n = p*q vertices with the product basis
|row s>|column t>.  The default map sends vertex v (0-based) to
(v // q, v % q); explicit overrides reproduce bases that interleave rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .density import DensityMatrix, density_of_graph
from .graphs import Graph, complete_graph
from .linalg import HermitianMatrix

SEPARABLE = "SEPARABLE"
ENTANGLED_NPT = "ENTANGLED_NPT"
PPT_INCONCLUSIVE = "PPT_INCONCLUSIVE"

RECONSTRUCTION_TOL = 1e-10

# dimensions at which a positive partial transpose certifies separability
_PPT_EXACT_DIMS = {(2, 2), (2, 3), (3, 2)}

DEFAULT_SEARCH_SEED = 20060111
# largest sample budget of `search` or `probe`: 96 MB of assignments at n = 12
MAX_SAMPLES = 10 ** 6

# labelings per batched eigensolve or verdict tally: bounds the memory of
# one PT or index stack
_EIG_BLOCK = 4096


class SeparabilityError(ValueError):
    """Invalid separability computation."""


@dataclass(frozen=True)
class BipartiteLabeling:
    """Assignment of each vertex to a cell (s, t), 0 <= s < p, 0 <= t < q;
    `assign` holds the same cells flat, s*q + t, the form every kernel reads."""

    p: int
    q: int
    cells: tuple[tuple[int, int], ...]
    assign: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.p * self.q
        if len(self.cells) != n:
            raise SeparabilityError("labeling must cover exactly p*q vertices")
        for s, t in self.cells:
            if not (0 <= s < self.p and 0 <= t < self.q):
                raise SeparabilityError(f"cell {s}.{t} is outside the {self.p}x{self.q} grid")
        assign = tuple(s * self.q + t for s, t in self.cells)
        if sorted(assign) != list(range(n)):
            raise SeparabilityError("labeling is not a bijection onto the cells")
        object.__setattr__(self, "assign", assign)  # frozen, so set once here

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


@dataclass(frozen=True)
class SeparabilityVerdict:
    """PPT status of a labeled graph state and its PT spectrum, ascending."""

    status: str
    pt_spectrum: tuple[float, ...]

    @property
    def min_pt_eigenvalue(self) -> float:
        return self.pt_spectrum[0]


@dataclass(frozen=True, eq=False)
class ProductStates:
    """K weighted product vectors left[k] (x) right[k], stacked: (K, p) and (K, q)
    complex, weights (K,) float; verify_separable_decomposition checks them."""

    left: np.ndarray
    right: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return len(self.weights)


# ---------------------------------------------------------------------------
# partial transpose and PPT testing


def partial_transposes(mats, assigns, p: int, q: int) -> np.ndarray:
    """Vertex-basis partial transposes of n x n matrices, one per labeling.

    mats is one matrix shared by every labeling, or a stack of K matrices
    paired with the K rows of assigns or all sharing its one row.
    assigns[k, v] is the flat cell s*q + t of vertex v under labeling k, and
    at[s, t] the vertex in cell (s, t).  Entry (u, v) of the k-th PT is
    mat[rows[k, u, v], rows[k, v, u]] with rows[k, u, v] = at[s_u, t_v]:
    transposing the column factor swaps t_u and t_v.
    """
    mats = np.asarray(mats)
    assigns = np.asarray(assigns, dtype=np.intp).reshape(-1, p * q)
    k = np.arange(len(assigns))[:, None]
    at = np.empty_like(assigns)
    at[k, assigns] = np.arange(p * q)
    s, t = np.divmod(assigns, q)
    rows = at.reshape(-1, p, q)[k[:, :, None], s[:, :, None], t[:, None, :]]
    stack = () if mats.ndim == 2 else (np.arange(len(mats))[:, None, None],)
    return mats[(*stack, rows, rows.transpose(0, 2, 1))]


def min_pt_eigenvalues(sigma: np.ndarray, assigns, p: int, q: int) -> np.ndarray:
    """Smallest PT eigenvalue of a real state per labeling, by one batched
    eigvalsh per block; sigma is one state for every labeling or a stack
    paired with the rows of assigns.  It decides no verdict: it is the
    float reference the tests hold the exact verdicts to."""
    sigma = np.asarray(sigma, dtype=float)
    assigns = np.asarray(assigns, dtype=np.intp).reshape(-1, p * q)
    out = np.empty(len(assigns))
    for lo in range(0, len(assigns), _EIG_BLOCK):
        block = slice(lo, lo + _EIG_BLOCK)
        pts = partial_transposes(sigma if sigma.ndim == 2 else sigma[block], assigns[block], p, q)
        out[block] = np.linalg.eigvalsh(pts)[:, 0]
    return out


def certify_ppt_verdicts(pts, ppt) -> np.ndarray:
    """Integer certificates of PPT verdicts, with no eigensolve.

    pts holds integer partial transposes M of graph Laplacians, or of their
    positive integer quotients (as `partial_transpose` reduces them), and
    ppt their verdicts.  Let d = M 1 (its entries sum to 0) and x = n 1 - d.
    Gershgorin bounds the eigenvalues of M by 2(n - 1), so x^T M x =
    d^T M d - 2n |d|^2 <= -2 |d|^2: 0 when every cell keeps its degree
    (PPT), negative otherwise, exact in int64 for n below 20,000.  Returns
    the certificates; one that contradicts its verdict raises RuntimeError.
    """
    pts = np.asarray(pts, dtype=np.int64)
    x = pts.shape[-1] - pts.sum(axis=-1)
    cert = np.einsum("...i,...ij,...j->...", x, pts, x)
    wrong = np.flatnonzero(~np.where(ppt, cert == 0, cert < 0))
    if wrong.size:
        raise RuntimeError(f"integer certificate x^T M x = {cert.flat[wrong[0]]} of instance "
                           f"{wrong[0]} contradicts its PPT verdict ({wrong.size} in all)")
    return cert


@functools.lru_cache(maxsize=16)
def _pair_table(p: int, q: int) -> np.ndarray:
    """Read-only (n*n + 1, 4) intp table of the cells one edge tallies on a
    p x q grid.

    Row a*n + b lists the cells an edge between cells a and b tallies: a
    and b, where it counts +1, then (s_a, t_b) and (s_b, t_a), where it
    counts -1, shifted by n into the second half of a 2n-bin tally.  The
    last row, n*n, is an absent edge: 0, 0, n, n, which cancel.  It takes
    32 bytes per cell pair, 4.6 KB at n = 12 and 8 MB at n = 500, and the
    16 most recent grids stay cached.
    """
    n = p * q
    cell = np.arange(n)
    s, t = np.divmod(cell, q)
    table = np.empty((n * n + 1, 4), dtype=np.intp)
    pairs = table[:-1].reshape(n, n, 4)  # pairs[a, b] is row a*n + b
    pairs[..., 0] = cell[:, None]
    pairs[..., 1] = cell
    pairs[..., 2] = n + s[:, None] * q + t
    pairs[..., 3] = n + s * q + t[:, None]
    table[-1] = (0, 0, n, n)
    table.setflags(write=False)
    return table


def ppt_verdicts(edges, assigns, p: int, q: int, present=None) -> np.ndarray:
    """Exact PPT verdicts of graph states by the degree criterion.

    The PT moves each entangled edge, (s, t)-(s', t') with s != s' and
    t != t', to (s, t')-(s', t), so it is L(G') + D(G) - D(G'): PSD when
    every cell keeps its degree, NPT otherwise (Braunstein et al., PRA 73,
    012320 (2006); Hildebrand, Mancini and Severini, MSCS 18 (2008)).  Each
    edge adds +1 at its two cells and -1 at the swapped ones; those are its
    own two cells unless it is entangled, so only entangled edges leave a
    trace.  The four cells depend only on the edge's pair of cells (a, b),
    and row a*n + b of the grid's `_pair_table` lists them.  So each block
    is one gather of table rows and one bincount of 2n bins per instance:
    the state is PPT where every cell is an endpoint as often as it is a
    swapped cell.  The counts are integers, so every verdict is exact.

    edges is an (m, 2) array of vertex pairs, assigns[k, v] the flat cell of
    vertex v under labeling k, and present[k] (optional) the edges instance
    k has; one row of either is shared by all K instances.  Returns K
    booleans, True where the state is PPT.
    """
    n = p * q
    table = _pair_table(p, q)
    u, v = np.asarray(edges, dtype=np.intp).reshape(-1, 2).T
    assigns = np.asarray(assigns, dtype=np.intp).reshape(-1, n)
    if present is not None:
        present = np.atleast_2d(np.asarray(present, dtype=bool))
    total = max(len(assigns), 1 if present is None else len(present))
    out = np.empty(total, dtype=bool)
    for lo in range(0, total, _EIG_BLOCK):
        k = min(_EIG_BLOCK, total - lo)
        a = assigns[lo:lo + k] if len(assigns) > 1 else assigns
        pair = a[:, u] * n + a[:, v]
        if present is not None:
            pair = np.where(present[lo:lo + k] if len(present) > 1 else present, pair, n * n)
        cells = np.take(table, pair, axis=0)  # (k, m, 4)
        cells += 2 * n * np.arange(k)[:, None, None]  # instance k's own bins
        counts = np.bincount(cells.ravel(), minlength=2 * k * n).reshape(k, 2, n)
        out[lo:lo + k] = (counts[:, 0] == counts[:, 1]).all(axis=1)
    return out


def _min_eig_for_assignment(sigma: np.ndarray, assign, p: int, q: int) -> float:
    """min_pt_eigenvalues for one labeling.  No graphdm code calls it; it is
    kept only because perfbench's tracer test binds it."""
    return float(min_pt_eigenvalues(sigma, [assign], p, q)[0])


def partial_transpose(rho: DensityMatrix, lab: BipartiteLabeling) -> HermitianMatrix:
    """Transpose the second tensor factor of an exact state, exactly.

    The result is expressed in the same vertex basis as the input, so
    printed matrices line up with the labeled examples.
    """
    if rho.dim != lab.n:
        raise SeparabilityError(f"state dim {rho.dim} != p*q = {lab.n}")
    pt = partial_transposes(rho.mat.num, lab.assign, lab.p, lab.q)
    return HermitianMatrix(pt[0], den=rho.mat.den)


def ppt_status(p: int, q: int) -> str:
    """Verdict of a positive partial transpose at dimensions p x q."""
    return SEPARABLE if (p, q) in _PPT_EXACT_DIMS else PPT_INCONCLUSIVE


def ppt_test(rho: DensityMatrix, lab: BipartiteLabeling) -> SeparabilityVerdict:
    """Peres-Horodecki test of a graph state, decided by `ppt_verdicts` and
    checked by `certify_ppt_verdicts` on the exact PT: NPT certifies
    entanglement at any dimension, while a positive partial transpose
    certifies separability only at 2x2 and 2x3.  The verdict also carries
    the PT spectrum, from one eigvalsh, which decides nothing."""
    g = rho.origin
    if g is None:
        raise SeparabilityError("the PPT test decides graph states L(G)/2m only")
    pt = partial_transpose(rho, lab)
    spectrum = np.linalg.eigvalsh(pt.to_real())
    ppt = ppt_verdicts(g.edges, lab.assign, lab.p, lab.q)[0]
    certify_ppt_verdicts(pt.num, ppt)
    status = ppt_status(lab.p, lab.q) if ppt else ENTANGLED_NPT
    return SeparabilityVerdict(status, tuple(spectrum.tolist()))


# ---------------------------------------------------------------------------
# entangled edges and their directed cycles


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


def _tally_states(marks: np.ndarray, p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacked factors of the product states whose uniform mixture is the
    state of N tally marks, each k nodes (r, s, column) in traversal order:
    mark i joins row-r column c_j to row-s column c_{j+1 mod k}.  Its mode
    m, row i*k + m of both stacks, is (|r> - e^{-2 pi i m/k} |s>)/sqrt(2)
    (x) sum_j e^{2 pi i jm/k} |c_j>/sqrt(k), a discrete Fourier vector."""
    n_marks, k, _ = marks.shape
    modes = np.arange(k)
    fourier = np.exp(2j * np.pi * (np.outer(modes, modes) % k) / k)  # [m, j] = w^(jm)
    at = np.arange(n_marks)[:, None]
    left = np.zeros((n_marks, k, p), dtype=complex)
    left[at, :, marks[:, :1, 0]] = 1 / math.sqrt(2)
    left[at, :, marks[:, :1, 1]] = -fourier[:, 1].conj() / math.sqrt(2)
    right = np.zeros((n_marks, k, q), dtype=complex)
    right[at[:, :, None], modes[:, None], marks[:, None, :, 2]] = fourier / math.sqrt(k)
    return left.reshape(-1, p), right.reshape(-1, q)


def _directed_cycles(arcs) -> list[list]:
    """Split arcs (tail, head), each node as often a tail as a head, into
    directed cycles, each the list of its nodes in traversal order.  The
    walk starts at the smallest node with an unused arc, always takes the
    unused arc to the smallest head, and cuts a cycle off wherever it
    revisits a node, so it follows every arc once."""
    succ = {}  # node -> heads of its unused arcs, descending, so pop() takes the smallest
    for tail, head in sorted(arcs, reverse=True):
        succ.setdefault(tail, []).append(head)
    cycles = []
    for start in sorted(succ):
        path, at = [start], {start: 0}
        while len(path) > 1 or succ[start]:
            node = succ[path[-1]].pop()
            if node in at:
                cut = at[node]
                cycles.append(path[cut:])
                for gone in path[cut + 1:]:
                    del at[gone]
                del path[cut + 1:]
            else:
                at[node] = len(path)
                path.append(node)
    return cycles


def _cycle_factors(edges, cells, p: int, q: int):
    """(left, right, entangled edges): the complex stacks of the product
    states, one row per edge, of a graph whose vertex v sits at cells[v] =
    (row, column) of a p x q grid: the directed cycles' tally marks,
    shortest first, then the separable edges in edge order.  None when some
    row pair's arcs do not balance."""
    h = 1 / math.sqrt(2)
    lefts, rights, entangled, arcs = [], [], [], []
    for u, v in edges:
        (r, a), (s, b) = cells[u], cells[v]
        if s < r:  # read each edge from its upper row
            r, a, s, b = s, b, r, a
        if r != s and a != b:  # the arc a -> b of the row pair (r, s)
            entangled.append((u, v))
            arcs.append(((r, s, a), (r, s, b)))
            continue
        left, right = [0.0] * p, [0.0] * q
        if r == s:  # a row edge: |r> (x) (|a> - |b>)/sqrt(2)
            left[r], right[a], right[b] = 1.0, h, -h
        else:  # a column edge: (|r> - |s>)/sqrt(2) (x) |a>
            left[r], left[s], right[a] = h, -h, 1.0
        lefts.append(left)
        rights.append(right)
    if sorted(tail for tail, _ in arcs) != sorted(head for _, head in arcs):
        return None
    by_size = {}
    for cycle in _directed_cycles(arcs):
        by_size.setdefault(len(cycle), []).append(cycle)
    blocks = [_tally_states(np.array(marks), p, q) for _, marks in sorted(by_size.items())]
    blocks.append((np.array(lefts).reshape(-1, p), np.array(rights).reshape(-1, q)))
    return (*(np.concatenate(side, dtype=complex) for side in zip(*blocks)), entangled)


def tally_mark_decomposition(g: Graph) -> ProductStates:
    """Separable decomposition of a single tally-mark spanning its graph.

    Under the default two-row labeling the graph must be a pe-matching whose
    column map is one cycle visiting its columns in increasing order; its
    k+1 Fourier product states come from `separable_decomposition`.
    """
    if g.n % 2:
        raise SeparabilityError("tally-mark graph needs an even vertex count")
    q = g.n // 2
    if q < 2 or any(g.loops) or g.edges != tuple(sorted((c, q + (c + 1) % q) for c in range(q))):
        raise SeparabilityError("graph is not one increasing tally mark on two rows")
    return separable_decomposition(density_of_graph(g), BipartiteLabeling.default(2, q))[1]


# ---------------------------------------------------------------------------
# decompositions and their verification


def verify_separable_decomposition(rho: DensityMatrix, states: ProductStates,
                                   lab: BipartiteLabeling | None = None) -> bool:
    """True iff the weighted product mixture matches rho entrywise within
    RECONSTRUCTION_TOL.

    Product vectors live on cells; `lab` translates them to the vertex basis
    (omit it for the default labeling).  The K product vectors are the rows
    of V, so the mixture is one product V^T diag(w) conj(V) of the stacks.
    A non-unit factor, a negative weight or weights not summing to 1 raise.
    """
    if not states:
        return False
    for side in (states.left, states.right):
        if np.abs(np.linalg.norm(side, axis=1) - 1.0).max() > 1e-10:
            raise SeparabilityError("product-state factor is not unit norm")
    weights = states.weights.tolist()
    if min(weights) < 0:
        raise SeparabilityError("product-state weight must be nonnegative")
    total = sum(weights)
    if abs(total - 1.0) > 1e-10:
        raise SeparabilityError(f"weights sum to {total}, not 1")
    vecs = (states.left[:, :, None] * states.right[:, None, :]).reshape(len(weights), -1)
    mix = (vecs.T * states.weights) @ vecs.conj()
    if lab is not None:  # cell-basis mixture -> vertex basis
        mix = mix[np.ix_(lab.assign, lab.assign)]
    return bool(np.abs(mix - rho.mat.to_real()).max() <= RECONSTRUCTION_TOL)


def complete_graph_decomposition(n: int, p: int, q: int) -> ProductStates:
    """`separable_decomposition` of K_n under the default p x q labeling: its
    entangled edges pair into criss-crosses, 2-cycles.  Relabeling leaves
    K_n's state unchanged, so the decomposition holds under every labeling."""
    if n < 2:
        raise SeparabilityError("complete graph needs n >= 2")
    return separable_decomposition(density_of_graph(complete_graph(n)),
                                   BipartiteLabeling.default(p, q))[1]


def separable_decomposition(rho: DensityMatrix, lab: BipartiteLabeling):
    """(route, verified ProductStates, each of weight 1/m) when the graph
    state rho = L(G)/2m splits into product states under lab by directed
    cycles, else None.

    Edges within a row or a column are product states.  An entangled edge
    (r, a)-(s, b), r < s, is an arc a -> b of the row pair (r, s); where
    every column has as many arcs out as in, the arcs split into directed
    cycles, and each cycle is a tally mark (`_tally_states`).  At two rows
    that balance is the degree criterion, so every PPT state decomposes
    (Wu, Phys. Lett. A 351 (2006) 18); a p x 2 labeling is read transposed.
    The route names the family: "complete-graph", "product-edges" (no
    entangled edge), "criss-cross-matching" (two rows, the entangled edges
    covering each vertex once) or "directed-cycles".  For a two-row
    pe-matching the cycles are its column map's, the paper's tally marks,
    in any column order.  A state that is not a graph state, and a mixture
    that verify_separable_decomposition rejects, raise.
    """
    g = rho.origin
    if g is None:
        raise SeparabilityError("decompositions are built for graph states L(G)/2m only")
    if g.n != lab.n:
        raise SeparabilityError("labeling size does not match the graph")
    found = _cycle_factors(g.edges, lab.cells, lab.p, lab.q)
    if found is None and lab.q == 2:  # the transposed 2 x p pass, its factors swapped
        found = _cycle_factors(g.edges, [(t, s) for s, t in lab.cells], 2, lab.p)
        found = found and (found[1], found[0], found[2])
    if found is None:
        return None
    left, right, entangled = found
    ends = [v for edge in entangled for v in edge]
    route = ("complete-graph" if g.m == g.n * (g.n - 1) // 2
             else "product-edges" if not ends
             else "criss-cross-matching" if lab.p == 2 and len(ends) == g.n == len(set(ends))
             else "directed-cycles")
    states = ProductStates(left, right, np.full(len(left), 1.0 / g.m))
    if not verify_separable_decomposition(rho, states, lab):
        raise SeparabilityError(f"{route} decomposition failed to reconstruct")
    return route, states


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
    pt = HermitianMatrix(partial_transposes(projected.num, range(4), 2, 2)[0], den=projected.den)
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


@functools.cache
def coset_representatives(p: int, q: int) -> np.ndarray:
    """One cell assignment per coset of S_p x S_q, in lexicographic order.

    Relabeling the rows or the columns is a local permutation unitary, so
    it leaves the partial-transpose spectrum unchanged.  The group acts
    freely on the cells, so each of the n!/(p!q!) cosets holds p!q!
    assignments.  The one returned is its lexicographically smallest
    member: the assignment whose rows, and whose columns, first appear in
    increasing order along the vertices.  Returns a read-only (K, n) int8
    array, built one vertex at a time from every valid prefix.

    The array is cached per grid, which pays off only in a process that
    runs several exhaustive searches on one grid; a one-shot `search`
    builds it once either way.  `labeling_search` reaches it only for
    n <= 8, so the largest entry is 840 x 8 bytes; exhausting larger grids
    would need the cosets streamed in blocks, not cached.
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


def labeling_search(g: Graph, p: int, q: int, *, sample: int | None = None,
                    seed: int | None = None) -> LabelingCensus:
    """Census of PPT verdicts over vertex labelings of g.

    Every verdict is exact, from `ppt_verdicts`.  Exhaustive mode (n <= 8)
    evaluates one representative per coset of the row and column
    relabelings S_p x S_q, which leave the PT spectrum unchanged, and
    weights it by p!q!; counts refer to all n! labelings, and each witness
    is the lexicographically first labeling of its status.  For larger
    graphs pass `sample` to draw that many uniform labelings from
    default_rng(seed).  `certify_ppt_verdicts` checks each witness's
    verdict on its exact PT.
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
    if sample is not None and sample > MAX_SAMPLES:
        raise SeparabilityError(f"sample budget must be at most {MAX_SAMPLES}, got {sample}")
    if seed is not None and seed < 0:
        raise SeparabilityError(f"seed must be non-negative, got {seed}")
    lap = density_of_graph(g).mat.num  # the Laplacian; rejects an edgeless graph

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
    certify_ppt_verdicts(partial_transposes(lap, list(witnesses.values()), p, q),
                         [status != ENTANGLED_NPT for status in witnesses])
    return LabelingCensus(p, q, mode, total, counts, witnesses,
                          seed=None if sample is None else seed)
