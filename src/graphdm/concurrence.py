"""Wootters concurrence for two-qubit states and the exhaustive census of
4-vertex graph states.

The spin flip conjugates by sigma_y (x) sigma_y, which is a real matrix, so
graph states stay exact-rational through it; the concurrence eigenvalues are
taken from the symmetric product sqrt(rho) rho~ sqrt(rho).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .density import TRACE_TOL, DensityError, DensityMatrix
from .graphs import automorphisms, laplacian, nonisomorphic_graphs
from .linalg import PSD_TOL, HermitianMatrix, LinalgError
from .separability import certify_ppt_verdicts, partial_transposes, ppt_verdicts


class ConcurrenceError(ValueError):
    """Invalid concurrence computation."""


# sigma_y (x) sigma_y in the product basis; real because the i's cancel
_SPIN_FLIP = np.array([
    [0, 0, 0, -1],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [-1, 0, 0, 0],
], dtype=np.int64)


@dataclass(frozen=True)
class ConcurrenceResult:
    value: float
    lambdas: tuple[float, float, float, float]


def spin_flip(rho: DensityMatrix) -> HermitianMatrix:
    """(sigma_y x sigma_y) conj(rho) (sigma_y x sigma_y) for a 4x4 state."""
    if rho.dim != 4:
        raise ConcurrenceError("spin flip is defined on two-qubit states")
    return rho.mat.conjugate_by(_SPIN_FLIP)


def _check(bad: np.ndarray, error: type, message: str, values: np.ndarray) -> None:
    """Raise error for the first state flagged in bad, its value put in message."""
    if bad.any():
        k = int(np.argmax(bad))
        raise error(f"state {k} of the stack: " + message.format(values[k]))


def _hermitian(data: np.ndarray) -> np.ndarray:
    """Each layer checked Hermitian within 1e-10 relative, then symmetrized."""
    adj = data.conj().swapaxes(1, 2)
    scale = np.maximum(1.0, np.abs(data).max(axis=(1, 2)))
    asym = np.abs(data - adj).max(axis=(1, 2))
    _check(asym > 1e-10 * scale, LinalgError, "matrix is not Hermitian", asym)
    return (data + adj) / 2


def _psd_sqrts(data: np.ndarray) -> np.ndarray:
    """Principal square root of each PSD layer; a layer with no imaginary
    part is solved as real."""
    real = np.abs(data.imag).max(axis=(1, 2)) < 1e-300
    err, low = np.zeros(len(data)), np.zeros(len(data))
    roots = np.empty_like(data)
    for where, mats in ((np.flatnonzero(real), data.real), (np.flatnonzero(~real), data)):
        if not len(where):
            continue
        mat = mats[where]
        vals, vecs = np.linalg.eigh(mat)
        adj = vecs.conj().swapaxes(1, 2)
        err[where] = np.abs((vecs * vals[:, None, :]) @ adj - mat).max(axis=(1, 2))
        low[where] = vals[:, 0]
        roots[where] = (vecs * np.sqrt(np.clip(vals, 0.0, None))[:, None, :]) @ adj
    # eigensystem's reconstruction bound is 1e-10 * dim
    _check(err > 1e-10 * 4, LinalgError,
           "eigendecomposition failed to reconstruct (err={:g})", err)
    _check(low < -1e-10, LinalgError, "matrix is not PSD (eigenvalue {:g})", low)
    return _hermitian(roots)


def concurrences(states) -> tuple[np.ndarray, np.ndarray]:
    """Concurrence values and descending lambdas of a (K, 4, 4) stack of states.

    The stack may be real or complex.  Each layer is checked as a state
    (Hermitian within 1e-10 relative, then symmetrized; unit trace within
    TRACE_TOL; PSD within PSD_TOL) and gets the arithmetic of one
    concurrence: the lambdas are the square roots of the eigenvalues of the
    symmetric matrix sqrt(rho) rho~ sqrt(rho), which must be PSD up to 1e-8
    roundoff, and the value is max{0, l1 - l2 - l3 - l4}.  The stack goes
    through batched eigensolvers, which solve each layer as a lone call
    would.  A failing layer raises the error a lone state would, naming its
    index.
    """
    data = np.asarray(states, dtype=complex)
    if data.ndim != 3 or data.shape[1:] != (4, 4):
        raise ConcurrenceError("concurrence is defined on two-qubit states")
    data = _hermitian(data)
    tr = np.trace(data, axis1=1, axis2=2)
    _check(np.abs(tr - 1) > TRACE_TOL, DensityError, "trace is {}, not 1", tr)
    low = np.linalg.eigvalsh(data)[:, 0]
    _check(low < -PSD_TOL, DensityError, "matrix is not PSD (eigenvalue {:g})", low)
    flip = _SPIN_FLIP.astype(complex)
    flipped = _hermitian(flip @ data.conj() @ flip)
    root = _psd_sqrts(data)
    sym = root @ flipped @ root
    vals = np.linalg.eigvalsh((sym + sym.conj().swapaxes(1, 2)) / 2)
    _check(vals[:, 0] < -1e-8, ConcurrenceError,
           "spin-flip product has eigenvalue {:g}", vals[:, 0])
    # floor roundoff before the square root: an eigenvalue that is exactly
    # zero lands at +-1e-16 numerically and sqrt would inflate it to 1e-8
    lams = np.sqrt(np.where(vals > 1e-13, vals, 0.0))[:, ::-1]
    value = lams[:, 0] - lams[:, 1] - lams[:, 2] - lams[:, 3]
    return np.where(value > 0.0, value, 0.0), lams


def concurrence(rho: DensityMatrix) -> ConcurrenceResult:
    """max{0, l1 - l2 - l3 - l4} from the square-root eigenvalues of rho rho~.

    The one-state case of `concurrences`.
    """
    values, lams = concurrences(rho.to_real()[None])
    return ConcurrenceResult(float(values[0]), tuple(lams[0].tolist()))


def pure_state_concurrence(psi) -> float:
    """sqrt(2 (1 - tr(rho_A^2))) for a unit vector in the 2x2 product basis."""
    vec = np.asarray(psi, dtype=complex).reshape(-1)
    if vec.shape[0] != 4:
        raise ConcurrenceError("state must live in the 2x2 product space")
    if abs(np.linalg.norm(vec) - 1.0) > 1e-10:
        raise ConcurrenceError("state vector is not unit norm")
    block = vec.reshape(2, 2)
    rho_a = block @ block.conj().T
    pur = float(np.trace(rho_a @ rho_a).real)
    return math.sqrt(max(0.0, 2.0 * (1.0 - pur)))


# ---------------------------------------------------------------------------
# 4-vertex census


@dataclass(frozen=True)
class CensusRow:
    class_id: int
    edges: tuple[tuple[int, int], ...]  # 1-based representative edge list
    edge_count: int
    aut_order: int
    labeling_count: int
    entangled_labelings: int
    always_entangled: bool
    ever_entangled: bool
    concurrence_values: tuple[float, ...]


@dataclass(frozen=True)
class CensusReport:
    rows: tuple[CensusRow, ...]
    class_count_with_edges: int
    class_count_total: int
    always_entangled_count: int
    ever_entangled_count: int
    note: str


def _distinct(values, tol=1e-9):
    out = []
    for v in sorted(values):
        if not out or v - out[-1] > tol:
            out.append(v)
    return tuple(out)


def four_vertex_census() -> CensusReport:
    """PPT verdicts and concurrence values for every 4-vertex graph class.

    All 2^6 edge subsets are grouped into isomorphism classes; each class
    with at least one edge is examined under all 24 cell assignments, and
    the distinct concurrence values over its entangled labelings recorded.
    Verdicts are exact, from `ppt_verdicts`, and `certify_ppt_verdicts`
    checks all of them on the partial transposes of the Laplacians.
    """
    reps = nonisomorphic_graphs(4)
    graphs = [g for g in reps if g.m]
    assigns = np.array(list(itertools.permutations(range(4))))
    total = len(assigns)
    laps = np.stack([laplacian(g) for g in graphs])
    sigmas = laps / np.array([2 * g.m for g in graphs])[:, None, None]  # L(G)/2m
    npt = ~np.array([ppt_verdicts(g.edges, assigns, 2, 2) for g in graphs])
    pts = partial_transposes(laps.repeat(total, axis=0), np.tile(assigns, (len(graphs), 1)), 2, 2)
    certify_ppt_verdicts(pts, ~npt.ravel())
    # every NPT labeling's state in the cell basis, as one stack
    cls, lab = np.nonzero(npt)
    pos = np.argsort(assigns, axis=1)[lab]  # vertex sitting at each cell
    values, _ = concurrences(sigmas[cls[:, None, None], pos[:, :, None], pos[:, None, :]])
    counts = npt.sum(axis=1).tolist()
    per_class = np.split(values, np.cumsum(counts)[:-1])
    rows = [CensusRow(
        class_id=class_id,
        edges=tuple((u + 1, v + 1) for (u, v) in g.edges),
        edge_count=g.m,
        aut_order=len(automorphisms(g)),
        labeling_count=total,
        entangled_labelings=entangled,
        always_entangled=entangled == total,
        ever_entangled=entangled > 0,
        concurrence_values=_distinct(vals.tolist()),
    ) for class_id, (g, entangled, vals) in enumerate(zip(graphs, counts, per_class), 1)]
    always = sum(1 for r in rows if r.always_entangled)
    ever = sum(1 for r in rows if r.ever_entangled)
    note = (f"{len(reps)} isomorphism classes exist on 4 vertices including the "
            f"empty graph ({len(rows)} with edges); {ever} classes are entangled "
            f"for at least one labeling and {always} for every labeling.")
    return CensusReport(tuple(rows), len(rows), len(reps), always, ever, note)


def census_to_json_dict(report: CensusReport) -> dict:
    return {
        "classes": [
            {
                "class_id": r.class_id,
                "edges": [list(e) for e in r.edges],
                "edge_count": r.edge_count,
                "aut_order": r.aut_order,
                "labelings": r.labeling_count,
                "entangled_labelings": r.entangled_labelings,
                "always_entangled": r.always_entangled,
                "ever_entangled": r.ever_entangled,
                "concurrence_values": list(r.concurrence_values),
            }
            for r in report.rows
        ],
        "class_count_total": report.class_count_total,
        "class_count_with_edges": report.class_count_with_edges,
        "always_entangled_count": report.always_entangled_count,
        "ever_entangled_count": report.ever_entangled_count,
        "note": report.note,
    }


def census_to_csv_rows(report: CensusReport) -> list[list]:
    header = ["class_id", "edges", "edge_count", "aut_order",
              "entangled_labelings", "always_entangled", "ever_entangled",
              "concurrence_values"]
    out = [header]
    for r in report.rows:
        out.append([
            r.class_id,
            " ".join(f"{u}-{v}" for (u, v) in r.edges),
            r.edge_count,
            r.aut_order,
            r.entangled_labelings,
            int(r.always_entangled),
            int(r.ever_entangled),
            ";".join(f"{v:.9f}" for v in r.concurrence_values),
        ])
    return out
