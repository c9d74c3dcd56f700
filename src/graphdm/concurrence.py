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

from .density import DensityMatrix, density_of_graph
from .graphs import automorphisms, nonisomorphic_graphs
from .linalg import HermitianMatrix, psd_sqrt
from .separability import NPT_TOL, min_pt_eigenvalues, ppt_verdicts


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
    if rho.mat.exact_real:
        return rho.mat.conjugate_by(_SPIN_FLIP)
    flip = _SPIN_FLIP.astype(complex)
    return HermitianMatrix(flip @ rho.mat.to_complex().conj() @ flip, exact=False)


def concurrence(rho: DensityMatrix) -> ConcurrenceResult:
    """max{0, l1 - l2 - l3 - l4} from the square-root eigenvalues of rho rho~.

    The eigenvalues are computed on the similar symmetric matrix
    sqrt(rho) rho~ sqrt(rho), which must be PSD up to 1e-8 roundoff.
    """
    if rho.dim != 4:
        raise ConcurrenceError("concurrence is defined on two-qubit states")
    flipped = spin_flip(rho)
    root = psd_sqrt(rho.mat).to_complex()
    sym = root @ flipped.to_complex() @ root
    vals = np.linalg.eigvalsh((sym + sym.conj().T) / 2)
    if vals[0] < -1e-8:
        raise ConcurrenceError(f"spin-flip product has eigenvalue {vals[0]:g}")
    # floor roundoff before the square root: an eigenvalue that is exactly
    # zero lands at +-1e-16 numerically and sqrt would inflate it to 1e-8
    lams = tuple(sorted(
        (math.sqrt(v) if v > 1e-13 else 0.0 for v in vals), reverse=True))
    value = max(0.0, lams[0] - lams[1] - lams[2] - lams[3])
    return ConcurrenceResult(value, lams)


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
    float_disagreements: int = 0  # labelings the eigenvalues at tol call otherwise


def _distinct(values, tol=1e-9):
    out = []
    for v in sorted(values):
        if not out or v - out[-1] > tol:
            out.append(v)
    return tuple(out)


def four_vertex_census(tol: float = NPT_TOL) -> CensusReport:
    """PPT verdicts and concurrence values for every 4-vertex graph class.

    All 2^6 edge subsets are grouped into isomorphism classes; each class
    with at least one edge is examined under all 24 cell assignments, and
    the distinct concurrence values over its entangled labelings recorded.
    Verdicts are exact; `tol` only governs the eigenvalue cross-check.
    """
    reps = nonisomorphic_graphs(4)
    assigns = np.array(list(itertools.permutations(range(4))))
    total = len(assigns)
    rows = []
    class_id = 0
    off = 0
    for g in reps:
        if g.m == 0:
            continue
        class_id += 1
        sigma = density_of_graph(g).mat.to_complex().real
        aut_order = len(automorphisms(g))
        npt = ~ppt_verdicts(g.edges, assigns, 2, 2)
        off += int(((min_pt_eigenvalues(sigma, assigns, 2, 2) < -tol) != npt).sum())
        entangled = int(npt.sum())
        values = []
        for assign in assigns[npt]:
            pos = np.argsort(assign)  # vertex sitting at each cell
            cell_state = DensityMatrix(
                HermitianMatrix(sigma[np.ix_(pos, pos)], exact=False))
            values.append(concurrence(cell_state).value)
        rows.append(CensusRow(
            class_id=class_id,
            edges=tuple((u + 1, v + 1) for (u, v) in g.edges),
            edge_count=g.m,
            aut_order=aut_order,
            labeling_count=total,
            entangled_labelings=entangled,
            always_entangled=entangled == total,
            ever_entangled=entangled > 0,
            concurrence_values=_distinct(values),
        ))
    always = sum(1 for r in rows if r.always_entangled)
    ever = sum(1 for r in rows if r.ever_entangled)
    note = (f"{len(reps)} isomorphism classes exist on 4 vertices including the "
            f"empty graph ({len(rows)} with edges); {ever} classes are entangled "
            f"for at least one labeling and {always} for every labeling.")
    return CensusReport(tuple(rows), len(rows), len(reps), always, ever, note, off)


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
