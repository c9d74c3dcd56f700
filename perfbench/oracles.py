"""Independent checks of graphdm's JSON output.

Every expected value is recomputed here with numpy from the job's own
inputs (edge lists, labelings, edit scripts); nothing is taken from
graphdm.  `check(job, out)` returns None when the output is right and a
one-line reason otherwise.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import eigvals, eigvalsh

TOL = 1e-9
# below this distance from -TOL the float verdict may go either way
BOUNDARY = 1e-12
PPT_CERTIFIES = {(2, 2), (2, 3), (3, 2)}


def state(n: int, edges) -> np.ndarray:
    """Laplacian over twice the edge count."""
    rho = np.zeros((n, n))
    for u, v in edges:
        rho[u, u] += 1
        rho[v, v] += 1
        rho[u, v] -= 1
        rho[v, u] -= 1
    return rho / (2 * len(edges))


def pt_spectrum(rho: np.ndarray, cells, p: int, q: int) -> np.ndarray:
    """Spectrum of the partial transpose on the second factor.

    Vertex v sits at flat cell cells[v] = s * q + t; the partial transpose
    swaps the column labels of the two vertices of every entry.
    """
    n = p * q
    at = np.empty(n, dtype=int)
    at[np.asarray(cells)] = np.arange(n)
    s, t = np.divmod(np.arange(n), q)
    # entry ((s, t), (s', t')) of the transpose is entry ((s, t'), (s', t))
    rows = at[s[:, None] * q + t[None, :]]
    cols = at[s[None, :] * q + t[:, None]]
    return eigvalsh(rho[rows, cols])


def expected_status(low: float, p: int, q: int):
    """Statuses the PPT test may give for smallest PT eigenvalue `low`."""
    ppt = "SEPARABLE" if (p, q) in PPT_CERTIFIES else "PPT_INCONCLUSIVE"
    if abs(low + TOL) <= BOUNDARY:
        return {"ENTANGLED_NPT", ppt}
    return {"ENTANGLED_NPT"} if low < -TOL else {ppt}


def entropy(values) -> float:
    return -sum(x * math.log2(x) for x in values if x > 1e-12)


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence from the eigenvalues of rho (Y x Y) rho* (Y x Y)."""
    flip = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))
    lams = np.sqrt(np.clip(np.sort(eigvals(rho @ flip @ rho.conj() @ flip).real)[::-1], 0, None))
    return max(0.0, lams[0] - lams[1] - lams[2] - lams[3])


def _close(a, b, tol) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))


def _summary(out, n, edges):
    if out["n"] != n or out["m"] != len(edges):
        return f"graph is {out['n']} vertices/{out['m']} edges, want {n}/{len(edges)}"
    if out["edges"] != [[u + 1, v + 1] for u, v in edges]:
        return "edge list differs from the input"
    return None


# ---------------------------------------------------------------------------
# per command


def _check_search(e, out):
    n, p, q = e["n"], e["p"], e["q"]
    total = math.factorial(n) if e["budget"] is None else e["budget"]
    mode = "exhaustive" if e["budget"] is None else "sampled"
    if (out["p"], out["q"], out["mode"], out["total"]) != (p, q, mode, total):
        return f"header {out['p']}x{out['q']} {out['mode']} {out['total']}"
    if sum(out["counts"].values()) != total:
        return f"counts sum to {sum(out['counts'].values())}, not {total}"
    rho = state(n, e["edges"])
    for status, cells in out["witnesses"].items():
        if out["counts"].get(status, 0) < 1:
            return f"witness for {status} has no count"
        if sorted(cells) != list(range(n)):
            return f"{status} witness is not a labeling"
        low = pt_spectrum(rho, cells, p, q)[0]
        if status not in expected_status(low, p, q):
            return f"{status} witness has min PT eigenvalue {low:g}"
    if set(out["witnesses"]) != {k for k, v in out["counts"].items() if v}:
        return "a counted verdict has no witness"
    return None


def _check_probe(e, out):
    parts = [out["single_entangled_edge"], out["entangled_edges_at_one_vertex"]]
    if out["mode"] != "sampled" or out["budget"] != e["budget"]:
        return "probe mode or budget differs"
    if sum(part["instances"] for part in parts) != e["budget"]:
        return "probe instances do not sum to the budget"
    for part in parts:
        if sum(part["verdicts"].values()) != part["instances"]:
            return "probe verdicts do not sum to the instances"
        for c in part["counterexamples"]:
            edges = [(u - 1, v - 1) for u, v in c["edges"]]
            low = pt_spectrum(state(e["p"] * e["q"], edges),
                              range(e["p"] * e["q"]), e["p"], e["q"])[0]
            if low < -TOL - BOUNDARY:
                return f"counterexample is NPT (min PT eigenvalue {low:g})"
    return None


def _check_census4(e, out):
    classes = out["classes"]
    if len(classes) != 10:
        return f"{len(classes)} classes, want 10"
    if any(c["labelings"] != 24 for c in classes):
        return "a class has other than 24 labelings"
    ever = sum(c["ever_entangled"] for c in classes)
    always = sum(c["always_entangled"] for c in classes)
    if (ever, always) != (7, 2) or (out["ever_entangled_count"],
                                    out["always_entangled_count"]) != (7, 2):
        return f"{ever} ever / {always} always entangled, want 7 / 2"
    return None


def _check_spectrum(e, spectrum, value, purity):
    rho = state(e["n"], e["edges"])
    want = eigvalsh(rho)
    if not _close(spectrum, want, 1e-9):
        return "spectrum differs from eigvalsh(L/2m)"
    if abs(value - entropy(want)) > 1e-9:
        return f"entropy {value} differs from {entropy(want)}"
    if abs(purity - float(np.trace(rho @ rho))) > 1e-12:
        return "purity differs from tr(rho^2)"
    return None


def _check_analyze(e, out):
    n, p, q, cells = e["n"], e["p"], e["q"], e["cells"]
    bad = (_summary(out["graph"], n, e["edges"])
           or _check_spectrum(e, out["spectrum"], out["entropy"]["von_neumann"],
                              out["entropy"]["purity"]))
    if bad:
        return bad
    if out["labeling"]["cells"] != [list(divmod(c, q)) for c in cells]:
        return "labeling differs from --labeling"
    cross = [[u + 1, v + 1] for u, v in e["edges"]
             if cells[u] // q != cells[v] // q and cells[u] % q != cells[v] % q]
    if out["entangled_edges"] != cross:
        return "entangled edges differ"
    rho = state(n, e["edges"])
    pt = pt_spectrum(rho, cells, p, q)
    verdict = out["verdict"]
    if not _close(sorted(out["pt_spectrum"]), pt, 1e-9):
        return "PT spectrum differs"
    if abs(verdict["min_pt_eigenvalue"] - pt[0]) > 1e-9:
        return "min PT eigenvalue differs"
    if verdict["ppt_status"] not in expected_status(pt[0], p, q):
        return f"{verdict['ppt_status']} with min PT eigenvalue {pt[0]:g}"
    dec = out["decomposition"]
    want_route = {"complete": "complete-graph",
                  "matching": "criss-cross-matching"}.get(e["family"])
    if want_route and (dec is None or dec["route"] != want_route):
        return f"no {want_route} decomposition"
    if dec is None:
        if verdict["status"] != verdict["ppt_status"]:
            return "status differs from the PPT status without a decomposition"
    else:
        if verdict["status"] != "SEPARABLE" or dec["terms"] != len(dec["states"]):
            return "decomposition without a SEPARABLE status"
        if not _reconstructs(rho, dec["states"], cells, p, q):
            return "decomposition does not reconstruct the state"
    conc = out["concurrence"]
    if (p, q) == (2, 2):
        at = np.empty(n, dtype=int)
        at[np.asarray(cells)] = np.arange(n)
        want = concurrence(rho[np.ix_(at, at)])
        if conc is None or abs(conc - want) > 1e-6:
            return f"concurrence {conc} differs from {want}"
    elif conc is not None:
        return "concurrence reported off 2x2"
    return None


def _reconstructs(rho, states, cells, p, q) -> bool:
    mix = np.zeros((p * q, p * q), dtype=complex)
    for st in states:
        left = np.array([complex(*z) for z in st["left"]])
        right = np.array([complex(*z) for z in st["right"]])
        vec = np.kron(left, right)
        mix += st["weight"] * np.outer(vec, vec.conj())
    cells = np.asarray(cells)
    return bool(np.abs(mix[np.ix_(cells, cells)] - rho).max() <= 1e-9)


def _check_entropy(e, out):
    bad = (_summary(out["graph"], e["n"], e["edges"])
           or _check_spectrum(e, out["spectrum"], out["entropy"], out["purity"]))
    if bad:
        return bad
    if sum(c for _, c in out["multiplicities"]) != e["n"]:
        return "multiplicities do not cover the spectrum"
    if e["order"] is not None:
        want = sum(x ** e["order"] for x in out["spectrum"] if x > 0) ** (1 / e["order"])
        if abs(out["q_entropy"]["value"] - want) > 1e-9:
            return "q-entropy differs"
    return None


def _probabilities(rho, edge, n):
    i, j = edge
    out = []
    for name, sign in (("plus", 1.0), ("minus", -1.0)):
        x = np.zeros(n)
        x[i], x[j] = 1 / math.sqrt(2), sign / math.sqrt(2)
        out.append((f"{name}({i + 1}-{j + 1})", float(x @ rho @ x)))
    out += [(f"vertex({k + 1})", rho[k, k]) for k in range(n) if k not in (i, j)]
    return out


def _check_channel(e, out):
    bad = _summary(out["start"], e["n"], e["edges"])
    if bad:
        return bad
    if len(out["steps"]) != len(e["steps"]):
        return f"{len(out['steps'])} steps, want {len(e['steps'])}"
    n, edges = e["n"], e["edges"]
    for got, want in zip(out["steps"], e["steps"]):
        if got["max_error_vs_graph_state"] > 1e-8:
            return f"{got['edit']}: error {got['max_error_vs_graph_state']:g}"
        if abs(got["trace"] - 1) > 1e-12:
            return f"{got['edit']}: trace {got['trace']!r}"
        bad = _summary(got["graph"], want["n"], want["edges"])
        if bad:
            return f"{got['edit']}: {bad}"
        if not _close(got["state"], state(want["n"], want["edges"]), 1e-8):
            return f"{got['edit']}: state differs from L/2m of the edited graph"
        kind = got["edit"].split()[0]
        if kind in ("del-edge", "add-edge"):
            u, v = sorted(int(x) - 1 for x in got["edit"].split()[1:])
            want_p = _probabilities(state(n, edges), (u, v), n)
            names = [o["projector"] for o in got["probabilities"]]
            probs = [o["probability"] for o in got["probabilities"]]
            if names != [w[0] for w in want_p] or not _close(probs, [w[1] for w in want_p], 1e-9):
                return f"{got['edit']}: outcome probabilities differ"
        elif abs(got["click_probability"] - 1) > 1e-9:
            return f"{got['edit']}: click probability {got['click_probability']!r}"
        n, edges = want["n"], want["edges"]
    return None


_CHECKS = {"search": _check_search, "probe": _check_probe,
           "census4": _check_census4, "analyze": _check_analyze,
           "entropy": _check_entropy, "channel": _check_channel}


def check(job, out) -> str | None:
    """None when the parsed JSON `out` is right for `job`, else why not."""
    try:
        return _CHECKS[job["kind"]](job["expect"], out)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
