"""Command-line surface for graph-state analysis.

Subcommands: analyze, census4, channel, search, probe, entropy.  Output is
human-readable by default; --json switches to a machine format that is
byte-identical across runs for identical inputs and flags (sorted keys,
fixed seeds, deterministic solvers).  Exit codes: 0 success, 2 precondition
failure (bad input, parse error, illegal edit), 1 internal error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np

from .channels import (
    ChannelError,
    add_vertex_report,
    delete_vertex_report,
    edge_addition_channel,
    edge_deletion_channel,
    measurement_probabilities,
)
from .concurrence import (
    ConcurrenceError,
    census_to_csv_rows,
    census_to_json_dict,
    concurrence,
    four_vertex_census,
)
from .density import DensityError, DensityMatrix, density_of_graph, laplacian_states, purity
from .entropy import EntropyError, q_entropy, von_neumann_entropy
from .graphs import (
    Graph,
    GraphError,
    ParseError,
    add_edge,
    add_isolated_vertex,
    component_count,
    delete_edge,
    delete_vertex,
    parse_graph,
)
from .linalg import HermitianMatrix, LinalgError, eigensystem
from .separability import (
    ENTANGLED_NPT,
    NPT_TOL,
    PPT_INCONCLUSIVE,
    SEPARABLE,
    BipartiteLabeling,
    SeparabilityError,
    _min_eig_for_assignment,  # noqa: F401 - perfbench's tracer test rebinds it here
    complete_graph_decomposition,
    entangled_edges,
    labeling_search,
    min_pt_eigenvalues,
    partial_transpose,
    pe_matching_separability,
    ppt_test,
    verdict_status,
    verify_separable_decomposition,
)

_PRECONDITION_ERRORS = (
    ParseError, GraphError, DensityError, EntropyError, SeparabilityError,
    ChannelError, ConcurrenceError, LinalgError, FileNotFoundError,
    IsADirectoryError, PermissionError, UnicodeDecodeError,
)

# probe instances per stacked eigensolve: bounds the memory of one stack
_PROBE_BLOCK = 1024


# ---------------------------------------------------------------------------
# shared helpers


def _load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _print_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _graph_summary(g: Graph) -> dict:
    return {
        "n": g.n,
        "m": g.m,
        "edges": [[u + 1, v + 1] for (u, v) in g.edges],
        "degrees": list(g.degrees()),
        "components": component_count(g),
    }


def _complex_list(vec) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(vec, dtype=complex)]


def _states_payload(states) -> list:
    return [
        {"weight": float(s.weight),
         "left": _complex_list(s.left),
         "right": _complex_list(s.right)}
        for s in states
    ]


def _parse_labeling(spec: str, p: int, q: int, n: int) -> BipartiteLabeling:
    """Parse 'v=s.t' tokens, comma separated; v is 1-based, s and t 0-based."""
    cells: list = [None] * n
    try:
        for token in spec.split(","):
            left, right = token.strip().split("=")
            v = int(left) - 1
            s_str, t_str = right.split(".")
            if not 0 <= v < n:
                raise SeparabilityError(f"vertex {v + 1} out of range in labeling")
            if cells[v] is not None:
                raise SeparabilityError(f"vertex {v + 1} labeled twice")
            cells[v] = (int(s_str), int(t_str))
    except (ValueError, IndexError) as exc:
        raise SeparabilityError(
            f"bad labeling {spec!r}; expected comma-separated v=s.t tokens") from exc
    if any(c is None for c in cells):
        raise SeparabilityError("labeling must cover every vertex")
    return BipartiteLabeling(p, q, tuple(cells))


def _labeling_cells(lab: BipartiteLabeling) -> list:
    return [list(c) for c in lab.cells]


def _require_dims(args, n: int) -> tuple[int, int]:
    p, q = args.p, args.q
    if p is None or q is None:
        raise SeparabilityError("this command needs --p and --q")
    if p < 2 or q < 2:
        raise SeparabilityError("both parts need dimension at least 2")
    if p * q != n:
        raise SeparabilityError(f"p*q = {p * q} does not match the {n} vertices")
    return p, q


def _try_decomposition(g: Graph, lab: BipartiteLabeling, rho: DensityMatrix):
    """Explicit separable decomposition when a constructive route applies.

    Complete graphs decompose for any labeling; with a 2-row labeling the
    entangled edges may form a decomposable criss-cross matching.
    """
    if not any(g.loops) and g.m == g.n * (g.n - 1) // 2:
        states = complete_graph_decomposition(g.n, lab.p, lab.q)
        if not verify_separable_decomposition(rho, states, lab=lab):
            raise SeparabilityError(
                "complete-graph decomposition does not reconstruct the state "
                "under this labeling")
        return "complete-graph", states
    if lab.p == 2:
        try:
            _, states = pe_matching_separability(g, lab)
            return "criss-cross-matching", states
        except SeparabilityError:
            return None
    return None


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> None:
    g = _load_graph(args.graph)
    p, q = _require_dims(args, g.n)
    lab = (_parse_labeling(args.labeling, p, q, g.n) if args.labeling
           else BipartiteLabeling.default(p, q))
    rho = density_of_graph(g)
    ent = von_neumann_entropy(rho)
    verdict = ppt_test(rho, lab, tol=args.tol)
    pt = partial_transpose(rho, lab)
    pt_spectrum = [float(v) for v in eigensystem(pt).eigenvalues]
    edges_cross = entangled_edges(g, lab)

    status = verdict.status
    decomposition = None
    route = None
    if status != ENTANGLED_NPT:
        found = _try_decomposition(g, lab, rho)
        if found is not None:
            route, states = found
            decomposition = states
            status = SEPARABLE

    conc = None
    if (p, q) == (2, 2):
        pos = [0] * 4
        for v in range(4):
            pos[lab.flat(v)] = v
        cell_mat = rho.mat.to_complex()[np.ix_(pos, pos)]
        conc = concurrence(DensityMatrix(HermitianMatrix(cell_mat, exact=False))).value

    payload = {
        "graph": _graph_summary(g),
        "entropy": {
            "von_neumann": ent.entropy,
            "max_for_dimension": ent.bound_max,
            "purity": float(purity(rho)),
        },
        "spectrum": [float(v) for v in ent.spectrum.eigenvalues],
        "labeling": {"p": p, "q": q, "cells": _labeling_cells(lab)},
        "entangled_edges": [[u + 1, v + 1] for (u, v) in edges_cross],
        "verdict": {
            "status": status,
            "ppt_status": verdict.status,
            "min_pt_eigenvalue": verdict.min_pt_eigenvalue,
            "p": p,
            "q": q,
        },
        "pt_spectrum": pt_spectrum,
        "concurrence": conc,
        "decomposition": None if decomposition is None else {
            "route": route,
            "terms": len(decomposition),
            "states": _states_payload(decomposition),
        },
    }
    if args.json:
        _print_json(payload)
        return
    gs = payload["graph"]
    print(f"graph: {gs['n']} vertices, {gs['m']} edges, "
          f"{gs['components']} component(s)")
    print("edges:", " ".join(f"{u}-{v}" for u, v in gs["edges"]) or "(none)")
    print(f"entropy: {_fmt(ent.entropy)}  "
          f"(max for dimension: {_fmt(ent.bound_max)})")
    print("spectrum:", " ".join(_fmt(v) for v in payload["spectrum"]))
    print(f"labeling: {p}x{q}",
          " ".join(f"{v + 1}={s}.{t}" for v, (s, t) in enumerate(lab.cells)))
    print("entangled edges:",
          " ".join(f"{u}-{v}" for u, v in payload["entangled_edges"]) or "(none)")
    print(f"verdict: {status}  (min PT eigenvalue {_fmt(verdict.min_pt_eigenvalue)})")
    if conc is not None:
        print(f"concurrence: {_fmt(conc)}")
    if decomposition is not None:
        print(f"decomposition: {len(decomposition)} product states via {route}")


# ---------------------------------------------------------------------------
# census4


def cmd_census4(args) -> None:
    report = four_vertex_census(tol=args.tol)
    if args.csv:
        rows = census_to_csv_rows(report)
        text = "\n".join(",".join(str(c) for c in row) for row in rows) + "\n"
        if args.csv == "-":
            sys.stdout.write(text)
        else:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(text)
        if args.csv != "-":
            print(f"wrote {args.csv}")
        return
    if args.json:
        _print_json(census_to_json_dict(report))
        return
    print(f"{'id':>3} {'edges':<30} {'|Aut|':>5} {'entangled':>10} "
          f"{'always':>7}  values")
    for r in report.rows:
        edges = " ".join(f"{u}-{v}" for u, v in r.edges)
        vals = " ".join(_fmt(v) for v in r.concurrence_values) or "-"
        print(f"{r.class_id:>3} {edges:<30} {r.aut_order:>5} "
              f"{r.entangled_labelings:>6}/{r.labeling_count:<3} "
              f"{str(r.always_entangled):>7}  {vals}")
    print(report.note)


# ---------------------------------------------------------------------------
# channel


def _parse_edit(token: str):
    parts = token.split()
    if not parts:
        raise ChannelError("empty edit")
    kind = parts[0]
    if kind in ("del-edge", "add-edge"):
        if len(parts) != 3:
            raise ChannelError(f"'{kind}' needs two vertex numbers")
        try:
            u, v = int(parts[1]) - 1, int(parts[2]) - 1
        except ValueError as exc:
            raise ChannelError(f"bad vertex number in {token!r}") from exc
        return (kind, u, v)
    if kind == "del-vertex":
        if len(parts) != 2:
            raise ChannelError("'del-vertex' needs one vertex number")
        try:
            return (kind, int(parts[1]) - 1)
        except ValueError as exc:
            raise ChannelError(f"bad vertex number in {token!r}") from exc
    if kind == "add-vertex":
        if len(parts) != 1:
            raise ChannelError("'add-vertex' takes no arguments")
        return (kind,)
    raise ChannelError(f"unknown edit {kind!r}")


def _edit_text(edit) -> str:
    """An edit as typed: its kind and 1-based vertex numbers."""
    return " ".join(str(x + 1) if isinstance(x, int) else x for x in edit)


def _check_edit(g: Graph, edit) -> None:
    """Reject an edit that does not fit g, naming its vertices 1-based."""
    kind, *verts = edit
    text = _edit_text(edit)
    for x in verts:
        if not 0 <= x < g.n:
            raise ChannelError(f"{text!r}: vertex {x + 1} out of range 1..{g.n}")
    if kind in ("del-edge", "add-edge"):
        u, v = verts
        if u == v:
            raise ChannelError(f"{text!r}: an edge needs two distinct vertices")
        if kind == "del-edge" and not g.has_edge(u, v):
            raise ChannelError(f"{text!r}: edge {u + 1}-{v + 1} is not in the graph")
        if kind == "add-edge" and g.has_edge(u, v):
            raise ChannelError(f"{text!r}: edge {u + 1}-{v + 1} is already in the graph")


def _operator_payload(ch) -> list:
    return [[[ [float(z.real), float(z.imag)] for z in row] for row in op]
            for op in ch.operators]


def cmd_channel(args) -> None:
    g = _load_graph(args.graph)
    edits = list(args.edits)
    if args.script:
        with open(args.script, "r", encoding="utf-8") as fh:
            edits.extend(line.strip() for line in fh
                         if line.strip() and not line.strip().startswith("#"))
    if not edits:
        raise ChannelError("no edits given (positional edits or --script)")
    parsed = [_parse_edit(tok) for tok in edits]

    cur = g
    state = laplacian_states(g.n, [g.edges])[0]
    steps = []
    for edit in parsed:
        _check_edit(cur, edit)
        kind = edit[0]
        record = {"edit": _edit_text(edit)}
        if kind in ("del-edge", "add-edge"):
            _, u, v = edit
            if kind == "del-edge":
                ch, nxt = edge_deletion_channel(cur, (u, v)), delete_edge(cur, u, v)
            else:
                ch, nxt = edge_addition_channel(cur, (u, v)), add_edge(cur, u, v)
            record["probabilities"] = [
                {"projector": o.projector, "probability": o.probability}
                for o in measurement_probabilities(cur, (u, v))]
            state = ch.apply(state)
            cur = nxt
            if args.dump_operators:
                record["operators"] = _operator_payload(ch)
        elif kind == "del-vertex":
            _, v = edit
            rep = delete_vertex_report(cur, v)
            state = rep.state.mat.to_complex().real
            cur = delete_vertex(cur, v)
            record["click_probability"] = rep.click_probability
        else:  # add-vertex
            rep = add_vertex_report(cur)
            state = rep.state.mat.to_complex().real
            cur = add_isolated_vertex(cur)
            record["click_probability"] = rep.click_probability

        err = float(np.max(np.abs(state - laplacian_states(cur.n, [cur.edges])[0])))
        if err > 1e-8:
            raise ChannelError(
                f"state after {record['edit']!r} missed the graph state by {err:g}")
        record["graph"] = _graph_summary(cur)
        record["trace"] = float(state.trace())
        record["max_error_vs_graph_state"] = err
        if args.json:
            record["state"] = [[float(z) for z in row] for row in state]
        steps.append(record)

    payload = {"start": _graph_summary(g), "steps": steps}
    if args.json:
        _print_json(payload)
        return
    print(f"start: {g.n} vertices, {g.m} edges")
    for rec in steps:
        gs = rec["graph"]
        extra = ""
        if "click_probability" in rec:
            extra = f"  click probability {_fmt(rec['click_probability'])}"
        print(f"{rec['edit']}: -> {gs['n']} vertices, {gs['m']} edges, "
              f"trace {_fmt(rec['trace'])}, "
              f"error {rec['max_error_vs_graph_state']:.2e}{extra}")
        if "probabilities" in rec:
            line = "  ".join(f"{o['projector']}={_fmt(o['probability'])}"
                             for o in rec["probabilities"])
            print(f"  outcome probabilities: {line}")


# ---------------------------------------------------------------------------
# search


def cmd_search(args) -> None:
    g = _load_graph(args.graph)
    p, q = _require_dims(args, g.n)
    census = labeling_search(g, p, q, tol=args.tol, sample=args.budget,
                             seed=args.seed, workers=args.workers)
    payload = {
        "p": p,
        "q": q,
        "mode": census.mode,
        "total": census.total,
        "counts": dict(sorted(census.counts.items())),
        "witnesses": {status: list(assign)
                      for status, assign in sorted(census.witnesses.items())},
        "seed": census.seed,
    }
    if not any(g.loops) and g.m == g.n * (g.n - 1) // 2:
        complete_graph_decomposition(g.n, p, q)  # raises if it would not verify
        certified = dict(payload["counts"])
        moved = certified.pop(PPT_INCONCLUSIVE, 0)
        certified[SEPARABLE] = certified.get(SEPARABLE, 0) + moved
        payload["certified_counts"] = dict(sorted(certified.items()))
        payload["note"] = (
            "complete graph: an explicit product-state decomposition exists "
            "for every labeling, so PPT_INCONCLUSIVE labelings are certified "
            "SEPARABLE")
    if args.json:
        _print_json(payload)
        return
    print(f"labelings as {p}x{q} ({census.mode}, total {census.total}"
          + (f", seed {census.seed}" if census.seed is not None else "") + ")")
    for status, count in sorted(census.counts.items()):
        wit = census.witnesses.get(status)
        wtxt = ("  witness: "
                + ",".join(f"{v + 1}={a // q}.{a % q}" for v, a in enumerate(wit))
                if wit else "")
        print(f"  {status:>17}: {count}{wtxt}")
    if "note" in payload:
        print(payload["note"])
        print("certified counts:",
              " ".join(f"{k}={v}" for k, v in sorted(payload["certified_counts"].items())))


# ---------------------------------------------------------------------------
# probe


def _probe_classify(ent_idx_edges):
    """'single' / 'concentrated' / None for a nonempty entangled edge set."""
    if len(ent_idx_edges) == 1:
        return "single"
    common = set(ent_idx_edges[0])
    for e in ent_idx_edges[1:]:
        common &= set(e)
    return "concentrated" if common else None


def cmd_probe(args) -> None:
    p, q = args.p, args.q
    if p is None or q is None:
        raise SeparabilityError("probe needs --p and --q")
    if p < 2 or q < 2:
        raise SeparabilityError("both parts need dimension at least 2")
    n = p * q
    if args.max_n > 8:
        raise SeparabilityError("probe is limited to max-n <= 8")
    if n > args.max_n:
        raise SeparabilityError(f"p*q = {n} exceeds max-n = {args.max_n}")
    pairs = list(itertools.combinations(range(n), 2))
    cells = [divmod(v, q) for v in range(n)]
    ent_pairs = [idx for idx, (u, v) in enumerate(pairs)
                 if cells[u][0] != cells[v][0] and cells[u][1] != cells[v][1]]
    ent_set = set(ent_pairs)
    plain_pairs = [i for i in range(len(pairs)) if i not in ent_set]

    tallies = {"single": {}, "concentrated": {}}
    counters = {"single": [], "concentrated": []}
    instances = {"single": 0, "concentrated": 0}

    exhaustive = len(pairs) <= 16
    mode = "exhaustive" if exhaustive else "sampled"

    def generate():
        """(part, edge list) per instance, in mask order or draw order."""
        if exhaustive:
            for mask in range(1, 1 << len(pairs)):
                chosen_ent = [i for i in ent_pairs if (mask >> i) & 1]
                if not chosen_ent:
                    continue
                part = _probe_classify([pairs[i] for i in chosen_ent])
                if part is None:
                    continue
                yield part, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
            return
        rng = np.random.default_rng(args.seed)
        budget = args.budget or 20000
        per_vertex_ent = {v: [i for i in ent_pairs if v in pairs[i]]
                          for v in range(n)}
        for _ in range(budget):
            extras = [plain_pairs[i] for i in range(len(plain_pairs))
                      if rng.integers(0, 2)]
            if rng.integers(0, 2):  # single part
                pick = [ent_pairs[rng.integers(0, len(ent_pairs))]]
            else:  # concentrated part
                v = int(rng.integers(0, n))
                options = per_vertex_ent[v]
                if len(options) < 2:
                    pick = [ent_pairs[rng.integers(0, len(ent_pairs))]]
                else:
                    k = int(rng.integers(2, len(options) + 1))
                    pick = sorted(rng.choice(options, size=k, replace=False).tolist())
            part = "single" if len(pick) == 1 else "concentrated"
            yield part, sorted(pairs[i] for i in set(pick) | set(extras))

    stream = generate()
    while block := list(itertools.islice(stream, _PROBE_BLOCK)):
        sigma = laplacian_states(n, [edge_list for _, edge_list in block])
        default = np.broadcast_to(np.arange(n), (len(block), n))
        lows = min_pt_eigenvalues(sigma, default, p, q)
        for (part, edge_list), low in zip(block, lows):
            status = verdict_status(low, p, q, args.tol)
            instances[part] += 1
            tallies[part][status] = tallies[part].get(status, 0) + 1
            if status == SEPARABLE and len(counters[part]) < 10:
                counters[part].append(
                    {"edges": [[u + 1, v + 1] for (u, v) in edge_list],
                     "min_pt_eigenvalue": float(low)})

    payload = {"p": p, "q": q, "n": n, "mode": mode, "tol": args.tol}
    for part, title in (("single", "single_entangled_edge"),
                        ("concentrated", "entangled_edges_at_one_vertex")):
        payload[title] = {
            "instances": instances[part],
            "verdicts": dict(sorted(tallies[part].items())),
            "counterexamples": counters[part],
            "conclusion": ("no counterexample found" if not counters[part]
                           else f"{len(counters[part])} separable counterexample(s)"),
        }
    if mode == "sampled":
        payload["seed"] = args.seed
        payload["budget"] = args.budget or 20000
    if args.json:
        _print_json(payload)
        return
    print(f"probe at {p}x{q} (n = {n}, {mode})")
    for part, title in (("single", "exactly one entangled edge"),
                        ("concentrated", "several entangled edges at one vertex")):
        t = tallies[part]
        verdicts = "  ".join(f"{k}={v}" for k, v in sorted(t.items())) or "(none)"
        print(f"{title}: {instances[part]} instance(s)   {verdicts}")
        key = ("single_entangled_edge" if part == "single"
               else "entangled_edges_at_one_vertex")
        print(f"  {payload[key]['conclusion']}")
        for c in counters[part]:
            print("  counterexample edges:",
                  " ".join(f"{u}-{v}" for u, v in c["edges"]))


# ---------------------------------------------------------------------------
# entropy


def cmd_entropy(args) -> None:
    g = _load_graph(args.graph)
    rho = density_of_graph(g)
    report = von_neumann_entropy(rho)
    payload = {
        "graph": _graph_summary(g),
        "entropy": report.entropy,
        "max_for_dimension": report.bound_max,
        "purity": float(purity(rho)),
        "spectrum": [float(v) for v in report.spectrum.eigenvalues],
        "multiplicities": [[float(v), int(c)]
                           for v, c in report.spectrum.multiplicities],
    }
    if args.order is not None:
        payload["q_entropy"] = {"order": args.order,
                                "value": q_entropy(rho, args.order)}
    if args.json:
        _print_json(payload)
        return
    gs = payload["graph"]
    print(f"graph: {gs['n']} vertices, {gs['m']} edges")
    print(f"entropy: {_fmt(report.entropy)}  "
          f"(max for dimension: {_fmt(report.bound_max)})")
    print(f"purity: {_fmt(payload['purity'])}")
    print("spectrum:",
          " ".join(f"{_fmt(v)}(x{c})" for v, c in payload["multiplicities"]))
    if args.order is not None:
        print(f"q-entropy (q={_fmt(args.order)}): "
              f"{_fmt(payload['q_entropy']['value'])}")


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphdm",
        description="Analyze graph Laplacian states: entropy, separability, "
                    "channels.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, dims=True, tol=True):
        if dims:
            sp.add_argument("--p", type=int, default=None,
                            help="rows of the bipartition (first factor)")
            sp.add_argument("--q", type=int, default=None,
                            help="columns of the bipartition (second factor)")
        if tol:
            sp.add_argument("--tol", type=float, default=NPT_TOL,
                            help="negativity tolerance for the PT eigenvalue")
        sp.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")

    sp = sub.add_parser("analyze", help="full report for one graph")
    sp.add_argument("graph", help="edge-list file")
    common(sp)
    sp.add_argument("--labeling", default=None,
                    help="cell assignment as comma-separated v=s.t tokens "
                         "(v 1-based, s/t 0-based); default fills rows")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("census4", help="exhaustive 4-vertex census")
    common(sp, dims=False)
    sp.add_argument("--csv", default=None,
                    help="write CSV to this path ('-' for stdout)")
    sp.set_defaults(func=cmd_census4)

    sp = sub.add_parser("channel", help="apply edit channels step by step")
    sp.add_argument("graph", help="edge-list file")
    sp.add_argument("edits", nargs="*",
                    help="edits like 'del-edge 2 3', 'add-edge 1 4', "
                         "'del-vertex 3', 'add-vertex'")
    sp.add_argument("--script", default=None,
                    help="file with one edit per line")
    sp.add_argument("--dump-operators", action="store_true",
                    help="include each channel's Kraus operators in JSON")
    sp.add_argument("--json", action="store_true",
                    help="emit machine-readable JSON")
    sp.set_defaults(func=cmd_channel)

    sp = sub.add_parser("search", help="census of labelings for one graph")
    sp.add_argument("graph", help="edge-list file")
    common(sp)
    sp.add_argument("--budget", type=int, default=None,
                    help="sample this many labelings instead of exhausting")
    sp.add_argument("--seed", type=int, default=None,
                    help="seed for sampled mode (a documented default is used "
                         "when omitted)")
    sp.add_argument("--workers", type=int, default=1,
                    help="worker processes for the eigensolves of a sampled "
                         "search (at least 1, clamped to the CPU count)")
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("probe",
                        help="scan graphs whose entangled edges are one edge "
                             "or concentrated at one vertex")
    common(sp)
    sp.add_argument("--max-n", type=int, default=8, dest="max_n",
                    help="largest vertex count the probe may touch (<= 8)")
    sp.add_argument("--budget", type=int, default=None,
                    help="samples when the pair count is too large to exhaust")
    sp.add_argument("--seed", type=int, default=20060111,
                    help="seed for sampled mode")
    sp.set_defaults(func=cmd_probe)

    sp = sub.add_parser("entropy", help="spectrum and entropy of one graph")
    sp.add_argument("graph", help="edge-list file")
    sp.add_argument("--order", type=float, default=None,
                    help="also report the q-entropy of this order (> 1)")
    sp.add_argument("--json", action="store_true",
                    help="emit machine-readable JSON")
    sp.set_defaults(func=cmd_entropy)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol = getattr(args, "tol", 0.0)
        if not 0 <= tol < math.inf:
            raise SeparabilityError(f"--tol must be a finite number >= 0, got {tol}")
        args.func(args)
        return 0
    except _PRECONDITION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort CLI guard
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
