"""Command-line surface for graph-state analysis.

Subcommands: analyze, census4, channel, search, probe, entropy.  Output is
human-readable by default; --json switches to a machine format that is
byte-identical across runs for identical inputs and flags (sorted keys,
fixed seeds, deterministic solvers).  Exit codes: 0 success, 2 precondition
failure (bad input, parse error, illegal edit), 1 internal error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

import numpy as np

from .channels import (
    ChannelError,
    VertexEdit,
    edge_addition_channel,
    edge_deletion_channel,
    measurement_probabilities,
    vertex_addition,
    vertex_deletion,
)
from .concurrence import (
    ConcurrenceError,
    census_to_csv_rows,
    census_to_json_dict,
    concurrences,
    four_vertex_census,
)
from .density import (
    DensityError,
    density_of_graph,
    purity,
)
from .entropy import EntropyError, q_entropy, von_neumann_entropy
from .graphs import (
    Graph,
    GraphError,
    ParseError,
    build_graph,
    complete_graph,
    component_count,
    laplacian,
    parse_graph,
)
from .linalg import HermitianMatrix, LinalgError
from .separability import (
    DEFAULT_SEARCH_SEED,
    ENTANGLED_NPT,
    MAX_SAMPLES,
    PPT_INCONCLUSIVE,
    SEPARABLE,
    BipartiteLabeling,
    ProductStates,
    SeparabilityError,
    _min_eig_for_assignment,  # noqa: F401 - perfbench's tracer test rebinds it here
    certify_ppt_verdicts,
    complete_graph_decomposition,
    entangled_edges,
    labeling_search,
    partial_transposes,
    ppt_status,
    ppt_test,
    ppt_verdicts,
    separable_decomposition,
)

_PRECONDITION_ERRORS = (
    ParseError, GraphError, DensityError, EntropyError, SeparabilityError,
    ChannelError, ConcurrenceError, LinalgError, FileNotFoundError,
    IsADirectoryError, PermissionError, UnicodeDecodeError,
)

# ---------------------------------------------------------------------------
# shared helpers


def _load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


# json.dumps runs its C encoder only without indent, so _render walks dicts
# and mixed lists itself and hands each leaf, each list of plain numbers, of
# non-empty rows of them or of flat records, to a compact C encoder built once
_C_ENCODE = (json.encoder.c_make_encoder(None, None, json.encoder.encode_basestring_ascii,
                                         None, ": ", ", ", True, False, True)
             if json.encoder.c_make_encoder is not None else None)
_NUMBER = frozenset({int, float, bool, np.float64})
_LEAF = _NUMBER | {str, type(None)}


class _Unrendered(Exception):
    """A value _render leaves to json.dumps."""


def _render(obj, indent: str) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) at nesting indent, byte for byte.

    A compact number list has no string in it, so its ", " and "], ["
    separators can only be separators, and re-indenting them with
    str.replace gives the indented text; so do flat records whose ", " and
    ": " counts are their separators', as then no string holds one.
    """
    kind = type(obj)
    if kind in _LEAF:
        return _C_ENCODE(obj, 0)[0]
    inner, row = indent + "  ", indent + "    "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if set(map(type, obj)) != {str}:
            raise _Unrendered
        body = f",\n{inner}".join(
            f"{json.encoder.encode_basestring_ascii(k)}: {_render(obj[k], inner)}"
            for k in sorted(obj))
        return f"{{\n{inner}{body}\n{indent}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        types = set(map(type, obj))
        if types <= _NUMBER:
            body = "".join(_C_ENCODE(obj, 0))[1:-1].replace(", ", f",\n{inner}")
            return f"[\n{inner}{body}\n{indent}]"
        if (types <= {list, tuple} and all(obj)
                and set(map(type, itertools.chain.from_iterable(obj))) <= _NUMBER):
            body = ("".join(_C_ENCODE(obj, 0))[2:-2]
                    .replace("], [", f"\n{inner}],\n{inner}[\n{row}")
                    .replace(", ", f",\n{row}"))
            return f"[\n{inner}[\n{row}{body}\n{inner}]\n{indent}]"
        if (types == {dict} and all(obj) and set(map(type, itertools.chain(*obj))) == {str}
                and set(map(type, itertools.chain(*map(dict.values, obj)))) <= _LEAF):
            text, fields = "".join(_C_ENCODE(obj, 0)), sum(map(len, obj))
            if text.count(", ") == fields - 1 and text.count(": ") == fields:
                body = (text[2:-2].replace("}, {", f"\n{inner}}},\n{inner}{{\n{row}")
                        .replace(", ", f",\n{row}"))
                return f"[\n{inner}{{\n{row}{body}\n{inner}}}\n{indent}]"
        body = f",\n{inner}".join(_render(x, inner) for x in obj)
        return f"[\n{inner}{body}\n{indent}]"
    if kind is ProductStates and len(obj):  # _jsonable's K >= 1 records, one template K times
        pair = f"{row}  [\n{row}    %s,\n{row}    %s\n{row}  ]"
        left, right = ("[\n" + ",\n".join([pair] * d) + f"\n{row}]" if d else "[]"
                       for d in (obj.left.shape[1], obj.right.shape[1]))
        record = f'{{\n{row}"left": {left},\n{row}"right": {right},\n{row}"weight": %s\n{inner}}}'
        floats = np.concatenate([np.ascontiguousarray(f, dtype=complex).view(float)
                                 for f in (obj.left, obj.right)] + [obj.weights[:, None]], axis=1)
        bits = np.sort(floats.view(np.int64), axis=None)  # each distinct float (bits) encoded once
        bits = bits[np.concatenate(([True], bits[1:] != bits[:-1]))]
        text = "".join(_C_ENCODE(bits.view(float).tolist(), 0))[1:-1].split(", ")
        at = bits.searchsorted(floats.view(np.int64).ravel()).tolist()
        body = f",\n{inner}".join([record] * len(obj))
        return f"[\n{inner}{body}\n{indent}]" % tuple(map(text.__getitem__, at))
    if kind is HermitianMatrix:  # to_real()'s floats: each distinct num / den once
        rows = obj.num.tolist()
        text = {k: repr(float(k) / obj.den) for k in set(itertools.chain(*rows))}
        sep = f"\n{inner}],\n{inner}[\n{row}"
        body = sep.join(f",\n{row}".join(map(text.get, r)) for r in rows)
        return f"[\n{inner}[\n{row}{body}\n{inner}]\n{indent}]" if rows else "[]"
    raise _Unrendered


def _jsonable(obj):  # json.dumps's default= for the exact matrix and product-state records
    if type(obj) is HermitianMatrix:
        return obj.to_real().tolist()
    if type(obj) is ProductStates:  # one dict per state, its factors as [re, im] pairs
        return [{"left": x, "right": y, "weight": w} for x, y, w in
                zip(_complex_list(obj.left), _complex_list(obj.right), obj.weights.tolist())]
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _dumps(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), mostly at C speed."""
    if _C_ENCODE is not None:
        try:
            return _render(obj, "")
        except _Unrendered:
            pass
    return json.dumps(obj, sort_keys=True, indent=2, default=_jsonable)


def _print_json(obj) -> None:
    print(_dumps(obj))


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _graph_summary(g: Graph, components: int | None = None) -> dict:
    return {
        "n": g.n,
        "m": g.m,
        "edges": [[u + 1, v + 1] for (u, v) in g.edges],
        "degrees": list(g.degrees()),
        "components": component_count(g) if components is None else components,
    }


def _complex_list(vec) -> list:
    vec = np.asarray(vec, dtype=complex)
    return np.stack([vec.real, vec.imag], axis=-1).tolist()


def _parse_labeling(spec: str, p: int, q: int, n: int) -> BipartiteLabeling:
    """Parse 'v=s.t' tokens, comma separated; v is 1-based, s and t 0-based."""
    cells: list = [None] * n
    for token in spec.split(","):
        try:
            left, right = token.strip().split("=")
            s_str, t_str = right.split(".")
            v, cell = int(left) - 1, (int(s_str), int(t_str))
        except ValueError as exc:
            raise SeparabilityError(
                f"bad labeling {spec!r}; expected comma-separated v=s.t tokens") from exc
        if not 0 <= v < n:
            raise SeparabilityError(f"vertex {v + 1} out of range in labeling")
        if cells[v] is not None:
            raise SeparabilityError(f"vertex {v + 1} labeled twice")
        cells[v] = cell
    if any(c is None for c in cells):
        raise SeparabilityError("labeling must cover every vertex")
    return BipartiteLabeling(p, q, tuple(cells))


def _require_dims(args, n: int | None = None) -> tuple[int, int]:
    p, q = args.p, args.q
    if p is None or q is None:
        raise SeparabilityError("this command needs --p and --q")
    if p < 2 or q < 2:
        raise SeparabilityError("both parts need dimension at least 2")
    if n is not None and p * q != n:
        raise SeparabilityError(f"p*q = {p * q} does not match the {n} vertices")
    return p, q


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> None:
    g = _load_graph(args.graph)
    p, q = _require_dims(args, g.n)
    lab = (_parse_labeling(args.labeling, p, q, g.n) if args.labeling
           else BipartiteLabeling.default(p, q))
    rho = density_of_graph(g)
    ent = von_neumann_entropy(rho)
    verdict = ppt_test(rho, lab)
    edges_cross = entangled_edges(g, lab)

    found = separable_decomposition(rho, lab) if verdict.status != ENTANGLED_NPT else None
    status = verdict.status if found is None else SEPARABLE

    conc = None
    if (p, q) == (2, 2):
        pos = np.argsort(lab.assign)  # vertex at each cell
        cell_mat = rho.to_real()[np.ix_(pos, pos)]
        conc = float(concurrences(cell_mat[None])[0][0])

    payload = {
        "graph": _graph_summary(g, ent.kernel),
        "entropy": {
            "von_neumann": ent.entropy,
            "max_for_dimension": ent.bound_max,
            "purity": float(purity(rho)),
        },
        "spectrum": [float(v) for v in ent.spectrum.eigenvalues],
        "labeling": {"p": p, "q": q, "cells": [list(c) for c in lab.cells]},
        "entangled_edges": [[u + 1, v + 1] for (u, v) in edges_cross],
        "verdict": {
            "status": status,
            "ppt_status": verdict.status,
            "min_pt_eigenvalue": verdict.min_pt_eigenvalue,
            "p": p,
            "q": q,
        },
        "pt_spectrum": list(verdict.pt_spectrum),
        "concurrence": conc,
        "decomposition": None if found is None else {
            "route": found[0], "terms": len(found[1]), "states": found[1]},
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
    if found is not None:
        print(f"decomposition: {len(found[1])} product states via {found[0]}")


# ---------------------------------------------------------------------------
# census4


def cmd_census4(args) -> None:
    report = four_vertex_census()
    if args.csv:
        rows = census_to_csv_rows(report)
        text = "\n".join(",".join(str(c) for c in row) for row in rows) + "\n"
        if args.csv == "-":
            sys.stdout.write(text)
        else:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(text)
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


# each edit's vertex count and the usage text for a wrong count
_EDITS = {"del-edge": (2, "needs two vertex numbers"), "add-edge": (2, "needs two vertex numbers"),
          "del-vertex": (1, "needs one vertex number"), "add-vertex": (0, "takes no arguments")}


def _parse_edit(token: str):
    """(kind, 0-based vertices...) of an edit as typed."""
    parts = token.split()
    if not parts:
        raise ChannelError("empty edit")
    kind = parts[0]
    if kind not in _EDITS:
        raise ChannelError(f"unknown edit {kind!r}")
    arity, usage = _EDITS[kind]
    if len(parts) != arity + 1:
        raise ChannelError(f"'{kind}' {usage}")
    try:
        return (kind, *(int(x) - 1 for x in parts[1:]))
    except ValueError as exc:
        raise ChannelError(f"bad vertex number in {token!r}") from exc


def _edit_text(edit) -> str:
    """An edit as typed: its kind and 1-based vertex numbers."""
    return " ".join(str(x + 1) if isinstance(x, int) else x for x in edit)


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

    cur, steps = g, []
    for edit in parsed:
        kind = edit[0]
        try:
            if kind == "del-edge":
                op = edge_deletion_channel(cur, edit[1:])
            elif kind == "add-edge":
                op = edge_addition_channel(cur, edit[1:])
            elif kind == "del-vertex":
                op = vertex_deletion(cur, edit[1])
            else:
                op = vertex_addition(cur)
            op.certify()
        except ChannelError as exc:
            raise ChannelError(f"{_edit_text(edit)!r}: {exc}") from None
        # a certified edit lands exactly on the state of op.result
        record = {"edit": _edit_text(edit), "graph": _graph_summary(op.result),
                  "trace": 1.0, "max_error_vs_graph_state": 0.0}
        if isinstance(op, VertexEdit):
            record["click_probability"] = 1.0
        else:
            record["probabilities"] = [
                {"projector": o.projector, "probability": o.probability}
                for o in measurement_probabilities(cur, edit[1:])]
            if args.dump_operators and args.json:
                record["operators"] = _complex_list(op.operators)
        if args.json:
            record["state"] = HermitianMatrix(laplacian(op.result), den=2 * op.result.m)
        steps.append(record)
        cur = op.result
    if args.dump_operators and not args.json:
        print("warning: channel ignores --dump-operators without --json", file=sys.stderr)

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
    if args.workers < 1:
        raise SeparabilityError(f"workers must be at least 1, got {args.workers}")
    census = labeling_search(g, p, q, sample=args.budget, seed=args.seed)
    if args.budget is None and args.seed is not None:
        print("warning: exhaustive search ignores --seed; pass --budget to sample",
              file=sys.stderr)
    if args.workers > 1:
        print(f"warning: search ignores --workers {args.workers}; every verdict runs "
              "in this process", file=sys.stderr)
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
    if g.m == g.n * (g.n - 1) // 2:
        complete_graph_decomposition(g.n, p, q)  # raises unless it reconstructs
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


def _probe_exhaustive(pairs, ent_pairs, n: int):
    """Every edge mask whose entangled edges are one edge or share a vertex,
    in mask order: (instance x pair mask, single-edge flags)."""
    present = (np.arange(1, 1 << len(pairs))[:, None] >> np.arange(len(pairs))) & 1 == 1
    chosen = present[:, ent_pairs]
    size = chosen.sum(axis=1)
    touches = np.array([[v in pairs[i] for v in range(n)] for i in ent_pairs])
    keep = (size > 0) & (chosen.astype(int) @ touches == size[:, None]).any(axis=1)
    return present[keep], size[keep] == 1


# probe instances per block of replayed draws: a block's words are drawn in
# one call, and the words held stay near 100,000 at any budget
_PROBE_BLOCK = 4096


class _Draws:
    """The bounded draws of a numpy Generator, replayed from its raw words.

    `rng.integers(0, 1 << 32, size=k, dtype=np.uint32)` yields the next k
    words `next_uint32` would give any bounded draw, in stream order.
    `integer(r)` replays `rng.integers(0, r)` by Lemire's multiply-shift
    (ACM TOMACS 29 (2019)): the top 32 bits of word * r, a word rejected
    while the low 32 fall under 2^32 mod r.  `sample` replays
    `rng.choice(options, size=k, replace=False)` for fewer than 10,000
    options: Floyd's sampler (Bentley and Floyd, CACM 30 (1987)), then a
    Fisher-Yates pass over the k picks.  `words` holds the drawn words,
    `vals` the same as Python ints and `pos` the next one unread; words run
    short only to be topped up from rng, so the stream continues exactly.
    """

    def __init__(self, rng, words=()):
        self.rng = rng
        self.words = np.asarray(words, dtype=np.uint32)
        self.vals = self.words.tolist()
        self.pos = 0

    def reserve(self, count: int) -> None:
        """Draw what is missing for count unread words."""
        short = count - (len(self.vals) - self.pos)
        if short > 0:
            more = self.rng.integers(0, 1 << 32, size=short, dtype=np.uint32)
            self.words = np.concatenate([self.words, more])
            self.vals += more.tolist()

    def skip(self, count: int) -> int:
        """Position in words of the next count words, now read."""
        self.reserve(count)
        self.pos += count
        return self.pos - count

    def drop_read(self) -> None:
        """Forget the words read; pos restarts at the first unread one."""
        self.words, self.vals, self.pos = self.words[self.pos:], self.vals[self.pos:], 0

    def integer(self, r: int) -> int:
        """rng.integers(0, r) for 1 <= r <= 2^32; r = 1 reads no word."""
        if r == 1:
            return 0
        while True:
            if self.pos == len(self.vals):
                self.reserve(1)
            m = self.vals[self.pos] * r
            self.pos += 1
            if m & 0xFFFFFFFF >= (1 << 32) % r:
                return m >> 32

    def sample(self, options, k: int) -> list:
        """rng.choice(options, size=k, replace=False).tolist()."""
        size = len(options)
        picks = []
        for j in range(size - k, size):
            val = self.integer(j + 1)
            picks.append(j if val in picks else val)
        for i in range(k - 1, 0, -1):
            j = self.integer(i + 1)
            picks[i], picks[j] = picks[j], picks[i]
        return [options[i] for i in picks]


def _probe_sampled(pairs, ent_pairs, n: int, budget: int, seed: int):
    """`budget` random instances: each other pair with probability 1/2, plus
    one entangled edge or several at one random vertex.  The instances are
    those of one scalar numpy draw per other pair, in the same order,
    replayed `_PROBE_BLOCK` instances at a time from the generator's words."""
    entangled = set(ent_pairs)
    plain = np.array([i for i in range(len(pairs)) if i not in entangled], dtype=np.intp)
    per_vertex_ent = [[i for i in ent_pairs if v in pairs[i]] for v in range(n)]
    # an instance's words unless a draw is rejected: its plain pairs, the
    # part, the vertex, the pick count, then Floyd and Fisher-Yates
    most = len(plain) + 3 + 2 * max(map(len, per_vertex_ent))
    present = np.zeros((budget, len(pairs)), dtype=bool)
    single = np.empty(budget, dtype=bool)
    draws = _Draws(np.random.default_rng(seed))
    for lo in range(0, budget, _PROBE_BLOCK):
        hi = min(lo + _PROBE_BLOCK, budget)
        draws.reserve((hi - lo) * most)
        starts, rows, picks = [], [], []
        for k in range(lo, hi):
            starts.append(draws.skip(len(plain)))
            options = () if draws.integer(2) else per_vertex_ent[draws.integer(n)]
            if len(options) < 2:  # single part
                pick = [ent_pairs[draws.integer(len(ent_pairs))]]
            else:  # concentrated part
                pick = draws.sample(options, 2 + draws.integer(len(options) - 1))
            rows += [k] * len(pick)
            picks += pick
        # a plain pair's draw, integers(0, 2), is its word's top bit
        bits = draws.words[np.array(starts)[:, None] + np.arange(len(plain))] >> 31
        present[lo:hi, plain] = bits == 1
        present[rows, picks] = True
        single[lo:hi] = present[lo:hi, ent_pairs].sum(axis=1) == 1
        draws.drop_read()
    return present, single


def cmd_probe(args) -> None:
    p, q = _require_dims(args)
    n = p * q
    if n > 8:
        raise SeparabilityError(f"probe is limited to p*q <= 8, got {n}")
    budget = 20000 if args.budget is None else args.budget
    seed = DEFAULT_SEARCH_SEED if args.seed is None else args.seed
    if budget < 1:
        raise SeparabilityError(f"budget must be at least 1, got {budget}")
    if budget > MAX_SAMPLES:
        raise SeparabilityError(f"budget must be at most {MAX_SAMPLES}, got {budget}")
    if seed < 0:
        raise SeparabilityError(f"seed must be non-negative, got {seed}")
    kn, lab = complete_graph(n), BipartiteLabeling.default(p, q)
    pairs = kn.edges  # every pair u < v, in lexicographic order
    entangled = set(entangled_edges(kn, lab))
    ent_pairs = [idx for idx, pair in enumerate(pairs) if pair in entangled]
    mode = "exhaustive" if len(pairs) <= 16 else "sampled"
    present, single = (_probe_exhaustive(pairs, ent_pairs, n) if mode == "exhaustive" else
                       _probe_sampled(pairs, ent_pairs, n, budget, seed))
    ignored = [flag for flag, value in (("--budget", args.budget), ("--seed", args.seed))
               if value is not None]
    if mode == "exhaustive" and ignored:
        print(f"warning: exhaustive probe at {p}x{q} ignores {' and '.join(ignored)}",
              file=sys.stderr)
    ppt = ppt_verdicts(pairs, lab.assign, p, q, present)

    payload = {"p": p, "q": q, "n": n, "mode": mode, "tol": args.tol}
    for title, members in (("single_entangled_edge", single),
                           ("entangled_edges_at_one_vertex", ~single)):
        verdicts = {status: int(hits.sum()) for status, hits in
                    ((ENTANGLED_NPT, members & ~ppt), (ppt_status(p, q), members & ppt))
                    if hits.any()}
        # separable counterexamples: a certified PPT state's PT is a Laplacian
        # over 2m, so its smallest eigenvalue is exactly 0
        found = np.flatnonzero(members & ppt)[:10] if ppt_status(p, q) == SEPARABLE else []
        edge_lists = [[pairs[i] for i in np.flatnonzero(present[k])] for k in found]
        if edge_lists:
            laps = np.stack([laplacian(build_graph(n, edges)) for edges in edge_lists])
            certify_ppt_verdicts(partial_transposes(laps, lab.assign, p, q), [True] * len(laps))
        counters = [{"edges": [[u + 1, v + 1] for (u, v) in edges], "min_pt_eigenvalue": 0.0}
                    for edges in edge_lists]
        payload[title] = {
            "instances": int(members.sum()),
            "verdicts": dict(sorted(verdicts.items())),
            "counterexamples": counters,
            "conclusion": ("no counterexample found" if not counters
                           else f"{len(counters)} separable counterexample(s)"),
        }
    if mode == "sampled":
        payload["seed"] = seed
        payload["budget"] = budget
    if args.json:
        _print_json(payload)
        return
    print(f"probe at {p}x{q} (n = {n}, {mode})")
    for title, text in (("single_entangled_edge", "exactly one entangled edge"),
                        ("entangled_edges_at_one_vertex",
                         "several entangled edges at one vertex")):
        part = payload[title]
        verdicts = "  ".join(f"{k}={v}" for k, v in part["verdicts"].items()) or "(none)"
        print(f"{text}: {part['instances']} instance(s)   {verdicts}")
        print(f"  {part['conclusion']}")
        for c in part["counterexamples"]:
            print("  counterexample edges:", " ".join(f"{u}-{v}" for u, v in c["edges"]))


# ---------------------------------------------------------------------------
# entropy


def cmd_entropy(args) -> None:
    g = _load_graph(args.graph)
    rho = density_of_graph(g)
    report = von_neumann_entropy(rho)
    payload = {
        "graph": _graph_summary(g, report.kernel),
        "entropy": report.entropy,
        "max_for_dimension": report.bound_max,
        "purity": float(purity(rho)),
        "spectrum": [float(v) for v in report.spectrum.eigenvalues],
        "multiplicities": [[float(v), int(c)]
                           for v, c in report.spectrum.multiplicities],
    }
    if args.order is not None:
        payload["q_entropy"] = {"order": args.order,
                                "value": q_entropy(report.spectrum.eigenvalues, args.order)}
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


NPT_TOL = 1e-9  # the default of --tol, accepted for compatibility; no verdict reads it


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphdm",
        description="Analyze graph Laplacian states: entropy, separability, "
                    "channels.")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # command name -> its parser, for main

    def common(sp, dims=True, tol=True):
        if dims:
            sp.add_argument("--p", type=int, default=None,
                            help="rows of the bipartition (first factor)")
            sp.add_argument("--q", type=int, default=None,
                            help="columns of the bipartition (second factor)")
        if tol:
            sp.add_argument("--tol", type=float, default=NPT_TOL,
                            help="accepted for compatibility (a finite number >= 0); "
                                 "every verdict is exact and none reads it")
        sp.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")

    sp = sub.add_parser("analyze", help="full report for one graph")
    sp.add_argument("graph", help="edge-list file")
    common(sp)
    sp.add_argument("--labeling", default=None,
                    help="cell assignment as comma-separated v=s.t tokens "
                         "(v 1-based, s/t 0-based); default fills rows")

    sp = sub.add_parser("census4", help="exhaustive 4-vertex census")
    common(sp, dims=False)
    sp.add_argument("--csv", default=None,
                    help="write CSV to this path ('-' for stdout)")

    sp = sub.add_parser("channel", help="apply edit channels step by step")
    sp.add_argument("graph", help="edge-list file")
    sp.add_argument("edits", nargs="*",
                    help="edits like 'del-edge 2 3', 'add-edge 1 4', "
                         "'del-vertex 3', 'add-vertex'")
    sp.add_argument("--script", default=None,
                    help="file with one edit per line")
    sp.add_argument("--dump-operators", action="store_true",
                    help="include each channel's Kraus operators in JSON")
    common(sp, dims=False, tol=False)

    sp = sub.add_parser("search", help="census of labelings for one graph")
    sp.add_argument("graph", help="edge-list file")
    common(sp)
    sp.add_argument("--budget", type=int, default=None,
                    help=f"sample this many labelings (at most {MAX_SAMPLES}) "
                         "instead of exhausting")
    sp.add_argument("--seed", type=int, default=None,
                    help="seed for sampled mode (a documented default is used "
                         "when omitted)")
    sp.add_argument("--workers", type=int, default=1,
                    help="accepted for compatibility (at least 1); every "
                         "verdict runs in this process")

    sp = sub.add_parser("probe",
                        help="scan graphs whose entangled edges are one edge "
                             "or concentrated at one vertex")
    common(sp)
    sp.add_argument("--budget", type=int, default=None,
                    help="samples when the pair count is too large to exhaust "
                         f"(default 20000, at most {MAX_SAMPLES})")
    sp.add_argument("--seed", type=int, default=None,
                    help=f"seed for sampled mode (default {DEFAULT_SEARCH_SEED})")

    sp = sub.add_parser("entropy", help="spectrum and entropy of one graph")
    sp.add_argument("graph", help="edge-list file")
    sp.add_argument("--order", type=float, default=None,
                    help="also report the q-entropy of this order (> 1)")
    common(sp, dims=False, tol=False)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process; it holds no command functions."""
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _parser()
    # one pass by the command's parser; parse_args only for -h or no known command
    sub = parser.commands.get(argv[0]) if argv else None
    args, extra = ((parser.parse_args(argv), []) if sub is None else
                   sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0])))
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        tol = getattr(args, "tol", 0.0)
        if not 0 <= tol < math.inf:
            raise SeparabilityError(f"--tol must be a finite number >= 0, got {tol}")
        globals()[f"cmd_{args.command}"](args)
        return 0
    except _PRECONDITION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort CLI guard
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
