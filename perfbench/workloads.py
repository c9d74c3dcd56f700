"""Seeded inputs for the graphdm benchmark.

A workload is an endless sequence of rounds.  Round r of a workload is a
fixed mix of jobs whose graphs and arguments come from the seed and r, so
every round costs about the same and a run always measures whole rounds.
A job is one `graphdm` command line plus the graph files it reads and the
facts the output checks need.  Nothing here imports graphdm: the program
only ever sees the files and argument lists made here.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

WORKLOADS = ("census", "channels", "analyze")
RUN_DIR = ".perfbench_run"  # generated inputs and spans, under the checkout root
TOL = "1e-9"

# census: (vertices, p, q) for the sampled searches, each `SAMPLED_PER_DIMS`
# times per round with `SEARCH_BUDGET` labelings.  The sampled searches hold
# the median job and the probes the tail (only the 5-7 exhaustive 8-vertex
# jobs of a run lie beyond it), so both fall inside a class of like jobs.
SAMPLED_DIMS = ((8, 2, 4), (9, 3, 3), (10, 2, 5), (12, 3, 4))
SAMPLED_PER_DIMS = 8
SEARCH_BUDGET = 200
EXHAUSTIVE6_PER_ROUND = 14
PROBES_PER_ROUND = 4
PROBE_BUDGET = 100
EXHAUSTIVE8_EDGES = 14

# channels: starting vertex count -> jobs per round; every job is an edit
# script of del-edge, add-edge and del-vertex, plus add-vertex when n <= 6.
# The four 9-vertex scripts hold the median job and the three 12-vertex
# ones the tail, so both fall inside a class of like jobs.
CHANNEL_MIX = {5: 1, 6: 1, 7: 1, 8: 1, 9: 4, 10: 1, 11: 1, 12: 3}

# analyze: (vertices, p, q) per graph family
ANALYZE_RANDOM = ((4, 2, 2), (4, 2, 2), (4, 2, 2), (6, 2, 3), (6, 3, 2),
                  (8, 2, 4), (8, 4, 2), (9, 3, 3), (10, 2, 5), (12, 3, 4),
                  (12, 2, 6))
ANALYZE_MATCHING = ((4, 2, 2), (6, 2, 3), (8, 2, 4), (10, 2, 5), (12, 2, 6))
ANALYZE_COMPLETE = ((4, 2, 2), (6, 2, 3), (8, 2, 4), (9, 3, 3), (10, 2, 5),
                    (12, 3, 4))


def graph_text(n: int, edges) -> str:
    """The edge-list file format, 1-based."""
    return f"n {n}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in edges)


def _rng(workload: str, seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), r])


def _gnm(rng, n: int, m: int) -> list:
    """Uniform graph with n vertices and m edges, as sorted 0-based pairs."""
    pairs = list(itertools.combinations(range(n), 2))
    pick = rng.choice(len(pairs), size=m, replace=False)
    return sorted(pairs[i] for i in pick)


_PERMS: dict = {}


def _is_asymmetric(n: int, edges) -> bool:
    """True when only the identity permutation preserves the edge set."""
    if n not in _PERMS:
        _PERMS[n] = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    fixing = 0
    for chunk in np.array_split(_PERMS[n], max(1, len(_PERMS[n]) // 2048)):
        # chunked so the index arrays stay small in the measured process
        moved = adj[chunk[:, :, None], chunk[:, None, :]]
        fixing += int((moved == adj).all(axis=(1, 2)).sum())
    return fixing == 1


def _job(jid, kind, argv, files, **expect):
    return {"id": jid, "kind": kind, "argv": argv, "files": files,
            "expect": expect}


# ---------------------------------------------------------------------------
# census


def _census_round(rng, prefix: str) -> list:
    jobs = []

    def search(name, n, edges, p, q, budget=None):
        path = f"{prefix}/{name}.g"
        argv = ["search", path, "--p", str(p), "--q", str(q), "--tol", TOL,
                "--workers", "1"]
        if budget is not None:
            argv += ["--budget", str(budget), "--seed", str(int(rng.integers(1 << 30)))]
        jobs.append(_job(name, "search", argv, {path: graph_text(n, edges)},
                         n=n, edges=edges, p=p, q=q, budget=budget))

    for i in range(EXHAUSTIVE6_PER_ROUND):
        search(f"exh6-{i}", 6, _gnm(rng, 6, 5 + i % 6), 2, 3)
    while True:
        edges = _gnm(rng, 8, EXHAUSTIVE8_EDGES)
        if _is_asymmetric(8, edges):
            break
    search("exh8", 8, edges, 2, 4)
    for n, p, q in SAMPLED_DIMS:
        for i in range(SAMPLED_PER_DIMS):
            m = n * (n - 1) // 4 + int(rng.integers(-2, 3))
            search(f"s{p}x{q}-{i}", n, _gnm(rng, n, m), p, q, SEARCH_BUDGET)
    for i in range(PROBES_PER_ROUND):
        argv = ["probe", "--p", "2", "--q", "4", "--tol", TOL,
                "--budget", str(PROBE_BUDGET), "--seed", str(int(rng.integers(1 << 30)))]
        jobs.append(_job(f"probe-{i}", "probe", argv, {}, p=2, q=4,
                         budget=PROBE_BUDGET))
    jobs.append(_job("census4", "census4", ["census4", "--tol", TOL], {}))
    return jobs


# ---------------------------------------------------------------------------
# channels


def _edit_script(rng, n: int, edges: list):
    """del-edge, add-edge, add-vertex (n <= 6 only), then del-vertex.

    The deleted vertex has the degree nearest the mean (the lower one on a
    tie): a vertex deletion runs one edge-deletion channel per incident
    edge, and a fixed degree keeps a job's cost a function of n and m
    rather than of the seed.
    """
    kinds = ["del-edge", "add-edge"] + ["add-vertex"] * (n <= 6) + ["del-vertex"]
    edits, steps = [], []
    cur = set(edges)
    for kind in kinds:
        if kind == "del-edge":
            u, v = sorted(cur)[int(rng.integers(len(cur)))]
            cur.discard((u, v))
            edits.append(f"del-edge {u + 1} {v + 1}")
        elif kind == "add-edge":
            free = [e for e in itertools.combinations(range(n), 2) if e not in cur]
            u, v = free[int(rng.integers(len(free)))]
            cur.add((u, v))
            edits.append(f"add-edge {v + 1} {u + 1}" if rng.integers(2) else
                         f"add-edge {u + 1} {v + 1}")
        elif kind == "add-vertex":
            n += 1
            edits.append("add-vertex")
        else:
            degree = [sum(x in e for e in cur) for x in range(n)]
            mean = 2 * len(cur) / n
            target = min(degree, key=lambda d: (abs(d - mean), d))
            near = [x for x in range(n) if degree[x] == target]
            x = near[int(rng.integers(len(near)))]
            cur = {(a - (a > x), b - (b > x)) for a, b in cur if x not in (a, b)}
            n -= 1
            edits.append(f"del-vertex {x + 1}")
        steps.append({"n": n, "edges": sorted(cur)})
    return edits, steps


def _channels_round(rng, prefix: str) -> list:
    jobs = []
    for n, count in CHANNEL_MIX.items():
        for i in range(count):
            name = f"ch{n}-{i}"
            edges = _gnm(rng, n, n * (n - 1) // 4)
            edits, steps = _edit_script(rng, n, edges)
            path = f"{prefix}/{name}.g"
            jobs.append(_job(name, "channel", ["channel", path, *edits],
                             {path: graph_text(n, edges)},
                             n=n, edges=edges, steps=steps))
    return jobs


# ---------------------------------------------------------------------------
# analyze


def _labeling(rng, n: int, q: int):
    """Random vertex -> flat cell map and its --labeling string."""
    cells = [int(c) for c in rng.permutation(n)]
    spec = ",".join(f"{v + 1}={c // q}.{c % q}" for v, c in enumerate(cells))
    return cells, spec


def _matching_graph(rng, n: int, q: int, cells: list) -> list:
    """Two-row graph whose entangled edges form one perfect matching.

    Row-0 cell t is matched to row-1 cell pi(t) for a derangement pi, and
    each row or column pair (separable edges) is added with probability 0.3.
    """
    at = {c: v for v, c in enumerate(cells)}
    while True:
        pi = [int(x) for x in rng.permutation(q)]
        if all(pi[t] != t for t in range(q)):
            break
    while True:
        edges = {tuple(sorted((at[t], at[q + pi[t]]))) for t in range(q)}
        for t in range(q):
            if rng.random() < 0.3:
                edges.add(tuple(sorted((at[t], at[q + t]))))
            for t2 in range(t + 1, q):
                for s in (0, 1):
                    if rng.random() < 0.3:
                        edges.add(tuple(sorted((at[s * q + t], at[s * q + t2]))))
        if len(edges) < n * (n - 1) // 2:  # a complete graph takes the other route
            return sorted(edges)


def _analyze_round(rng, prefix: str) -> list:
    jobs = []
    families = ([("random", d) for d in ANALYZE_RANDOM]
                + [("matching", d) for d in ANALYZE_MATCHING]
                + [("complete", d) for d in ANALYZE_COMPLETE])
    for i, (family, (n, p, q)) in enumerate(families):
        cells, spec = _labeling(rng, n, q)
        full = n * (n - 1) // 2
        if family == "random":
            edges = _gnm(rng, n, int(rng.integers(n - 1, full)))
        elif family == "matching":
            edges = _matching_graph(rng, n, q, cells)
        else:
            edges = list(itertools.combinations(range(n), 2))
        name = f"{family}{n}-{i}"
        path = f"{prefix}/{name}.g"
        files = {path: graph_text(n, edges)}
        jobs.append(_job(f"{name}-analyze", "analyze",
                         ["analyze", path, "--p", str(p), "--q", str(q),
                          "--tol", TOL, "--labeling", spec],
                         files, n=n, edges=edges, p=p, q=q, cells=cells,
                         family=family))
        argv = ["entropy", path]
        order = None
        if i % 2:
            order = float(2 + i % 3)
            argv += ["--order", str(order)]
        jobs.append(_job(f"{name}-entropy", "entropy", argv, files, n=n,
                         edges=edges, order=order))
    return jobs


_ROUNDS = {"census": _census_round, "channels": _channels_round,
           "analyze": _analyze_round}


def make_round(workload: str, seed: int, r: int, prefix: str) -> list:
    """Jobs of round r, in a seeded order; file paths start with prefix."""
    rng = _rng(workload, seed, r)
    jobs = _ROUNDS[workload](rng, prefix)
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def write_files(root: Path, jobs) -> list:
    """Write every graph file of jobs under root; return their paths."""
    files = {rel: text for job in jobs for rel, text in job["files"].items()}
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return list(files)


def verdict_units(job, out) -> int:
    """Labelings or probe instances whose verdict the job reported."""
    kind = job["kind"]
    if kind == "search":
        return int(out["total"])
    if kind == "probe":
        return sum(out[k]["instances"] for k in
                   ("single_entangled_edge", "entangled_edges_at_one_vertex"))
    if kind == "census4":
        return sum(c["labelings"] for c in out["classes"])
    if kind == "analyze":
        return 1
    return 0


def work_units(workload: str, job, out) -> int:
    """The workload's unit of domain work in one job's output."""
    if workload == "census":
        return verdict_units(job, out)
    if workload == "channels":
        return len(out["steps"])
    return 1
