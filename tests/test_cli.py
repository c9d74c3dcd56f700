"""End-to-end tests of the command line interface via its main() entry."""

import argparse
import hashlib
import itertools
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphdm.channels as channels
import graphdm.cli as cli
import graphdm.density as density
import graphdm.entropy as entropy
import graphdm.graphs as graphs
import graphdm.linalg as linalg
import graphdm.separability as separability
from graphdm.channels import EdgeEdit, VertexEdit
from graphdm.cli import main
from graphdm.graphs import add_edge, add_isolated_vertex, delete_vertex
from graphdm.linalg import HermitianMatrix, LinalgError
from graphdm.separability import ProductStates

P4_TEXT = "n 4\ne 1 2\ne 2 3\ne 3 4\n"
K4_TEXT = "n 4\n" + "".join(
    f"e {u} {v}\n" for u in range(1, 5) for v in range(u + 1, 5))
STAR4_TEXT = "n 4\ne 1 2\ne 1 3\ne 1 4\n"
PETERSEN_TEXT = "n 10\n" + "".join(f"e {u} {v}\n" for u, v in [
    (1, 2), (2, 3), (3, 4), (4, 5), (1, 5),
    (1, 6), (2, 7), (3, 8), (4, 9), (5, 10),
    (6, 8), (8, 10), (10, 7), (7, 9), (9, 6)])


@pytest.fixture
def graph_file(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0, out
    return json.loads(out)


def test_analyze_human_output(capsys, graph_file):
    path = graph_file("p4.graph", P4_TEXT)
    rc = main(["analyze", path, "--p", "2", "--q", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ENTANGLED_NPT" in out
    assert "entropy" in out


def test_analyze_json_path4(capsys, graph_file):
    path = graph_file("p4.graph", P4_TEXT)
    blob = run_json(capsys, ["analyze", path, "--p", "2", "--q", "2", "--json"])
    assert blob["graph"]["n"] == 4 and blob["graph"]["m"] == 3
    v = blob["verdict"]
    assert v["status"] == "ENTANGLED_NPT"
    assert abs(v["min_pt_eigenvalue"] - (1 - math.sqrt(2)) / 6) < 1e-10
    assert blob["entangled_edges"] == [[2, 3]]  # 1-based in reports
    assert abs(blob["concurrence"] - 1 / 3) < 1e-9
    assert blob["decomposition"] is None


def test_analyze_json_star_eigenvalue(capsys, graph_file):
    path = graph_file("star4.graph", STAR4_TEXT)
    blob = run_json(capsys, ["analyze", path, "--p", "2", "--q", "2", "--json"])
    want = 0.25 - math.sqrt(17) / 12
    assert abs(blob["verdict"]["min_pt_eigenvalue"] - want) < 1e-10


def test_analyze_attaches_complete_graph_decomposition(capsys, graph_file):
    path = graph_file("k4.graph", K4_TEXT)
    blob = run_json(capsys, ["analyze", path, "--p", "2", "--q", "2", "--json"])
    assert blob["verdict"]["status"] == "SEPARABLE"
    dec = blob["decomposition"]
    assert dec is not None
    assert len(dec["states"]) == 6
    assert abs(sum(s["weight"] for s in dec["states"]) - 1.0) < 1e-12


def test_analyze_custom_labeling(capsys, graph_file):
    path = graph_file("p4.graph", P4_TEXT)
    # interleaved map: vertices 1..4 -> cells (0,0),(1,0),(0,1),(1,1)
    blob = run_json(capsys, [
        "analyze", path, "--p", "2", "--q", "2",
        "--labeling", "1=0.0,2=1.0,3=0.1,4=1.1", "--json"])
    lams = blob["pt_spectrum"]
    expected = sorted([0.5, 1 / 6, (1 + math.sqrt(2)) / 6, (1 - math.sqrt(2)) / 6])
    assert len(lams) == 4
    for got, want in zip(lams, expected):
        assert abs(got - want) < 1e-9


def test_analyze_precondition_failures(capsys, graph_file, tmp_path):
    path = graph_file("p4.graph", P4_TEXT)
    # wrong dimensions
    assert main(["analyze", path, "--p", "3", "--q", "2"]) == 2
    assert "does not match" in capsys.readouterr().err
    # missing file
    assert main(["analyze", str(tmp_path / "nope.graph"), "--p", "2", "--q", "2"]) == 2
    capsys.readouterr()
    # malformed document
    bad = graph_file("bad.graph", "e 1 2\n")
    assert main(["analyze", bad, "--p", "2", "--q", "2"]) == 2
    assert "error" in capsys.readouterr().err.lower()
    # bad labeling spec
    assert main(["analyze", path, "--p", "2", "--q", "2",
                 "--labeling", "1=0.0,2=1.0,3=0.1,4=0.1"]) == 2
    capsys.readouterr()


def test_census4_json_and_csv(capsys, tmp_path):
    blob = run_json(capsys, ["census4", "--json"])
    assert blob["ever_entangled_count"] == 7
    assert blob["always_entangled_count"] == 2
    assert len(blob["classes"]) == 10

    csv_path = tmp_path / "census.csv"
    rc = main(["census4", "--csv", str(csv_path)])
    capsys.readouterr()
    assert rc == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 11
    assert lines[0].startswith("class_id,")


def test_channel_json_trajectory(capsys, graph_file):
    path = graph_file("p4.graph", P4_TEXT)
    blob = run_json(capsys, [
        "channel", path, "del-edge 2 3", "add-edge 2 3", "--json"])
    steps = blob["steps"]
    assert [s["edit"] for s in steps] == ["del-edge 2 3", "add-edge 2 3"]
    for s in steps:
        assert abs(s["trace"] - 1.0) < 1e-12
        assert s["max_error_vs_graph_state"] < 1e-10
        probs = s["probabilities"]
        assert abs(sum(p["probability"] for p in probs) - 1.0) < 1e-12
    # the round trip ends on the starting edge set
    assert steps[-1]["graph"]["edges"] == blob["start"]["edges"]


def test_channel_script_and_vertex_edits(capsys, graph_file, tmp_path):
    path = graph_file("p4.graph", P4_TEXT)
    script = tmp_path / "edits.txt"
    script.write_text("# trim one end, then grow\ndel-vertex 1\nadd-vertex\n")
    blob = run_json(capsys, ["channel", path, "--script", str(script), "--json"])
    steps = blob["steps"]
    assert [s["edit"] for s in steps] == ["del-vertex 1", "add-vertex"]
    assert steps[0]["graph"]["n"] == 3
    assert steps[1]["graph"]["n"] == 4
    for s in steps:
        assert s["click_probability"] == 1.0


def test_channel_dump_operators(capsys, graph_file):
    path = graph_file("p4.graph", P4_TEXT)
    blob = run_json(capsys, ["channel", path, "del-edge 2 3",
                             "--dump-operators", "--json"])
    ops = blob["steps"][0]["operators"]
    assert len(ops) == 8
    # each operator is a matrix of [real, imaginary] entry pairs
    first = ops[0]
    assert len(first) == 4 and len(first[0]) == 4
    assert len(first[0][0]) == 2


def test_channel_bad_edit_is_precondition_error(capsys, graph_file):
    path = graph_file("p4.graph", P4_TEXT)
    assert main(["channel", path, "del-edge 1 3"]) == 2
    assert "error" in capsys.readouterr().err.lower()
    assert main(["channel", path, "frobnicate 1"]) == 2
    capsys.readouterr()


def test_channel_edit_errors_name_vertices_as_typed(capsys, graph_file):
    path = graph_file("p4.graph", P4_TEXT)
    cases = [
        (["del-vertex 0"], "vertex 0 out of range 1..4"),
        (["add-edge 2 5"], "vertex 5 out of range 1..4"),
        (["del-edge 1 3"], "edge 1-3 is not in the graph"),
        (["add-edge 3 2"], "edge 3-2 is already in the graph"),
        # checked against the graph as edited so far
        (["del-vertex 1", "del-vertex 4"], "vertex 4 out of range 1..3"),
        # every error from building an edit names the edit
        (["del-edge 1 2", "del-edge 2 3", "del-edge 3 4"],
         "'del-edge 3 4': deleting the last edge leaves no graph state"),
    ]
    for edits, message in cases:
        assert main(["channel", path, *edits]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and message in captured.err



C5_TEXT = "n 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n"
# every kind of edit, through three vertex counts: 5, then 10 while add-vertex
# drains its product state, then 6 until del-vertex lands back on 5
C5_SCRIPT = ["del-edge 1 2", "add-edge 1 3", "add-vertex", "del-vertex 5"]


def assert_one_line_error(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and message in captured.err


def with_extra_edge(g):
    """g plus its first absent vertex pair: a graph an edit must not land on."""
    pair = next(e for e in itertools.combinations(range(g.n), 2) if not g.has_edge(*e))
    return add_edge(g, *pair)


@pytest.mark.parametrize("edit,name,message", [
    ("del-edge 1 2", "delete_edge", "'del-edge 1 2': delete edge 1-2: the prepared edge "
                                    "states are not those of the edited graph"),
    ("add-edge 1 3", "add_edge", "'add-edge 1 3': add edge 1-3: the prepared edge "
                                 "states are not those of the edited graph"),
    ("del-vertex 4", "delete_edge", "'del-vertex 4': delete edge 3-4: the prepared"),
    ("add-vertex", "delete_edge", "'add-vertex': delete edge 6-7: the prepared"),
], ids=["del-edge", "add-edge", "del-vertex", "add-vertex"])
def test_channel_refuses_an_edge_edit_off_its_graph(capsys, graph_file, monkeypatch,
                                                    edit, name, message):
    # the edited graph comes from graphs.delete_edge or add_edge, and each
    # landing on it, inside a vertex edit too, is certified exactly
    edited = getattr(channels, name)
    monkeypatch.setattr(channels, name, lambda g, u, v: with_extra_edge(edited(g, u, v)))
    path = graph_file("c5.graph", C5_TEXT)
    assert_one_line_error(capsys, ["channel", path, edit, "--json"], message)


@pytest.mark.parametrize("edit,name,wrong,message", [
    ("del-vertex 5", "delete_vertex", lambda g, v: add_edge(delete_vertex(g, v), 0, 2),
     "vertex deletion did not land on the residual state"),
    ("add-vertex", "add_isolated_vertex", lambda g: add_edge(add_isolated_vertex(g), 0, g.n),
     "vertex addition did not land on the padded state"),
    ("add-vertex", "tensor_product", lambda h, g: add_edge(
        graphs.delete_edge(graphs.tensor_product(h, g), g.n, g.n + 1), g.n, g.n + 2),
     "'add-vertex': product state does not match the product graph state"),
])
def test_channel_refuses_a_vertex_edit_off_its_target(capsys, graph_file, monkeypatch,
                                                      edit, name, wrong, message):
    monkeypatch.setattr(channels, name, wrong)
    path = graph_file("c5.graph", C5_TEXT)
    assert_one_line_error(capsys, ["channel", path, edit, "--json"], message)


def test_channel_checks_every_channel_output(capsys, graph_file, monkeypatch):
    # every edge edit, the drains of add-vertex and the deletions at vertex 5
    # among them, is certified against the graph it claims to reach
    path = graph_file("c5.graph", C5_TEXT)
    calls = []
    for name in ("delete_edge", "add_edge"):
        edited = getattr(graphs, name)
        monkeypatch.setattr(channels, name, lambda g, u, v, edited=edited:
                            calls.append(1) or edited(g, u, v))
    run_json(capsys, ["channel", path, *C5_SCRIPT, "--json"])
    assert len(calls) == 2 + 5 + 2  # two edge edits, five drains, two at vertex 5
    for k in range(len(calls)):
        calls.clear()
        for name in ("delete_edge", "add_edge"):
            edited = getattr(graphs, name)

            def wrong_kth(g, u, v, edited=edited, k=k):
                calls.append(1)
                out = edited(g, u, v)
                return with_extra_edge(out) if len(calls) == k + 1 else out

            monkeypatch.setattr(channels, name, wrong_kth)
        assert_one_line_error(capsys, ["channel", path, *C5_SCRIPT, "--json"],
                              "the prepared edge states are not those of the edited graph")


def test_channel_builds_states_once_per_vertex_count(capsys, graph_file, monkeypatch):
    exact, floats = [], []
    init, to_real = linalg.HermitianMatrix.__init__, linalg.HermitianMatrix.to_real

    def counted(mat, rows, **kw):
        init(mat, rows, **kw)
        exact.append(mat.dim)

    def refuse(*_, **__):
        raise AssertionError("a DensityMatrix")

    monkeypatch.setattr(linalg.HermitianMatrix, "__init__", counted)
    monkeypatch.setattr(linalg.HermitianMatrix, "to_real",
                        lambda mat: floats.append(mat.dim) or to_real(mat))
    monkeypatch.setattr(density.DensityMatrix, "__init__", refuse)
    path = graph_file("c5.graph", C5_TEXT)
    run_json(capsys, ["channel", path, *C5_SCRIPT, "--json"])
    # one exact state per step, the edited graph's: 5, 5, 6 and 5 vertices,
    # rendered from its numerators without a float matrix
    assert exact == [5, 5, 6, 5] and floats == []
    exact.clear()
    run_text(capsys, ["channel", path, *C5_SCRIPT])  # text prints no state
    assert exact == [] and floats == []


def test_channel_builds_no_float_channel_without_dump_operators(capsys, graph_file):
    float_pass = {f.__code__: f.__qualname__ for f in (
        EdgeEdit.apply, EdgeEdit.basis.func, EdgeEdit.targets.func, VertexEdit.run,
        channels.check_landing)}
    seen = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in float_pass:
            seen.append(float_pass[frame.f_code])

    path = graph_file("c5.graph", C5_TEXT)
    for extra, want in (([], []), (["--dump-operators"], ["EdgeEdit.basis", "EdgeEdit.targets"])):
        seen.clear()
        sys.setprofile(hook)
        try:
            run_json(capsys, ["channel", path, *C5_SCRIPT, "--json", *extra])
        finally:
            sys.setprofile(None)
        # the operators of the two edge edits, built once each
        assert sorted(set(seen)) == want and len(seen) == 2 * len(want)
    # text mode prints no operator, so it builds none and says so
    seen.clear()
    sys.setprofile(hook)
    try:
        _, err = run_text(capsys, ["channel", path, *C5_SCRIPT, "--dump-operators"])
    finally:
        sys.setprofile(None)
    assert seen == []
    assert err == "warning: channel ignores --dump-operators without --json\n"


def test_non_utf8_input_is_precondition_error(capsys, graph_file, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"n 4\ne 1 2\xff\n")
    path = graph_file("p4.graph", P4_TEXT)
    for argv in (["entropy", str(bad)], ["channel", path, "--script", str(bad)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")


def test_search_exhaustive_json(capsys, graph_file):
    path = graph_file("p4.graph", P4_TEXT)
    blob = run_json(capsys, ["search", path, "--p", "2", "--q", "2", "--json"])
    assert blob["mode"] == "exhaustive"
    assert blob["total"] == 24
    assert blob["counts"] == {
        "SEPARABLE": 16, "ENTANGLED_NPT": 8, "PPT_INCONCLUSIVE": 0}
    assert "ENTANGLED_NPT" in blob["witnesses"]


def test_search_complete_graph_certifies(capsys, graph_file):
    path = graph_file("k4.graph", K4_TEXT)
    blob = run_json(capsys, ["search", path, "--p", "2", "--q", "2", "--json"])
    assert blob["certified_counts"]["SEPARABLE"] == 24
    assert blob["certified_counts"]["ENTANGLED_NPT"] == 0
    assert "certified" in blob["note"]


def complete_text(n: int, loops=()) -> str:
    pairs = itertools.combinations(range(1, n + 1), 2)
    return (f"n {n}\n" + "".join(f"e {u} {v}\n" for u, v in pairs)
            + "".join(f"e {v} {v}\n" for v in loops))


def test_loops_do_not_block_the_complete_graph_route(capsys, graph_file):
    # the state ignores loops, so a looped K_n has K_n's decomposition
    argv = ["--p", "3", "--q", "3", "--json"]
    plain = run_json(capsys, ["analyze", graph_file("k9.graph", complete_text(9))] + argv)
    looped = run_json(capsys, ["analyze", graph_file("k9l.graph", complete_text(9, [1]))] + argv)
    assert looped["verdict"]["status"] == "SEPARABLE"
    assert looped["decomposition"]["route"] == "complete-graph"
    assert looped["decomposition"] == plain["decomposition"]
    argv = ["--p", "2", "--q", "4", "--json"]
    plain = run_json(capsys, ["search", graph_file("k8.graph", complete_text(8))] + argv)
    looped = run_json(capsys, ["search", graph_file("k8l.graph", complete_text(8, [1, 8]))]
                      + argv)
    assert looped["certified_counts"] == plain["certified_counts"] == {
        "ENTANGLED_NPT": 0, "SEPARABLE": 40320}
    assert looped["note"] == plain["note"]


def test_search_sampled_output_is_reproducible(capsys, graph_file):
    path = graph_file("petersen.graph", PETERSEN_TEXT)
    argv = ["search", path, "--p", "2", "--q", "5",
            "--budget", "200", "--seed", "99", "--json"]
    rc = main(argv)
    first = capsys.readouterr().out
    assert rc == 0
    rc = main(argv)
    second = capsys.readouterr().out
    assert rc == 0
    assert first == second  # byte-identical reruns
    blob = json.loads(first)
    assert blob["mode"] == "sampled" and blob["total"] == 200
    assert blob["seed"] == 99


def test_search_sampled_without_seed_uses_the_documented_default(capsys, graph_file):
    path = graph_file("petersen.graph", PETERSEN_TEXT)
    argv = ["search", path, "--p", "2", "--q", "5", "--budget", "50"]
    blob = run_json(capsys, argv + ["--json"])
    assert blob["mode"] == "sampled" and blob["seed"] == 20060111
    seeded = run_json(capsys, argv + ["--seed", "20060111", "--json"])
    assert blob == seeded
    assert main(argv) == 0
    assert "(sampled, total 50, seed 20060111)" in capsys.readouterr().out


def test_search_rejects_nonpositive_workers(capsys, graph_file):
    path = graph_file("petersen.graph", PETERSEN_TEXT)
    assert main(["search", path, "--p", "2", "--q", "5", "--budget", "10",
                 "--workers", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "workers" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv,quiet,warning", [
    (["search", "p4.graph", "--p", "2", "--q", "2", "--seed", "7"], 2,
     "exhaustive search ignores --seed; pass --budget to sample"),
    (["search", "p4.graph", "--p", "2", "--q", "2", "--workers", "3"], 2,
     "search ignores --workers 3; every verdict runs in this process"),
    (["probe", "--p", "2", "--q", "3", "--budget", "5"], 2,
     "exhaustive probe at 2x3 ignores --budget"),
    (["probe", "--p", "2", "--q", "2", "--seed", "5"], 2,
     "exhaustive probe at 2x2 ignores --seed"),
    (["probe", "--p", "2", "--q", "3", "--seed", "5", "--budget", "5"], 4,
     "exhaustive probe at 2x3 ignores --budget and --seed"),
])
def test_ignored_inputs_warn_once(capsys, graph_file, argv, quiet, warning):
    """One stderr line names what the run ignored; the JSON is the one the
    run gives without those options (the last `quiet` arguments)."""
    argv = pinned_argv(graph_file, argv)
    out, err = run_text(capsys, argv + ["--json"])
    assert err == f"warning: {warning}\n"
    assert run_text(capsys, argv[:-quiet] + ["--json"]) == (out, "")


def test_used_inputs_do_not_warn(capsys, graph_file):
    path = graph_file("petersen.graph", PETERSEN_TEXT)
    for argv in (["search", path, "--p", "2", "--q", "5", "--budget", "20", "--seed", "3",
                  "--workers", "1"],
                 ["probe", "--p", "2", "--q", "4", "--budget", "20", "--seed", "3"]):
        assert run_text(capsys, argv)[1] == ""


def test_analyze_without_a_constructive_route(capsys, graph_file):
    # PPT: the entangled edges 1-9, 3-4 and 6-7 move to 3-7, 1-6 and 4-9,
    # and every cell keeps its degree; but each is the one arc of its row
    # pair, which nothing balances, so the builder finds no decomposition
    text, p, q = "n 9\ne 1 9\ne 2 3\ne 3 4\ne 6 7\n", 3, 3
    blob = run_json(capsys, ["analyze", graph_file("g.graph", text),
                             "--p", str(p), "--q", str(q), "--json"])
    assert blob["verdict"]["status"] == "PPT_INCONCLUSIVE" and blob["decomposition"] is None
    # the partial transpose of L/2m in the default labeling's vertex basis, by hand
    n = p * q
    pt = cli_laplacian_state(blob).reshape(p, q, p, q).transpose(0, 3, 2, 1).reshape(n, n)
    low = np.linalg.eigvalsh(pt).min()
    assert abs(low) < 1e-12 and abs(blob["verdict"]["min_pt_eigenvalue"] - low) < 1e-12


def cli_laplacian_state(blob):
    """L/2m of analyze's graph, in the vertex basis, from its 1-based edges."""
    n = blob["graph"]["n"]
    lap = np.zeros((n, n))
    for u, v in blob["graph"]["edges"]:
        lap[[u - 1, v - 1], [u - 1, v - 1]] += 1
        lap[[u - 1, v - 1], [v - 1, u - 1]] -= 1
    return lap / np.trace(lap)


def cli_mixture_residual(blob):
    """Largest entry of sum weight |x><x| - L/2m, x = left (x) right read at
    each vertex's cell, over analyze's reported decomposition."""
    q, n = blob["labeling"]["q"], blob["graph"]["n"]
    cells = [s * q + t for s, t in blob["labeling"]["cells"]]
    mix = np.zeros((n, n), dtype=complex)
    for prod in blob["decomposition"]["states"]:
        left, right = (np.array([complex(*z) for z in prod[k]]) for k in ("left", "right"))
        x = np.kron(left, right)[cells]
        mix += prod["weight"] * np.outer(x, x.conj())
    return np.abs(mix - cli_laplacian_state(blob)).max()


@pytest.mark.parametrize("text,p,q,ppt_status", [
    # the entangled edges 1-5 and 2-4 are the arcs 0 -> 1 and 1 -> 0 of one
    # row pair: a 2-cycle, though it spans only four vertices
    ("n 6\ne 1 3\ne 1 5\ne 2 3\ne 2 4\n", 2, 3, "SEPARABLE"),
    # the same criss-cross between rows 0 and 1 of three: that row pair balances
    ("n 9\ne 1 5\ne 2 4\n", 3, 3, "PPT_INCONCLUSIVE"),
], ids=["2x3", "3x3"])
def test_analyze_certifies_by_directed_cycles(capsys, graph_file, text, p, q, ppt_status):
    blob = run_json(capsys, ["analyze", graph_file("g.graph", text),
                             "--p", str(p), "--q", str(q), "--json"])
    assert blob["verdict"]["ppt_status"] == ppt_status
    assert blob["verdict"]["status"] == "SEPARABLE"
    dec = blob["decomposition"]
    assert dec["route"] == "directed-cycles" and dec["terms"] == len(blob["graph"]["edges"])
    assert cli_mixture_residual(blob) < 1e-15


@pytest.mark.parametrize("text,p,q,labeling,ppt_status", [
    # one row edge and one column edge on the 3x3 grid
    ("n 9\ne 1 2\ne 1 4\n", 3, 3, None, "PPT_INCONCLUSIVE"),
    # column edges 1-7 (rows 0, 3) and 2-5 (rows 2, 0: read from the lower row
    # first), and the row edge 2-6, under a labeling that is not the default
    ("n 8\ne 1 7\ne 2 5\ne 2 6\n", 4, 2, "1=0.0,2=2.1,3=1.0,4=1.1,5=0.1,6=2.0,7=3.0,8=3.1",
     "PPT_INCONCLUSIVE"),
    # two row edges on two rows: product edges, not a criss-cross matching
    ("n 4\ne 1 2\ne 3 4\n", 2, 2, None, "SEPARABLE"),
], ids=["3x3", "4x2", "2x2"])
def test_analyze_certifies_graphs_without_entangled_edges(capsys, graph_file, text, p, q,
                                                          labeling, ppt_status):
    argv = ["analyze", graph_file("g.graph", text), "--p", str(p), "--q", str(q), "--json"]
    blob = run_json(capsys, argv + (["--labeling", labeling] if labeling else []))
    assert blob["entangled_edges"] == []
    assert blob["verdict"]["ppt_status"] == ppt_status
    assert blob["verdict"]["status"] == "SEPARABLE"
    dec = blob["decomposition"]
    assert dec["route"] == "product-edges" and dec["terms"] == len(blob["graph"]["edges"])
    assert cli_mixture_residual(blob) < 1e-15


def traced_calls(argv, names):
    """Run main(argv) under a profile hook: the (event, function name) of
    each call into and return from a Python function named in names."""
    events = []

    def hook(frame, event, arg):
        if event in ("call", "return") and frame.f_code.co_name in names:
            events.append((event, frame.f_code.co_name))

    sys.setprofile(hook)
    try:
        rc = main(argv)
    finally:
        sys.setprofile(None)
    assert rc == 0
    return events


def test_analyze_builds_and_checks_each_decomposition_once(capsys, graph_file):
    k6 = "n 6\n" + "".join(f"e {u} {v}\n" for u, v in itertools.combinations(range(1, 7), 2))
    # 1-5, 2-6 and 3-4 cross the rows as one pe-matching; 1-2 is a row edge
    matching = "n 6\ne 1 5\ne 2 6\ne 3 4\ne 1 2\n"
    names = {"verify_separable_decomposition", "separable_decomposition", "eigvalsh"}
    for text, route in ((k6, "complete-graph"), (matching, "criss-cross-matching")):
        argv = ["analyze", graph_file("g.graph", text), "--p", "2", "--q", "3", "--json"]
        events = traced_calls(argv, names)
        assert json.loads(capsys.readouterr().out)["decomposition"]["route"] == route
        assert events.count(("call", "verify_separable_decomposition")) == 1
    # the builder makes and checks its states without an eigensolve
    start = events.index(("call", "separable_decomposition"))
    end = events.index(("return", "separable_decomposition"))
    assert ("call", "eigvalsh") in events[:start]  # the PPT verdict's own eigenvalue
    assert ("call", "eigvalsh") not in events[start:end]


@pytest.mark.parametrize("name,p,q", [("k12.graph", 3, 4), ("cols6.graph", 3, 2),
                                      ("rows6.graph", 2, 3)])
def test_decomposition_stacks_are_built_once(capsys, graph_file, monkeypatch, name, p, q):
    """The record verify_separable_decomposition checks and the record
    _render writes hold _cycle_factors's own stacks, swapped by the
    transposed pass at p x 2, and no copy of them."""
    built, checked, rendered = [], [], []
    factors, verify, render = (separability._cycle_factors,
                               separability.verify_separable_decomposition, cli._render)
    monkeypatch.setattr(separability, "_cycle_factors",
                        lambda *a: built.append(factors(*a)) or built[-1])
    monkeypatch.setattr(separability, "verify_separable_decomposition",
                        lambda rho, states, lab=None: checked.append(states)
                        or verify(rho, states, lab))
    monkeypatch.setattr(cli, "_render", lambda obj, indent: (
        type(obj) is ProductStates and rendered.append(obj)) or render(obj, indent))
    argv = pinned_argv(graph_file, ["analyze", name, "--p", str(p), "--q", str(q), "--json"])
    run_text(capsys, argv)
    *refused, (left, right, _) = built
    if q == 2:  # only the transposed pass balances, and its factors come swapped
        left, right = right, left
    assert refused == ([None] if q == 2 else [])
    assert len(checked) == len(rendered) == 1 and checked[0] is rendered[0]
    assert np.shares_memory(checked[0].left, left) and np.shares_memory(checked[0].right, right)


def test_search_builds_no_decomposition_for_a_non_complete_graph(capsys, graph_file):
    # analyze certifies this 2x3 graph by its criss-cross pe-matching, but
    # only a complete graph decomposes under every labeling, which is all
    # search reports
    matching = graph_file("g.graph", "n 6\ne 1 5\ne 2 6\ne 3 4\ne 1 2\n")
    names = {"separable_decomposition", "complete_graph_decomposition",
             "verify_separable_decomposition"}
    events = traced_calls(["search", matching, "--p", "2", "--q", "3", "--json"], names)
    assert events == []
    assert "certified_counts" not in json.loads(capsys.readouterr().out)
    k6 = graph_file("k6.graph", PINNED_FILES["k6.graph"])
    events = traced_calls(["search", k6, "--p", "2", "--q", "3", "--json"], names)
    assert ("call", "complete_graph_decomposition") in events
    assert "certified_counts" in json.loads(capsys.readouterr().out)


def test_each_job_solves_each_matrix_once(capsys, graph_file):
    """analyze solves the state (eigh) and its partial transpose (eigvalsh)
    once each; entropy --order reuses the state's one spectrum."""
    path = graph_file("k6.graph", PINNED_FILES["k6.graph"])
    names = {"eigh", "eigvalsh"}
    events = traced_calls(["analyze", path, "--p", "2", "--q", "3", "--json"], names)
    assert sorted(e for e in events if e[0] == "call") == [("call", "eigh"),
                                                           ("call", "eigvalsh")]
    events = traced_calls(["entropy", path, "--order", "2", "--json"], names)
    assert [e for e in events if e[0] == "call"] == [("call", "eigh")]
    capsys.readouterr()


def test_linalg_error_is_precondition_failure(capsys, graph_file, monkeypatch):
    def broken(_):
        raise LinalgError("matrix is not Hermitian")

    monkeypatch.setattr(entropy, "eigensystem", broken)
    path = graph_file("p4.graph", P4_TEXT)
    assert main(["analyze", path, "--p", "2", "--q", "2"]) == 2
    assert capsys.readouterr().err == "error: matrix is not Hermitian\n"


def test_complete_graph_decomposition_must_verify(capsys, graph_file, monkeypatch):
    monkeypatch.setattr(separability, "verify_separable_decomposition", lambda *a, **k: False)
    path = graph_file("k4.graph", K4_TEXT)
    assert_one_line_error(capsys, ["analyze", path, "--p", "2", "--q", "2"],
                          "complete-graph decomposition failed to reconstruct")


def test_probe_small_dimensions_exhaustive(capsys):
    blob = run_json(capsys, ["probe", "--p", "2", "--q", "2", "--json"])
    single = blob["single_entangled_edge"]
    assert single["instances"] == 32
    assert single["verdicts"] == {"ENTANGLED_NPT": 32}
    assert single["conclusion"] == "no counterexample found"
    conc = blob["entangled_edges_at_one_vertex"]
    assert conc["conclusion"] == "no counterexample found"
    assert conc["counterexamples"] == []


def test_entropy_json_with_order(capsys, graph_file):
    path = graph_file("p4.graph", P4_TEXT)
    blob = run_json(capsys, ["entropy", path, "--order", "2", "--json"])
    assert abs(blob["max_for_dimension"] - math.log2(3)) < 1e-12
    assert 0 < blob["entropy"] < blob["max_for_dimension"]
    spectrum = blob["spectrum"]
    assert len(spectrum) == 4 and abs(sum(spectrum) - 1.0) < 1e-10
    lams = [v for v in spectrum if v > 1e-12]
    want = sum(v ** 2 for v in lams) ** 0.5
    assert blob["q_entropy"]["order"] == 2.0
    assert abs(blob["q_entropy"]["value"] - want) < 1e-10
    assert abs(blob["purity"] - sum(v ** 2 for v in lams)) < 1e-10


def test_entropy_rejects_bad_order(capsys, graph_file):
    path = graph_file("p4.graph", P4_TEXT)
    assert main(["entropy", path, "--order", "0.5"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("order", ["nan", "inf"])
def test_entropy_rejects_non_finite_order(capsys, graph_file, order):
    path = graph_file("p4.graph", P4_TEXT)
    assert main(["entropy", path, "--order", order, "--json"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: q must be a finite number above 1")
    assert out.err.count("\n") == 1


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_analyze_rejects_bad_tol(capsys, graph_file, tol):
    # one entangled edge: the PT has eigenvalue -1/2, so nan or inf would
    # have called it SEPARABLE, and -1 calls every PPT state entangled
    path = graph_file("e14.graph", "n 4\ne 1 4\n")
    assert main(["analyze", path, "--p", "2", "--q", "2", "--tol", tol]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: --tol") and out.err.count("\n") == 1
    blob = run_json(capsys, ["analyze", path, "--p", "2", "--q", "2", "--json"])
    assert blob["verdict"]["status"] == "ENTANGLED_NPT"
    assert abs(blob["verdict"]["min_pt_eigenvalue"] + 0.5) < 1e-12


def test_missing_subcommand_exits_with_usage():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# exact verdicts: output pinned, certified in integers, --tol read by none


def run_text(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    assert rc == 0, out.err
    return out.out, out.err


# P4 with its middle edge 2-3 entangled
INTERLEAVED = "1=0.0,2=1.0,3=0.1,4=1.1"
PINNED_FILES = {
    "p4.graph": P4_TEXT,
    "k4.graph": K4_TEXT,
    "k6.graph": "n 6\n" + "".join(
        f"e {u} {v}\n" for u in range(1, 7) for v in range(u + 1, 7)),
    "cross8.graph": "n 8\ne 1 6\ne 2 5\ne 3 8\ne 4 7\n",  # two criss-crosses at 2x4
    "c5.graph": "n 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n",
    "c12.graph": "n 12\n" + "".join(f"e {v} {v % 12 + 1}\n" for v in range(1, 13)),
    "k12.graph": "n 12\n" + "".join(
        f"e {u} {v}\n" for u in range(1, 13) for v in range(u + 1, 13)),
    # at 3x3 the arcs 0->1->2->0 of rows 0, 1 and 0<->1 of rows 1, 2; 7-8 and 1-7 separable
    "cycles9.graph": "n 9\ne 1 5\ne 2 6\ne 3 4\ne 4 8\ne 5 7\ne 7 8\ne 1 7\n",
    "rows6.graph": "n 6\ne 1 2\ne 2 3\ne 1 4\ne 5 6\n",  # no entangled edge at 2x3
    # at 3x2 three row pairs hold one arc each: only the transposed 2x3 pass balances
    "cols6.graph": "n 6\ne 1 2\ne 1 4\ne 2 5\ne 3 6\n",
    "edits.txt": "del-edge 1 2\nadd-edge 1 3\ndel-vertex 5\nadd-vertex\n",
    "empty4.graph": "n 4\n",
}


def pinned_argv(graph_file, argv):
    return [graph_file(a, PINNED_FILES[a]) if a in PINNED_FILES else a for a in argv]


PINNED_OUTPUTS = [
    (["probe", "--p", "2", "--q", "2"], "d61266bdd670fc11"),
    (["probe", "--p", "2", "--q", "3"], "b07847ce9717866b"),
    (["probe", "--p", "2", "--q", "4"], "748dff10af907928"),
    (["census4"], "824c9aeb2406c0cc"),
    # spectrum[0], the kernel of L, reads 0.0 (was 1.69e-17)
    (["analyze", "p4.graph", "--p", "2", "--q", "2", "--labeling", INTERLEAVED],
     "86a62ee6ed3771f1"),
    # spectrum[0] reads 0.0 (was -2.8e-17), and decomposition.states lists
    # the criss-cross pairs as 2-cycles, then the separable edges in edge order
    (["analyze", "k6.graph", "--p", "2", "--q", "3"], "01cfc7054033e4ce"),
    (["analyze", "cross8.graph", "--p", "2", "--q", "4"], "6d657eb4825ce122"),
    # certified edits report the edited graph's own state (see below)
    (["channel", "c5.graph", "--script", "edits.txt"], "c1c2594f500fbce8"),
    (["census4", "--csv", "-"], "fcf89dc12cd1bdea"),  # the CSV wins over --json
    # one report per route shape: directed cycles at 3x3, product edges, the
    # transposed pass at 3x2, and K12's 66 states at 3x4
    (["analyze", "cycles9.graph", "--p", "3", "--q", "3"], "5ba9210014f265f3"),
    (["analyze", "rows6.graph", "--p", "2", "--q", "3"], "7575936dc250f6db"),
    (["analyze", "cols6.graph", "--p", "3", "--q", "2"], "2701f9fc554e36ea"),
    (["analyze", "k12.graph", "--p", "3", "--q", "4"], "90f30c00fbf375a1"),
]


@pytest.mark.parametrize("argv,digest", PINNED_OUTPUTS)
def test_census_json_is_pinned(capsys, graph_file, argv, digest):
    # sha256 of each output before its verdicts and probabilities became exact
    out, err = run_text(capsys, pinned_argv(graph_file, argv) + ["--json"])
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest
    assert err == ""


def test_pinned_channel_output_is_the_hand_built_states(capsys, graph_file):
    """The pinned channel JSON reports, after each edit, L/2m of the edited
    graph, each entry the correctly rounded Fraction, with trace 1.0, error
    0.0 and click probability 1.0; the edited graphs are worked out by hand
    from edits.txt on C5."""
    argv = pinned_argv(graph_file, ["channel", "c5.graph", "--script", "edits.txt", "--json"])
    out, _ = run_text(capsys, argv)
    edited = [  # (vertex count, 1-based edges) after each edit
        (5, [(2, 3), (3, 4), (4, 5), (1, 5)]),          # del-edge 1 2
        (5, [(1, 3), (2, 3), (3, 4), (4, 5), (1, 5)]),  # add-edge 1 3
        (4, [(1, 3), (2, 3), (3, 4)]),                  # del-vertex 5
        (5, [(1, 3), (2, 3), (3, 4)]),                  # add-vertex
    ]
    steps = json.loads(out)["steps"]
    assert len(steps) == len(edited)
    for step, (n, edges) in zip(steps, edited):
        lap = [[0] * n for _ in range(n)]
        for u, v in edges:
            lap[u - 1][u - 1] += 1
            lap[v - 1][v - 1] += 1
            lap[u - 1][v - 1] -= 1
            lap[v - 1][u - 1] -= 1
        want = [[float(Fraction(x, 2 * len(edges))) for x in row] for row in lap]
        assert step["state"] == want
        assert step["trace"] == 1.0 and step["max_error_vs_graph_state"] == 0.0
        assert step.get("click_probability", 1.0) == 1.0
    assert [("click_probability" in s) for s in steps] == [False, False, True, True]


@pytest.mark.parametrize("name,p,q,labeling", [
    ("p4.graph", 2, 2, INTERLEAVED),
    ("k6.graph", 2, 3, None),
], ids=["p4-interleaved", "k6-2x3"])
def test_pinned_pt_spectrum_is_one_eigvalsh(capsys, graph_file, name, p, q, labeling):
    """The pinned analyze outputs' pt_spectrum is numpy's eigvalsh of the
    partial transpose of L/2m, built here from the graph file and the
    labeling's cells, bit for bit."""
    argv = ["analyze", name, "--p", str(p), "--q", str(q), "--json"]
    blob = run_json(capsys, pinned_argv(graph_file, argv + (["--labeling", labeling]
                                                            if labeling else [])))
    n = p * q
    cells = list(range(n))  # the default labeling puts vertex v in cell v
    if labeling:
        for item in labeling.split(","):
            v, st = item.split("=")
            s, t = st.split(".")
            cells[int(v) - 1] = int(s) * q + int(t)
    lap = np.zeros((n, n))
    for line in PINNED_FILES[name].splitlines()[1:]:
        u, v = (int(w) - 1 for w in line.split()[1:])
        lap[[u, v], [u, v]] += 1
        lap[[u, v], [v, u]] -= 1
    by_cell = np.zeros((n, n))
    by_cell[np.ix_(cells, cells)] = lap / np.trace(lap)
    pt = by_cell.reshape(p, q, p, q).transpose(0, 3, 2, 1).reshape(n, n)[np.ix_(cells, cells)]
    assert blob["pt_spectrum"] == np.linalg.eigvalsh(pt).tolist()
    assert blob["verdict"]["min_pt_eigenvalue"] == blob["pt_spectrum"][0]


# sampled at seed 3, the eigenvalue test at --tol 1e-3 used to call 13 of
# these 200 labelings PPT that the default tolerance calls NPT
DENSE10_TEXT = "n 10\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in [
    (0, 1), (0, 3), (0, 4), (0, 5), (0, 8), (0, 9), (1, 2), (1, 3), (1, 5),
    (1, 6), (1, 8), (1, 9), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8),
    (2, 9), (3, 5), (3, 6), (3, 8), (4, 5), (4, 6), (4, 8), (4, 9), (5, 7),
    (5, 8), (6, 8), (6, 9), (7, 8), (7, 9), (8, 9)])


def test_search_verdicts_do_not_read_tol(capsys, graph_file):
    path = graph_file("dense10.graph", DENSE10_TEXT)
    argv = ["search", path, "--p", "2", "--q", "5", "--budget", "200", "--seed", "3",
            "--json"]
    default, err = run_text(capsys, argv)
    assert err == ""
    assert json.loads(default)["counts"] == {
        "ENTANGLED_NPT": 199, "PPT_INCONCLUSIVE": 1, "SEPARABLE": 0}
    loose, _ = run_text(capsys, argv + ["--tol", "1e-3"])
    assert loose == default


def test_tol_leaves_every_output_unchanged(capsys, graph_file):
    # P4's NPT witness has smallest PT eigenvalue (1 - sqrt 2)/6 = -0.069,
    # which a float test at --tol 0.1 would call PPT
    path = graph_file("p4.graph", P4_TEXT)
    analyze = ["analyze", path, "--p", "2", "--q", "2", "--labeling", INTERLEAVED, "--json"]
    verdict = run_json(capsys, analyze)["verdict"]
    assert verdict["status"] == "ENTANGLED_NPT" and -0.1 < verdict["min_pt_eigenvalue"] < 0
    for argv, tol in ((["search", path, "--p", "2", "--q", "2", "--json"], "0.1"),
                      (analyze, "0.1"), (["census4", "--json"], "1")):
        default = run_text(capsys, argv)
        assert default[1] == "" and run_text(capsys, argv + ["--tol", tol]) == default


def test_probe_reports_counterexample_eigenvalues(capsys, monkeypatch):
    # no probed graph is PPT: calling every instance PPT is an internal fault
    # the integer certificate catches
    monkeypatch.setattr(cli, "ppt_verdicts", lambda *a: np.ones(len(a[4]), dtype=bool))
    assert main(["probe", "--p", "2", "--q", "2", "--json"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert out.err.startswith("internal error: integer certificate x^T M x = -")
    # past the certificate, each counterexample reports the smallest PT
    # eigenvalue of a PPT graph state, exactly 0
    monkeypatch.setattr(cli, "certify_ppt_verdicts", lambda pts, ppt: None)
    blob = json.loads(run_text(capsys, ["probe", "--p", "2", "--q", "2", "--json"])[0])
    part = blob["single_entangled_edge"]
    assert part["verdicts"] == {"SEPARABLE": 32}
    assert len(part["counterexamples"]) == 10
    assert all(c["min_pt_eigenvalue"] == 0.0 for c in part["counterexamples"])
    # the two entangled pairs at 2x2 share no vertex: no concentrated part
    assert blob["entangled_edges_at_one_vertex"]["instances"] == 0
    out, err = run_text(capsys, ["probe", "--p", "2", "--q", "2"])
    assert out.count("counterexample edges:") == 10 and err == ""


@pytest.mark.parametrize("argv", [
    ["search", "cross8.graph", "--p", "2", "--q", "4"],
    ["search", "c12.graph", "--p", "3", "--q", "4", "--budget", "300", "--seed", "4"],
    ["probe", "--p", "2", "--q", "3"],
    ["probe", "--p", "2", "--q", "4"],
    ["census4"],
], ids=["search-2x4", "search-3x4-sampled", "probe-2x3", "probe-2x4", "census4"])
def test_census_path_runs_no_pt_eigensolve(capsys, graph_file, monkeypatch, argv):
    """search and probe run no eigensolver at all, and census4, whose
    concurrences need eigensolves, none of the PT; each output is the
    unpatched one, and a pinned one keeps its digest."""
    digest = dict((tuple(a), d) for a, d in PINNED_OUTPUTS).get(tuple(argv))
    argv = pinned_argv(graph_file, argv) + ["--json"]
    want = run_text(capsys, argv)

    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called")

    if argv[0] == "census4":  # wherever a graphdm module binds the PT kernel
        for module in [m for name, m in sys.modules.items() if name.startswith("graphdm.")]:
            if hasattr(module, "min_pt_eigenvalues"):
                monkeypatch.setattr(module, "min_pt_eigenvalues", refuse)
    else:
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert run_text(capsys, argv) == want
    assert digest in (None, hashlib.sha256(want[0].encode()).hexdigest()[:16])


def test_probe_draws_match_scalar_draws():
    n, q, budget, seed = 8, 4, 300, 17
    pairs = list(itertools.combinations(range(n), 2))
    cells = [divmod(v, q) for v in range(n)]
    ent = [i for i, (u, v) in enumerate(pairs)
           if cells[u][0] != cells[v][0] and cells[u][1] != cells[v][1]]
    plain = [i for i in range(len(pairs)) if i not in ent]
    # the per-instance draws of the scalar loop the vectorized one replaced
    rng = np.random.default_rng(seed)
    per_vertex = {v: [i for i in ent if v in pairs[i]] for v in range(n)}
    want = []
    for _ in range(budget):
        extras = [plain[i] for i in range(len(plain)) if rng.integers(0, 2)]
        if rng.integers(0, 2):
            pick = [ent[rng.integers(0, len(ent))]]
        else:
            options = per_vertex[int(rng.integers(0, n))]
            if len(options) < 2:
                pick = [ent[rng.integers(0, len(ent))]]
            else:
                k = int(rng.integers(2, len(options) + 1))
                pick = rng.choice(options, size=k, replace=False).tolist()
        want.append((len(pick) == 1, sorted(set(pick) | set(extras))))
    present, single = cli._probe_sampled(pairs, ent, n, budget, seed)
    assert [(bool(s), np.flatnonzero(row).tolist())
            for s, row in zip(single, present)] == want


def parse_outcome(capsys, parse):
    """(namespace or exit code, stdout, stderr) of one parse."""
    try:
        result = parse()
    except SystemExit as exc:
        result = exc.code
    out = capsys.readouterr()
    return result, out.out, out.err


@pytest.mark.parametrize("argv", [
    ["analyze", "g", "--p", "2", "--q=2", "--labeling", "1=0.0", "--tol", "0", "--json"],
    ["census4", "--csv", "-"],
    ["channel", "g", "del-edge 1 2", "add-vertex", "--script", "s", "--dump-operators"],
    ["search", "g", "--p", "2", "--q", "2", "--budget", "5", "--seed", "1", "--workers", "2"],
    ["probe", "--p", "2", "--q", "4", "--budget", "-3"],
    ["entropy", "g", "--ord", "2"],  # an abbreviation the command's parser expands
    [], ["nope", "g"], ["-h"], ["-h", "entropy"], ["entropy", "-h"], ["channel", "g", "--help"],
    ["--json", "entropy", "g"], ["entropy", "g", "--bogus"], ["search", "g", "--p", "2", "-x"],
    ["entropy", "g", "extra"], ["analyze", "g", "h", "--p", "2"], ["search", "g", "--budget", "x"],
    ["analyze"], ["entropy", "--json"], ["channel", "g", "--", "--not-an-option"],
    ["entropy", "--", "g"], ["--", "entropy", "g"],
])
def test_main_parses_as_parse_args(capsys, monkeypatch, argv):
    top, seen, scans = cli._parser(), [], []
    for name in top.commands:
        monkeypatch.setattr(cli, f"cmd_{name}", seen.append)

    def via_main():
        parse_known_args = type(top).parse_known_args
        monkeypatch.setattr(top, "parse_known_args",
                            lambda *a, **k: scans.append(1) or parse_known_args(top, *a, **k))
        try:
            assert main(list(argv)) == 0
        finally:
            monkeypatch.delattr(top, "parse_known_args")
        return seen.pop()

    assert (parse_outcome(capsys, via_main)
            == parse_outcome(capsys, lambda: top.parse_args(list(argv))))
    # the top parser scans only an argv that names no command
    assert bool(scans) == (not argv or argv[0] not in top.commands)


def test_component_count_runs_once_per_job(capsys, graph_file, monkeypatch):
    calls = []
    count = graphs.component_count
    monkeypatch.setattr(cli, "component_count", lambda g: calls.append(g.n) or count(g))
    monkeypatch.setattr(entropy, "component_count", lambda g: calls.append(g.n) or count(g))
    path = graph_file("two.graph", "n 4\ne 1 2\ne 3 4\n")
    for argv in (["analyze", path, "--p", "2", "--q", "2"], ["entropy", path]):
        calls.clear()
        # the entropy kernel's count is the summary's
        assert run_json(capsys, argv + ["--json"])["graph"]["components"] == 2
        run_text(capsys, argv)
        assert calls == [4, 4]
    rho = density.density_of_graph(graphs.parse_graph("n 4\ne 1 2\ne 3 4\n"))
    assert entropy.von_neumann_entropy(rho).kernel == 2
    assert entropy.von_neumann_entropy(density.sigma_plus(rho.origin)).kernel is None


def test_parser_is_built_once_and_dispatches_by_name(capsys, graph_file, monkeypatch):
    assert cli._parser() is cli._parser()
    calls = []
    monkeypatch.setattr(cli, "cmd_entropy", calls.append)
    path = graph_file("p4.graph", P4_TEXT)
    assert main(["entropy", path]) == 0
    assert [a.graph for a in calls] == [path]


# ---------------------------------------------------------------------------
# --json rendering: json.dumps(sort_keys=True, indent=2) byte for byte

# strings that look like the separators the number-list and record paths rewrite
TEXT = st.one_of(st.sampled_from(['", "', '"], ["', "], [", ", ", "[1, 2]", "a\nb", "é ☃ 𝄞",
                                  "\\", '"', "", ": ", "}, {", '"}, {"', '": "']),
                 st.text(max_size=6))
FLOAT = st.one_of(st.floats(), st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
                  st.floats().map(np.float64))
NUMBER = st.one_of(st.integers(), FLOAT, st.booleans())
SCALAR = st.one_of(st.none(), TEXT, NUMBER)


@st.composite
def exact_matrices(draw):
    """A HermitianMatrix: a symmetric integer matrix over a positive den."""
    n = draw(st.integers(0, 4))
    entry = st.one_of(st.integers(-3, 12), st.integers(-2 ** 53, 2 ** 53))
    upper = {(i, j): draw(entry) for i in range(n) for j in range(i, n)}
    rows = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    den = draw(st.one_of(st.integers(1, 40), st.integers(1, 2 ** 53)))
    return HermitianMatrix(np.array(rows, dtype=np.int64).reshape(n, n), den=den)


@st.composite
def product_states(draw):
    """A ProductStates record: K from 1 to 8 states, p and q from 1 to 6,
    each float drawn from the edge cases or from a few values, so that many
    repeat."""
    k, p, q = draw(st.integers(1, 8)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    pool = draw(st.lists(st.floats(), min_size=1, max_size=3))
    entry = st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                                       -5e-324, 1 / math.sqrt(2)] + pool), st.floats())

    def stack(*shape):
        return np.array([draw(entry) for _ in range(math.prod(shape))]).reshape(shape)

    left, right = (stack(k, d, 2).view(complex)[..., 0] for d in (p, q))
    return ProductStates(left, right, stack(k))


def float_rows(obj):
    """json.dumps's default= for the renderer's reference: a matrix's float
    rows, and a record's states, each a dict of its weight and its factors
    as [re, im] pairs."""
    if isinstance(obj, HermitianMatrix):
        return obj.to_real().tolist()
    if isinstance(obj, ProductStates):
        def pairs(row):
            return [[z.real, z.imag] for z in row]

        return [{"left": pairs(x), "right": pairs(y), "weight": w} for x, y, w in
                zip(obj.left.tolist(), obj.right.tolist(), obj.weights.tolist())]
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def reference(obj):
    return json.dumps(obj, sort_keys=True, indent=2, default=float_rows)


PAYLOAD = st.recursive(
    st.one_of(SCALAR, st.lists(NUMBER, max_size=6),
              st.lists(st.lists(NUMBER, max_size=4), max_size=4),  # rows, some empty
              st.lists(st.tuples(NUMBER, NUMBER), max_size=3), exact_matrices(),
              product_states(),
              st.lists(st.dictionaries(TEXT, SCALAR, max_size=3), max_size=4)),  # records
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(TEXT, inner, max_size=4),
        st.dictionaries(st.integers(), inner, min_size=1, max_size=2)),  # json.dumps renders
    max_leaves=30)


@settings(max_examples=250, deadline=None)
@given(PAYLOAD)
@example({"state": [[0.5, -0.0], [float("nan"), True]], "edges": [(1, 2), (2, 3)],
          "note": '[1.0, 2.0], [3.0]', "empty": [[], {}, [[]]], "x": np.float64(0.1)})
@example([[1, 2], ["], [", 3]])
@example({"state": HermitianMatrix([[2, -1], [-1, 2]], den=6), "zero": HermitianMatrix.zeros(1),
          "empty": HermitianMatrix.zeros(0), "keyed": {1: HermitianMatrix.identity(2)}})
@example([{"projector": "plus(1-2)", "probability": 0.25}, {"x": -0.0, "y": None, "z": True}])
@example({"decomposition": {"states": ProductStates(
    np.array([[complex(-0.0, 0.0), complex(math.nan, math.inf)],
              [complex(0.0, -math.inf), complex(5e-324, 0.0)]]),
    np.array([[complex(0.5, -0.0)], [complex(0.5, 0.0)]]), np.array([0.5, 0.5]))}})
@example(ProductStates(np.array([[complex(-0.0, 0.0)]]), np.array([[complex(0.0, -0.0)]]),
                       np.array([-0.0])))
def test_renderer_matches_json_dumps(obj):
    assert cli._dumps(obj) == reference(obj)


@pytest.mark.parametrize("records,one_encode", [
    ([{"projector": "plus(1-2)", "probability": 0.25}, {"projector": "vertex(3)", "x": 1}], True),
    ([{"a\\b": '"quoted"', "c": "\\"}, {'"': "\\\"", "e": math.nan}], True),
    ([{"a, b": 1}, {"c": 2}], False),
    ([{"a": 1}, {"c": "x, y"}], False),
    ([{"a: b": 1, "c": 2}], False),
    ([{"a": 1, "b": "x: y"}], False),
    ([{"a": "}, {"}, {"b": 2}], False),
    ([{'"}, {"': 1}, {"b": 2}], False),
    ([{"a": '\\", "'}, {"b": '": "\\'}], False),
    ([{"k": 'x\\": "y', "j": "\\}, {\\"}], False),
])
def test_flat_records_take_one_encode_unless_a_string_holds_a_separator(monkeypatch, records,
                                                                       one_encode):
    encoded = []
    encode = cli._C_ENCODE
    monkeypatch.setattr(cli, "_C_ENCODE",
                        lambda obj, level: encoded.append(obj) or encode(obj, level))
    assert cli._dumps({"records": records}) == reference({"records": records})
    # refused, the compact text is dropped and each record rendered on its own
    assert encoded[0] is records and (len(encoded) == 1) == one_encode


def test_renderer_leaves_unknown_values_to_json_dumps(monkeypatch):
    for bad, message in (({"a": [np.int64(1)]}, "int64 is not JSON serializable"),
                         ({"a": np.bool_(True)}, "bool is not JSON serializable"),
                         ({"a": {1: 2, "b": 3}}, "'<' not supported")):
        with pytest.raises(TypeError, match=message):
            cli._dumps(bad)
    payload = {"b": [[1.5, 2]], "a": ["x, y"], "c": HermitianMatrix([[1, -1], [-1, 1]], den=2)}
    keyed = {"m": payload["c"], "k": {1: 2}}  # json.dumps renders the int key
    assert cli._dumps(keyed) == reference(keyed)
    monkeypatch.setattr(cli, "_C_ENCODE", None)  # an interpreter without the C encoder
    assert cli._dumps(payload) == reference(payload)


def test_every_subcommand_renders_without_json_dumps(capsys, graph_file, monkeypatch):
    def refuse(*_, **__):
        raise AssertionError("json.dumps")

    dumps = json.dumps
    monkeypatch.setattr(cli.json, "dumps", refuse)
    paths = {name: graph_file(name, text) for name, text in PINNED_FILES.items()}
    for argv in (["channel", paths["c5.graph"], "--script", paths["edits.txt"],
                  "--dump-operators"],
                 ["analyze", paths["cross8.graph"], "--p", "2", "--q", "4"],
                 ["analyze", paths["k12.graph"], "--p", "3", "--q", "4"],
                 ["analyze", paths["cols6.graph"], "--p", "3", "--q", "2"],
                 ["search", paths["p4.graph"], "--p", "2", "--q", "2"],
                 ["entropy", paths["c5.graph"], "--order", "2"],
                 ["probe", "--p", "2", "--q", "2"], ["census4"]):
        out, _ = run_text(capsys, argv + ["--json"])
        assert out == dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# misuse exits 2 with one line; default text output


def labeling(spec):
    return ["analyze", "p4.graph", "--p", "2", "--q", "2", "--labeling", spec]


@pytest.mark.parametrize("argv,message", [
    (labeling("5=0.0,2=0.1,3=1.0,4=1.1"), "vertex 5 out of range in labeling"),
    (labeling("1=0.0,1=0.1,3=1.0,4=1.1"), "vertex 1 labeled twice"),
    (labeling("1=0.0,2=01,3=1.0,4=1.1"), "bad labeling '1=0.0,2=01,3=1.0,4=1.1'"),
    (labeling("1=0.0,2=0.1,3=1.0"), "labeling must cover every vertex"),
    # flat indices 0..3 once each, from cells outside the grid
    (labeling("1=0.0,2=0.1,3=0.2,4=1.1"), "cell 0.2 is outside the 2x2 grid"),
    (labeling("1=0.0,2=1.-1,3=1.0,4=1.1"), "cell 1.-1 is outside the 2x2 grid"),
    (["analyze", "p4.graph", "--p", "2"], "this command needs --p and --q"),
    (["search", "p4.graph", "--q", "2"], "this command needs --p and --q"),
    (["analyze", "p4.graph", "--p", "1", "--q", "4"], "both parts need dimension at least 2"),
    (["channel", "p4.graph", ""], "empty edit"),
    (["channel", "p4.graph", "del-edge 1"], "'del-edge' needs two vertex numbers"),
    (["channel", "p4.graph", "del-vertex 1 2"], "'del-vertex' needs one vertex number"),
    (["channel", "p4.graph", "add-edge 1 x"], "bad vertex number in 'add-edge 1 x'"),
    (["channel", "p4.graph", "del-vertex x"], "bad vertex number in 'del-vertex x'"),
    (["channel", "p4.graph", "add-vertex 3"], "'add-vertex' takes no arguments"),
    (["channel", "p4.graph", "add-edge 2 2"], "an edge needs two distinct vertices"),
    (["channel", "p4.graph"], "no edits given"),
    (["probe", "--p", "3", "--q", "3"], "probe is limited to p*q <= 8, got 9"),
    (["probe", "--p", "2", "--q", "4", "--budget", "0"], "budget must be at least 1, got 0"),
    (["probe", "--p", "2", "--q", "4", "--budget", "-5"], "budget must be at least 1, got -5"),
    (["probe", "--p", "2", "--q", "4", "--seed", "-1"], "seed must be non-negative, got -1"),
    (["search", "p4.graph", "--p", "2", "--q", "2", "--budget", "5", "--seed", "-1"],
     "seed must be non-negative, got -1"),
    # sample budgets are capped before anything is drawn or allocated
    (["search", "p4.graph", "--p", "2", "--q", "2", "--budget", "1000001"],
     "sample budget must be at most 1000000, got 1000001"),
    (["search", "p4.graph", "--p", "2", "--q", "2", "--budget", str(10 ** 15)],
     f"sample budget must be at most 1000000, got {10 ** 15}"),
    (["probe", "--p", "2", "--q", "4", "--budget", "1000001"],
     "budget must be at most 1000000, got 1000001"),
    (["probe", "--p", "2", "--q", "4", "--budget", str(10 ** 15)],
     f"budget must be at most 1000000, got {10 ** 15}"),
    (["search", "empty4.graph", "--p", "2", "--q", "2"], "graph has no non-loop edge"),
])
def test_misuse_exits_2_with_one_error_line(capsys, graph_file, argv, message):
    assert_one_line_error(capsys, pinned_argv(graph_file, argv), message)


def test_unexpected_exception_exits_1_with_one_line(capsys, graph_file, monkeypatch):
    def broken(_):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli, "von_neumann_entropy", broken)
    assert main(["entropy", graph_file("p4.graph", P4_TEXT)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: division by zero\n"


@pytest.mark.parametrize("argv,lines", [
    (["census4"], [" id edges", "11 isomorphism classes exist on 4 vertices"]),
    (["channel", "c5.graph", "--script", "edits.txt"],
     ["start: 5 vertices, 5 edges", "del-edge 1 2: -> 5 vertices, 4 edges"]),
    (["search", "p4.graph", "--p", "2", "--q", "2"], ["labelings as 2x2 (exhaustive, total 24)"]),
    # a complete graph prints the note and the certified counts
    (["search", "k6.graph", "--p", "2", "--q", "3"],
     ["labelings as 2x3 (exhaustive, total 720)", "complete graph: an explicit",
      "certified counts: ENTANGLED_NPT=0 SEPARABLE=720"]),
    (["entropy", "c5.graph", "--order", "2"], ["graph: 5 vertices, 5 edges", "q-entropy (q=2): "]),
    # a certified decomposition is named on its own line
    (["analyze", "k4.graph", "--p", "2", "--q", "2"],
     ["graph: 4 vertices, 6 edges", "verdict: SEPARABLE",
      "decomposition: 6 product states via complete-graph"]),
])
def test_default_text_output(capsys, graph_file, argv, lines):
    out, err = run_text(capsys, pinned_argv(graph_file, argv))
    assert err == "" and "Traceback" not in out
    got = out.splitlines()
    assert got[0].startswith(lines[0])
    for line in lines[1:]:
        assert any(g.startswith(line) for g in got), line


def test_readme_flags_match_the_parser():
    """README's command-line section names exactly the options the parser has."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {opt for parser in sub.choices.values() for action in parser._actions
               for opt in action.option_strings if opt.startswith("--")} - {"--help"}
    assert documented == options


def test_help_states_the_sample_cap():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert separability.MAX_SAMPLES == 10 ** 6
    for name in ("search", "probe"):
        budget = next(a for a in sub.choices[name]._actions if "--budget" in a.option_strings)
        assert f"at most {separability.MAX_SAMPLES}" in budget.help
