"""Tests of the benchmark itself: inputs, output checks and tracing.

Run with `python3 -m pytest perfbench` from the repository root.
"""

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def round0(tmp_path, monkeypatch):
    """Round 0 of a workload with its files written under tmp_path."""
    monkeypatch.chdir(tmp_path)

    def make(workload, seed=3):
        jobs = workloads.make_round(workload, seed, 0, "in")
        workloads.write_files(tmp_path, jobs)
        return jobs
    return make


def run_ok(job):
    rc, _, text, err = worker.run_job(job["argv"])
    assert rc == 0, err
    out = json.loads(text)
    assert oracles.check(job, out) is None
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    for r in (0, 1):
        a = workloads.make_round(workload, 7, r, "x")
        assert a == workloads.make_round(workload, 7, r, "x")
        assert a != workloads.make_round(workload, 8, r, "x")
    assert workloads.make_round(workload, 7, 0, "x") != workloads.make_round(workload, 7, 1, "x")


def first(jobs, prefix):
    return next(j for j in jobs if j["id"].startswith(prefix))


def test_checker_fails_tampered_search(round0):
    job = first(round0("census"), "exh6")
    out = run_ok(job)
    bad = copy.deepcopy(out)
    status = next(iter(bad["counts"]))
    bad["counts"][status] += 1
    assert oracles.check(job, bad)
    bad = copy.deepcopy(out)
    # a witness whose verdict is swapped must fail the independent PT check
    s1, w1 = next(iter(bad["witnesses"].items()))
    other = "ENTANGLED_NPT" if s1 != "ENTANGLED_NPT" else "SEPARABLE"
    bad["witnesses"] = {other: w1}
    bad["counts"] = {other: out["total"]}
    assert oracles.check(job, bad)


def test_checker_fails_tampered_analyze_and_entropy(round0):
    jobs = round0("analyze")
    job = next(j for j in jobs if j["kind"] == "analyze" and j["expect"]["family"] == "random")
    out = run_ok(job)
    for path, delta in ((("spectrum", 0), 1e-7), (("verdict", "min_pt_eigenvalue"), 1e-7),
                        (("entropy", "von_neumann"), 1e-7)):
        bad = copy.deepcopy(out)
        bad[path[0]][path[1]] += delta
        assert oracles.check(job, bad), path
    bad = copy.deepcopy(out)
    bad["verdict"]["ppt_status"] = "PPT_INCONCLUSIVE" if out["verdict"]["ppt_status"] == "ENTANGLED_NPT" else "ENTANGLED_NPT"
    assert oracles.check(job, bad)
    job = next(j for j in jobs if j["kind"] == "entropy")
    out = run_ok(job)
    out["entropy"] += 1e-6
    assert oracles.check(job, out)


def test_checker_fails_tampered_channel(round0):
    job = first(round0("channels"), "ch5")
    out = run_ok(job)
    bad = copy.deepcopy(out)
    bad["steps"][0]["max_error_vs_graph_state"] = 1e-7
    assert oracles.check(job, bad)
    bad = copy.deepcopy(out)
    bad["steps"][-1]["graph"]["edges"] = bad["steps"][-1]["graph"]["edges"][:-1]
    assert oracles.check(job, bad)
    bad = copy.deepcopy(out)
    bad["steps"][0]["state"][0][0] += 1e-6
    assert oracles.check(job, bad)


def test_checker_rejects_malformed_output(round0):
    job = first(round0("census"), "census4")
    out = run_ok(job)
    out["classes"] = out["classes"][:-1]
    assert oracles.check(job, out)
    assert oracles.check(job, {}).startswith("malformed output")


@pytest.fixture
def traced():
    t = tracer.Tracer()
    t.install()
    yield t
    t.uninstall()


def test_two_bindings_count_once_per_call(traced):
    import graphdm.cli
    import graphdm.density
    import graphdm.separability
    from graphdm.graphs import path_graph

    assert graphdm.cli.density_of_graph is graphdm.density.density_of_graph
    assert graphdm.cli.density_of_graph is graphdm.separability.density_of_graph
    traced.job = 0
    graphdm.cli.density_of_graph(path_graph(4))
    graphdm.separability.density_of_graph(path_graph(4))
    traced.job = -1
    a = traced.arrays()
    sid = traced.names.index("density.density_of_graph")
    assert int((a["name"] == sid).sum()) == 2
    assert traced.names.count("density.density_of_graph") == 1


def test_uninstall_restores_every_binding():
    import graphdm.cli
    import graphdm.separability

    before = (graphdm.cli.density_of_graph, graphdm.cli._min_eig_for_assignment,
              np.linalg.eigvalsh)
    t = tracer.Tracer()
    t.install()
    assert graphdm.cli._min_eig_for_assignment is graphdm.separability._min_eig_for_assignment
    assert graphdm.cli._min_eig_for_assignment is not before[1]
    t.uninstall()
    assert (graphdm.cli.density_of_graph, graphdm.cli._min_eig_for_assignment,
            np.linalg.eigvalsh) == before


def test_self_times_within_wall_time(round0, traced):
    jobs = round0("analyze")[:6] + [first(round0("census"), "probe")]
    wall = 0.0
    for i, job in enumerate(jobs):
        traced.job = i
        t0 = time.perf_counter()
        rc, _, _, _ = worker.run_job(job["argv"])
        wall += time.perf_counter() - t0
        traced.job = -1
        assert rc == 0
    a = traced.arrays()
    dur, self_t, layer, layers = tracer.span_table(
        traced.names, a["name"], a["start"], a["end"], a["parent"])
    assert (self_t >= -1e-9).all()
    assert self_t.sum() <= wall
    assert abs(self_t.sum() - dur[a["parent"] < 0].sum()) < 1e-6
    metrics = tracer.summarize(traced, len(jobs), 100)
    assert set(metrics) == set(tracer.UNITS) - {k for k in tracer.UNITS if k.startswith("trace.")}
    # probe reaches the PT kernel through a name cli imported from separability
    assert metrics["separability.eig_per_labeling"] > 0
    assert metrics["numpy.eigvalsh.calls"] > 0


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: run.UNITS[k] for k in run.E2E_REPORTED}


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "census",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_outputs_repeat_across_processes():
    digests = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "perfbench/worker.py", "--workload", "analyze",
             "--seed", "5", "--seconds", "0.01"],
            cwd=ROOT, env=run.child_env(), capture_output=True, text=True, timeout=120)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        assert res["failed"] == 0 and res["rounds"] == 1
        digests.append(res["round0_sha256"])
    assert digests[0] == digests[1]
