"""Spans around graphdm's layers, recorded from outside the program.

`Tracer.install()` replaces every module-level function of each graphdm
module (its layer), the methods of the classes other layers build and
consume, and numpy's two eigensolvers with wrappers that record a span:
name, start, end, parent span and job id.  Each original function gets one
wrapper, bound wherever graphdm imported the name, so a call through any
binding records exactly one span.  Spans stay in memory until `save`.
A layer's self time is its spans' durations minus their direct children's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("cli", "graphs", "linalg", "density", "entropy", "separability",
          "concurrence", "channels")
# graphs and separability methods are per-vertex helpers (permutation
# images, cell lookups) called from their own layer; wrapping them would
# multiply the spans without moving time between layers
METHOD_LAYERS = ("cli", "linalg", "density", "entropy", "concurrence", "channels")
NUMPY_KERNELS = ("eigvalsh", "eigh")

# every per-layer metric and its unit; times and counts are per traced job
UNITS = {f"{layer}.self_s": "s/job" for layer in LAYERS + ("numpy",)}
UNITS.update({
    "separability.labeling_search.s": "s/job",
    "separability.s_per_labeling": "s/verdict",
    "separability.eig_per_labeling": "count/verdict",
    "numpy.eigvalsh.calls": "count/job",
    "numpy.eigh.calls": "count/job",
    "graphs.automorphisms.s": "s/job",
    "graphs.automorphisms.calls": "count/job",
    "graphs.build_graph.calls": "count/job",
    "density.density_of_graph.s": "s/job",
    "density.density_of_graph.calls": "count/job",
    "density.purity.s": "s/job",
    "linalg.exact_matrices": "count/job",
    "linalg.is_psd.calls": "count/job",
    "linalg.eigensystem.calls": "count/job",
    "channels.measurement_probabilities.s": "s/job",
    "channels.build.s": "s/job",
    "channels.kraus_ops": "count/job",
    "channels.complete_to_unitary.calls": "count/job",
    "channels.vertex_edit.s": "s/job",
    "cli.build_parser.s": "s/job",
    "concurrence.four_vertex_census.s": "s/job",
    "trace.overhead_frac": "ratio",
    "trace.round_s_untraced": "s",
    "trace.round_s_traced": "s",
})


def _count_exact(tracer, args, result):
    if args[0].exact_real:
        tracer.counts["linalg.exact_matrices"] += 1


def _count_kraus(tracer, args, result):
    tracer.counts["channels.kraus_ops"] += len(args[0].operators)


AFTER = {"linalg.HermitianMatrix.__init__": _count_exact,
         "channels.KrausChannel.__post_init__": _count_kraus}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job_of = array("i")
        self.stack: list[int] = []
        self.job = -1          # spans are recorded only while job >= 0
        self.counts: Counter = Counter()
        self._patches = self._plan()

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        sid = len(self.names)
        self.names.append(name)
        after = AFTER.get(name)
        perf = time.perf_counter
        stack, rec_start, rec_end = self.stack, self.start, self.end
        rec_name, rec_parent, rec_job = self.name, self.parent, self.job_of
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            job = tracer.job
            if job < 0:
                return fn(*args, **kwargs)
            i = len(rec_start)
            rec_name.append(sid)
            rec_parent.append(stack[-1] if stack else -1)
            rec_job.append(job)
            rec_end.append(0.0)
            stack.append(i)
            rec_start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec_end[i] = perf()
                stack.pop()
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def _plan(self) -> list:
        """(owner, attribute, original, replacement) for every binding."""
        modules = {layer: importlib.import_module(f"graphdm.{layer}") for layer in LAYERS}
        wrapped = {}  # id(original function) -> wrapper

        def wrap_once(fn, name):
            if id(fn) not in wrapped:
                wrapped[id(fn)] = (fn, self._wrap(fn, name))
            return wrapped[id(fn)][1]

        patches = []
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrap_once(obj, f"{layer}.{obj.__name__}")
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and layer in METHOD_LAYERS):
                    for mattr, raw in list(vars(obj).items()):
                        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
                        fn = raw.__func__ if kind else raw
                        # dataclass-generated methods are compiled from "<string>"
                        if not inspect.isfunction(fn) or fn.__code__.co_filename != mod.__file__:
                            continue
                        new = wrap_once(fn, f"{layer}.{obj.__name__}.{fn.__name__}")
                        patches.append((obj, mattr, raw, kind(new) if kind else new))
        for mod in [importlib.import_module("graphdm"), *modules.values()]:
            for attr, obj in vars(mod).items():
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    patches.append((mod, attr, obj, hit[1]))
        for kernel in NUMPY_KERNELS:
            fn = getattr(np.linalg, kernel)
            patches.append((np.linalg, kernel, fn, self._wrap(fn, f"numpy.{kernel}")))
        return patches

    def install(self) -> None:
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old, _ in self._patches:
            setattr(owner, attr, old)

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "job": np.frombuffer(self.job_of, dtype=np.int32)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def span_table(names, name, start, end, parent):
    """Per-span duration, self time and layer index, and the layer names."""
    dur = end - start
    child = np.zeros(len(dur))
    inner = parent >= 0
    np.add.at(child, parent[inner], dur[inner])
    layers = sorted({n.split(".")[0] for n in names})
    layer_of_name = np.array([layers.index(n.split(".")[0]) for n in names], dtype=int)
    return dur, dur - child, layer_of_name[name], layers


def summarize(tracer: Tracer, jobs: int, verdicts: int) -> dict:
    """Per-layer metrics per traced job; the two ratios are per verdict."""
    a = tracer.arrays()
    names, name, parent = tracer.names, a["name"], a["parent"]
    dur, self_t, layer, layers = span_table(names, name, a["start"], a["end"], parent)
    ids = {n: i for i, n in enumerate(names)}

    def layer_self(layer_name):
        return float(self_t[layer == layers.index(layer_name)].sum())

    def calls(fn):
        return int((name == ids.get(fn, -1)).sum()) / jobs

    def inclusive(*fns):
        """Seconds per job inside any of fns, counting nested calls once."""
        wanted = [ids[f] for f in fns if f in ids]
        total = 0.0
        for i in np.flatnonzero(np.isin(name, wanted)):
            j = parent[i]
            while j >= 0 and name[j] not in wanted:
                j = parent[j]
            if j < 0:
                total += dur[i]
        return total / jobs

    numpy_layer, sep_layer = layers.index("numpy"), layers.index("separability")
    under_sep = (layer == numpy_layer) & (parent >= 0)
    under_sep[under_sep] = layer[parent[under_sep]] == sep_layer
    sep_busy = layer_self("separability") + float(dur[under_sep].sum())

    m = {f"{lay}.self_s": layer_self(lay) / jobs for lay in LAYERS + ("numpy",)}
    m.update({
        "separability.labeling_search.s": inclusive("separability.labeling_search"),
        "separability.s_per_labeling": sep_busy / verdicts if verdicts else 0.0,
        "separability.eig_per_labeling": int(under_sep.sum()) / verdicts if verdicts else 0.0,
        "numpy.eigvalsh.calls": calls("numpy.eigvalsh"),
        "numpy.eigh.calls": calls("numpy.eigh"),
        "graphs.automorphisms.s": inclusive("graphs.automorphisms"),
        "graphs.automorphisms.calls": calls("graphs.automorphisms"),
        "graphs.build_graph.calls": calls("graphs.build_graph"),
        "density.density_of_graph.s": inclusive("density.density_of_graph"),
        "density.density_of_graph.calls": calls("density.density_of_graph"),
        "density.purity.s": inclusive("density.purity"),
        "linalg.exact_matrices": tracer.counts["linalg.exact_matrices"] / jobs,
        "linalg.is_psd.calls": calls("linalg.is_psd"),
        "linalg.eigensystem.calls": calls("linalg.eigensystem"),
        "channels.measurement_probabilities.s": inclusive("channels.measurement_probabilities"),
        "channels.build.s": inclusive("channels.edge_deletion_channel",
                                      "channels.edge_addition_channel"),
        "channels.kraus_ops": tracer.counts["channels.kraus_ops"] / jobs,
        "channels.complete_to_unitary.calls": calls("channels.complete_to_unitary"),
        "channels.vertex_edit.s": inclusive("channels.delete_vertex_report",
                                            "channels.add_vertex_report"),
        "cli.build_parser.s": inclusive("cli.build_parser"),
        "concurrence.four_vertex_census.s": inclusive("concurrence.four_vertex_census"),
    })
    return m
