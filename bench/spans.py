"""Spans around the public calls of each legisnet module, from outside.

``Tracer.install()`` replaces each traced name where its caller looks
it up (the CLI's imported names, the module globals that library code
calls through, and three ``LegislationGraph`` methods) with a wrapper
that records a span and, for some calls, counts read off the arguments
or the result.  Spans stay in memory until the run ends; ``summarize``
turns them into the per-layer metrics.

A span is ``{"name", "start", "end", "parent", "run"}``: ``parent`` is
the index of the enclosing span in the same list, or -1.  A span's
self time is its duration minus the time its direct children cover;
spans of one process never overlap except by nesting.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

# Layers (legisnet modules) in the order the per-layer metrics list them.
MODULES = ("corpus", "graph", "filters", "temporal", "metrics", "randmodels",
           "resilience", "heavytail", "bowtie", "generator", "cli")

# Spans whose summed (inclusive) time is a per-layer metric "<name>_s".
TIMED = ("corpus.parse", "corpus.ingest", "corpus.export", "graph.projection",
         "graph.adjacency", "graph.induced_subgraph", "filters.select",
         "filters.annual_series", "temporal.evolution", "temporal.snapshot_stat",
         "metrics.path_metrics", "metrics.path_stats", "metrics.clustering",
         "metrics.components", "metrics.assortativity", "randmodels.small_world",
         "randmodels.er_generate", "resilience.random", "resilience.targeted",
         "heavytail.fit", "heavytail.bootstrap", "bowtie.decompose")

# Counts reported as they are; with the ratios below, they repeat exactly
# for a fixed seed.
COUNTS = ("corpus.records", "graph.induced_subgraph_calls",
          "temporal.snapshots", "metrics.bfs_sources",
          "metrics.bfs_edges_scanned", "randmodels.null_replicas",
          "resilience.gc_evaluations", "heavytail.refits")


class Tracer:
    """Collects spans and boundary counts for one traced process.

    ``clock`` reads the time in seconds; the worker passes one that
    stops while calibration ticks run, so spans hold no ticks.
    """

    def __init__(self, run_id: str, clock=perf_counter) -> None:
        self.run_id = run_id
        self.clock = clock
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append({"name": name, "start": self.clock(), "end": None,
                           "parent": parent, "run": self.run_id})
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index]["end"] = self.clock()
        self._stack.pop()

    def wrap(self, fn, name, counter=None, materialize=False):
        """``fn`` inside a span; ``name`` is a string or f(args, kwargs).

        ``counter(args, kwargs, result, error)`` returns counts to add.
        ``materialize`` turns a returned generator into a list inside the
        span, so the span covers the work and not just its creation.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name if isinstance(name, str)
                               else name(args, kwargs))
            result = error = None
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                self.end(index)
                if counter is not None:
                    self.counts.update(counter(args, kwargs, result, error))
        return traced

    def install(self) -> None:
        """Wrap every traced name in the imported legisnet package."""
        from legisnet import cli, heavytail, metrics, randmodels, resilience, temporal
        from legisnet.graph import LegislationGraph

        def patch(owner, attr, name, counter=None, materialize=False):
            setattr(owner, attr, self.wrap(getattr(owner, attr), name,
                                           counter, materialize))

        def resilience_name(args, kwargs):
            config = kwargs.get("config", args[1] if len(args) > 1 else None)
            return ("resilience.random" if config.strategy == "random"
                    else "resilience.targeted")

        def gc_evaluations(args, kwargs, result, error):
            graph = args[0]
            config = kwargs.get("config", args[1] if len(args) > 1 else None)
            steps = resilience.removal_boundaries(
                graph.node_count, config.step_fraction, config.stop_at)
            return {"resilience.gc_evaluations":
                    config.effective_repetitions() * (len(steps) + 1)}

        def bfs(args, kwargs, result, error):
            if result is None:
                return {}
            csr = args[0]
            return {"metrics.bfs_sources": result.sources,
                    "metrics.bfs_edges_scanned": result.sources * csr.nnz}

        def ingested(args, kwargs, result, error):
            if result is None:
                return {}
            report = result[1]
            return {"corpus.edges_kept": report.edges,
                    "corpus.edges_offered": report.edges + report.deduplicated}

        patch(cli, "read_records", "corpus.parse", materialize=True,
              counter=lambda a, k, r, e: {"corpus.records": len(r or ())})
        patch(cli, "ingest", "corpus.ingest", counter=ingested)
        patch(cli, "export", "corpus.export", materialize=True)
        patch(cli, "write_records", "corpus.export")
        patch(LegislationGraph, "simple_projection", "graph.projection")
        patch(LegislationGraph, "adjacency", "graph.adjacency")
        patch(LegislationGraph, "induced_subgraph", "graph.induced_subgraph",
              counter=lambda a, k, r, e: {"graph.induced_subgraph_calls": 1})
        for attr in ("filter_sector", "filter_reftype", "snapshot"):
            patch(cli, attr, "filters.select")
        patch(temporal, "annual_series", "filters.annual_series")
        patch(cli, "evolution_series", "temporal.evolution")
        patch(temporal, "snapshot_stat", "temporal.snapshot_stat",
              counter=lambda a, k, r, e: {"temporal.snapshots": 1})
        patch(cli, "densification_fit", "temporal.densification_fit")
        patch(cli, "path_metrics", "metrics.path_metrics")
        patch(metrics, "path_stats_from_csr", "metrics.path_stats", counter=bfs)
        patch(randmodels, "path_stats_from_csr", "metrics.path_stats", counter=bfs)
        patch(cli, "clustering", "metrics.clustering")
        patch(randmodels, "clustering_profile_from_pairs", "metrics.clustering")
        patch(cli, "components", "metrics.components")
        patch(cli, "assortativity", "metrics.assortativity")
        patch(cli, "degree_stats", "metrics.degree")
        patch(cli, "lorenz_gini", "metrics.degree")
        patch(cli, "small_world_compare", "randmodels.small_world")
        patch(randmodels, "erdos_renyi", "randmodels.er_generate",
              counter=lambda a, k, r, e: {"randmodels.null_replicas": 1})
        patch(cli, "compare_with_null", resilience_name)
        patch(cli, "simulate", resilience_name, counter=gc_evaluations)
        patch(resilience, "simulate", "resilience.simulate",
              counter=gc_evaluations)
        patch(cli, "fit_power_law", "heavytail.fit")
        patch(cli, "goodness_of_fit", "heavytail.bootstrap")
        patch(heavytail, "fit_power_law", "heavytail.refit",
              counter=lambda a, k, r, e: {
                  "heavytail.refits": 1,
                  "heavytail.refits_failed": int(e is not None)})
        patch(cli, "ccdf", "heavytail.ccdf")
        patch(cli, "decompose", "bowtie.decompose")


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] >= 0:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def covered(spans: list[dict], names: set[str]) -> float:
    """Time covered by spans named in ``names``, nested ones counted once."""
    inside = [False] * len(spans)
    total = 0.0
    for i, span in enumerate(spans):  # parents precede their children
        parent = span["parent"]
        inside[i] = span["name"] in names or (parent >= 0 and inside[parent])
        if span["name"] in names and not (parent >= 0 and inside[parent]):
            total += span["end"] - span["start"]
    return total


def module_of(name: str) -> str:
    """Layer a span belongs to; the run's root span belongs to the CLI."""
    module = name.split(".", 1)[0]
    return module if module in MODULES else "cli"


def summarize(spans: list[dict], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics: inclusive times, counts, and self time per module."""
    counts = Counter(counts)
    totals: Counter = Counter()
    for span in spans:
        totals[span["name"]] += span["end"] - span["start"]
    out = {f"{name}_s": float(totals[name]) for name in TIMED}
    out.update((name, float(counts[name])) for name in COUNTS)
    out["corpus.edges_kept_ratio"] = _ratio(
        counts["corpus.edges_kept"], counts["corpus.edges_offered"])
    out["heavytail.refit_failed_ratio"] = _ratio(
        counts["heavytail.refits_failed"], counts["heavytail.refits"])
    own: Counter = Counter()
    for span, seconds in zip(spans, self_times(spans)):
        own[module_of(span["name"])] += seconds
    for module in MODULES:
        if module != "generator":  # generation runs at set-up, untraced
            out[f"{module}.self_s"] = float(own[module])
    out["trace.spans"] = float(len(spans))
    return out
