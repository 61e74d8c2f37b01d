"""Command-line interface and machine-readable report emission.

Every analysis subcommand reads a JSONL corpus (file or stdin), runs
its analysis stage, and writes a JSON report (plus CSV side files for
plot-ready data) into the output directory.  Reports embed a run
manifest: the command, a content digest of the input, the resolved
configuration, and the seed, so identical manifests (up to timestamps)
imply identical report bodies.

A subcommand writes ``<subcommand>.json``; ``report-all`` runs the
same stages on one graph and nests their results in ``report.json``:

    section     subcommand  subcommand CSVs          report-all CSVs
    structure   metrics     metrics_<table>.csv      report_<table>.csv
    bowtie      bowtie      bowtie_members.csv       (none)
    powerlaw    powerlaw    powerlaw_ccdf_<dir>.csv  report_ccdf_in/out.csv
    smallworld  smallworld  (none)                   (none)
    temporal    temporal    temporal_snapshots.csv   report_snapshots.csv
    resilience  resilience  resilience_curve.csv     report_resilience.csv

``powerlaw`` holds both directions, keyed by direction; ``resilience``
is the list of curves (random with its null, then targeted); ``bowtie``
omits ``nodes`` and ``temporal`` omits ``network``.  A section whose
analysis is undefined for the input (a null, say, asked for more typed
edges than its nodes have distinct pairs) holds ``{"error": message}``: the
other sections and their CSVs are still written, each failure prints
one line to stderr, and the command exits 4.

A count flag (``COUNT_FLAGS``) below 1, a bad ``--years`` range, or a
``--step`` outside (0, 1) or ``--stop-at`` outside (0, 1] exits 2
before any stage runs, and warnings print as one stderr line each.  An
unusable ``--out`` (in a missing directory, or naming a directory)
exits 2 before the input is read or generated, and so does an output
directory that cannot be made, before any stage runs.

Loading a corpus (parse and ingest) pauses Python's cyclic garbage
collector: the decoded JSON records form no reference cycles, so
reference counting frees them, and the collector would only rescan
them over and over.

Exit codes: 0 success, 2 usage or configuration, 3 data, 4 compute.
"""

from __future__ import annotations

import argparse
import csv
import errno
import gc
import hashlib
import json
import os
import sys
import warnings
from dataclasses import fields
from datetime import date, datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .bowtie import COMPONENT_NAMES, decompose
from .corpus import export, ingest, parse_date, read_records, write_records
from .errors import (
    AnalysisError,
    ConfigError,
    CorpusError,
    LegisnetError,
    ValidationError,
)
from .filters import filter_reftype, filter_sector, snapshot
from .generator import GeneratorConfig, generate
from .graph import LegislationGraph, RefType, Sector
from .heavytail import (DEFAULT_BOOTSTRAP_M, ccdf, fit_power_law,
                        goodness_of_fit, zeta)
from .metrics import (
    assortativity,
    clustering,
    components,
    degree_stats,
    lorenz_gini,
    path_metrics,
)
from .randmodels import small_world_compare
from .resilience import ResilienceConfig, compare_with_null, simulate
from .temporal import densification_fit, evolution_series
from .util import format_float, round_floats

NETWORK_PRESETS = ("LN", "RN", "ICN", "LBN")

# Replica, repetition, tail-size, path-source and worker-count flags;
# each needs a value >= 1.
COUNT_FLAGS = ("bootstrap", "min_tail", "path_sources", "replicas", "reps",
               "smallworld_replicas", "resilience_reps", "threads")


# -- plumbing ----------------------------------------------------------------


def _read_input(path: str) -> tuple[str, str]:
    """(text, digest) of the --input corpus, which must be UTF-8."""
    try:
        # read_text translates line ends to "\n"; stdin on POSIX does not
        text = (sys.stdin.read().replace("\r\n", "\n").replace("\r", "\n")
                if path == "-" else Path(path).read_text(encoding="utf-8"))
        # stdin may decode undecodable bytes to lone surrogates instead
        data = text.encode("utf-8")
    except OSError as exc:
        raise CorpusError(f"cannot read input {path!r}: {exc}") from None
    except UnicodeError:
        raise CorpusError(f"input {path!r} is not valid UTF-8") from None
    return text, "sha256:" + hashlib.sha256(data).hexdigest()


def _output_dir(args: argparse.Namespace) -> Path:
    raw = args.output_dir or os.environ.get("LEGISNET_OUTPUT_DIR") or "."
    path = Path(raw)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot make output directory {raw!r}: {exc.strerror}") from None
    return path


def _manifest(args: argparse.Namespace, input_digest: str,
              started: str) -> dict:
    config = {
        key: value for key, value in sorted(vars(args).items())
        if key not in ("handler", "input", "output_dir") and value is not None
    }
    return {
        "command": args.command,
        "input_digest": input_digest,
        "config": config,
        "seed": args.seed,
        "tool_version": __version__,
        "started": started,
        "finished": _now(),
    }


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_report(out_dir: Path, name: str, manifest: dict, results: dict) -> None:
    payload = {"manifest": manifest, "results": round_floats(results)}
    (out_dir / name).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv(out_dir: Path, name: str, header: list[str],
               rows: list[list]) -> None:
    with open(out_dir / name, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_float(v) if isinstance(v, float) else v
                             for v in row])


def _parse_date(raw: str) -> date:
    try:
        return parse_date(raw)
    except ValueError as exc:
        raise ConfigError(f"bad date {raw!r}: {exc}") from None


def _parse_years(raw: str) -> tuple[int, int]:
    try:
        start, _, end = raw.partition(":")
        years = int(start), int(end or start)
    except ValueError:
        raise ConfigError(f"bad year range {raw!r}; expected START:END") from None
    if not date.min.year <= years[0] <= years[1] <= date.max.year:
        raise ConfigError(f"bad year range {raw!r}; expected START <= END, "
                          f"both in {date.min.year}..{date.max.year}")
    return years


def _parse_counts(raw: str) -> int | tuple[int, ...]:
    try:
        if "," not in raw:
            return int(raw)
        return tuple(int(x) for x in raw.split(","))
    except ValueError:
        raise ConfigError(f"bad document count {raw!r}") from None


def _parse_weights(raw: str) -> tuple[float, ...]:
    try:
        weights = tuple(float(w) for w in raw.split(","))
    except ValueError:
        raise ConfigError(f"bad weight list {raw!r}") from None
    if len(weights) != 6:
        raise ConfigError("weight lists need exactly 6 comma-separated values")
    return weights


def _ingest_input(args: argparse.Namespace) -> tuple:
    """(graph, ingest report, input digest) of the --input corpus."""
    text, digest = _read_input(args.input)
    mode = "lenient" if args.lenient else "strict"
    # decoded records hold no reference cycles, so reference counting
    # frees them; the cyclic collector would only rescan them
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        # JSON strings may hold raw U+2028, U+2029 and U+0085, at which
        # str.splitlines would break a line; line ends are already "\n"
        graph, report = ingest(read_records(text.split("\n")), mode=mode)
    finally:
        if was_enabled:
            gc.enable()
    return graph, report, digest


def _load_graph(args: argparse.Namespace) -> tuple[LegislationGraph, str]:
    """Ingest the corpus and narrow it per --network/--current."""
    graph, _, digest = _ingest_input(args)
    if args.network == "RN":
        graph = filter_sector(graph, Sector.LEGISLATION)
    elif args.network == "ICN":
        graph = filter_reftype(graph, RefType.INSTRUMENTS_CITED)
    elif args.network == "LBN":
        graph = filter_reftype(graph, RefType.LEGAL_BASIS)
    if args.current:
        graph = snapshot(graph, _parse_date(args.current))
    return graph, digest


def _corpus_years(graph: LegislationGraph) -> tuple[int, int]:
    if graph.node_count == 0:
        raise AnalysisError("corpus has no documents; no year range to analyze")
    effect, _ = graph.date_ordinals()
    return (date.fromordinal(int(effect.min())).year,
            date.fromordinal(int(effect.max())).year)


def _write_corpus(graph: LegislationGraph, destination: str) -> None:
    if destination == "-":
        write_records(export(graph), sys.stdout)
        return
    try:
        fh = open(destination, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(
            f"cannot write output {destination!r}: {exc.strerror}") from None
    with fh:
        write_records(export(graph), fh)


# -- analysis stages ---------------------------------------------------------
#
# A stage runs one analysis on a loaded graph and returns (results,
# tables): the report body and its CSV tables, {key: (header, rows)}.
# Stages call the analysis functions through this module's globals, so
# whatever wraps those names (tracing, say) sees every run.


# result fields written as CSV tables, not into the report section
TABLE_FIELDS = ("histogram", "lorenz_points", "per_degree")


def _section(result, **extra) -> dict:
    """The report section of a result dataclass: its fields, minus
    ``TABLE_FIELDS``, with ``extra`` added or replacing fields."""
    return {**{f.name: getattr(result, f.name) for f in fields(result)
               if f.name not in TABLE_FIELDS}, **extra}


def _metrics_stage(graph: LegislationGraph, args: argparse.Namespace) -> tuple[dict, dict]:
    comp = components(graph)
    stats = {d: degree_stats(graph, d) for d in ("in", "out")}
    lorenz = {d: lorenz_gini(graph, d) for d in ("in", "out")}
    profile = clustering(graph)
    pm = path_metrics(graph, mode=args.path_mode, sources=args.path_sources,
                      seed=args.seed, directed=args.directed_paths)
    mixing = {}
    for criterion in ("degree", "sector"):
        try:
            mixing[criterion] = assortativity(graph, criterion)
        except AnalysisError as exc:
            mixing[criterion] = {"value": None, "note": str(exc)}

    results = {
        "nodes": graph.node_count,
        "edges": graph.edge_count,
        "components": _section(comp),
        "degree_stats": {d: _section(s) for d, s in stats.items()},
        "lorenz_gini": {d: _section(lg) for d, lg in lorenz.items()},
        "clustering": _section(profile),
        "path_metrics": _section(pm, distance_histogram={
            str(k): v for k, v in sorted(pm.distance_histogram.items())}),
        "assortativity": mixing,
    }
    tables = {
        "degree_histogram": (
            ["direction", "degree", "count"],
            [[d, k, c] for d in ("in", "out")
             for k, c in sorted(stats[d].histogram.items())],
        ),
        "lorenz": (
            ["direction", "node_fraction", "degree_fraction"],
            [[d, x, y] for d in ("in", "out")
             for x, y in lorenz[d].lorenz_points],
        ),
        "distances": (
            ["distance", "ordered_pairs"],
            [[k, v] for k, v in sorted(pm.distance_histogram.items())],
        ),
        "clustering_by_degree": (
            ["degree", "mean_local_coefficient"],
            [[k, v] for k, v in sorted(profile.per_degree.items())],
        ),
    }
    return results, tables


def _bowtie_stage(graph: LegislationGraph, args: argparse.Namespace) -> tuple[dict, dict]:
    result = decompose(graph)
    results = {"sizes": result.sizes(), "fractions": result.fractions,
               "nodes": graph.node_count}
    tables = {}
    if args.dump_members:
        # by class, then by ascending id
        order = np.lexsort((graph.id_ranks(), result.labels))
        ids = graph.ids
        rows = [[COMPONENT_NAMES[label], ids[node]]
                for node, label in zip(order.tolist(),
                                       result.labels[order].tolist())]
        tables["members"] = (["component", "id"], rows)
    return results, tables


def _powerlaw_stage(graph: LegislationGraph, args: argparse.Namespace) -> tuple[dict, dict]:
    degrees = graph.degree_array(args.direction)
    fit = fit_power_law(degrees, min_tail=args.min_tail)
    result = goodness_of_fit(degrees, fit, m=args.bootstrap, seed=args.seed,
                             min_tail=args.min_tail, n_jobs=args.threads)
    positive = degrees[degrees > 0]
    points = ccdf(positive)
    uniq = np.array([k for k, _ in points], dtype=float)
    tail_mass = fit.n_tail / len(positive)
    norm = float(zeta(fit.gamma, float(fit.x_min)))
    fitted = np.where(
        uniq >= fit.x_min,
        tail_mass * zeta(fit.gamma, uniq) / norm,
        np.nan,
    )
    rows = [[k, e, "" if np.isnan(f) else format_float(float(f))]
            for (k, e), f in zip(points, fitted)]
    table = (["degree", "empirical_ccdf", "fitted_ccdf"], rows)
    return (_section(result, direction=args.direction),
            {f"ccdf_{args.direction}": table})


def _smallworld_stage(graph: LegislationGraph, args: argparse.Namespace) -> tuple[dict, dict]:
    report = small_world_compare(
        graph, replicas=args.replicas, seed=args.seed,
        length_factor=args.length_factor,
        clustering_factor=args.clustering_factor,
        path_mode=args.path_mode, path_sources=args.path_sources,
        n_jobs=args.threads,
    )
    return _section(report), {}


def _temporal_stage(graph: LegislationGraph, args: argparse.Namespace) -> tuple[dict, dict]:
    years = _parse_years(args.years) if args.years else _corpus_years(graph)
    stats = evolution_series(graph, years)
    fit = densification_fit(stats)
    results = {"years": list(years), "network": args.network,
               "densification": _section(fit)}
    header = (["year", "nodes", "edges"]
              + [f"sector_{s.value}" for s in Sector]
              + [f"reftype_{k.value}" for k in RefType]
              + ["scc_fraction", "gc_fraction"])
    rows = [[s.year, s.n, s.e]
            + [s.per_sector.get(sec.value, 0) for sec in Sector]
            + [s.per_reftype.get(k.value, 0) for k in RefType]
            + [s.scc_fraction, s.gc_fraction]
            for s in stats]
    return results, {"snapshots": (header, rows)}


POINT_FIELDS = ("fraction_removed", "gc_fraction_of_remaining",
                "gc_fraction_of_original")


def _resilience_stage(graph: LegislationGraph, args: argparse.Namespace) -> tuple[dict, dict]:
    strategies = (["random", "targeted_by_degree"] if args.strategy == "both"
                  else [args.strategy])
    curves: list[dict] = []
    rows: list[list] = []
    for strategy in strategies:
        config = ResilienceConfig(
            strategy=strategy, step_fraction=args.step,
            repetitions=args.reps, degree_mode=args.degree_mode,
            seed=args.seed, stop_at=args.stop_at,
        )
        if args.with_null:
            own, null = compare_with_null(graph, config, n_jobs=args.threads)
            runs = [(strategy, own, {}),
                    (f"{strategy}_null", null, {"null_model": True})]
        else:
            runs = [(strategy, simulate(graph, config, n_jobs=args.threads), {})]
        for label, curve, extra in runs:
            curves.append(_section(
                curve, area_under_curve=curve.area_under_curve(),
                points=[dict(zip(POINT_FIELDS, p)) for p in curve.points],
                **extra))
            rows += [[label, *point] for point in curve.points]
    return {"curves": curves}, {"curve": (["strategy", *POINT_FIELDS], rows)}


STAGES = {
    "metrics": _metrics_stage,
    "bowtie": _bowtie_stage,
    "powerlaw": _powerlaw_stage,
    "smallworld": _smallworld_stage,
    "temporal": _temporal_stage,
    "resilience": _resilience_stage,
}


def _write_tables(out_dir: Path, prefix: str, tables: dict) -> None:
    for key, (header, rows) in tables.items():
        _write_csv(out_dir, f"{prefix}_{key}.csv", header, rows)


def _report_sections(args: argparse.Namespace) -> tuple:
    """report-all's sections: (name, subcommand, runs, body).

    A run is the namespace the subcommand's stage sees: the subcommand's
    defaults, overridden by report-all's flags of the same name, then by
    the section's own settings.  ``body`` turns the runs' results into
    the section.
    """
    parser = build_parser()

    def run(command: str, **settings) -> argparse.Namespace:
        defaults = vars(parser.parse_args([command]))
        return argparse.Namespace(**{**defaults, **vars(args), **settings})

    def without(key):
        return lambda results: {k: v for k, v in results[0].items() if k != key}

    return (
        ("structure", "metrics", [run("metrics")], lambda results: results[0]),
        ("bowtie", "bowtie", [run("bowtie")], without("nodes")),
        ("powerlaw", "powerlaw",
         [run("powerlaw", direction=d) for d in ("in", "out")],
         lambda results: {r["direction"]: r for r in results}),
        ("smallworld", "smallworld",
         [run("smallworld", replicas=args.smallworld_replicas)],
         lambda results: results[0]),
        ("temporal", "temporal", [run("temporal")], without("network")),
        ("resilience", "resilience",
         [run("resilience", strategy="random", reps=args.resilience_reps,
              with_null=True),
          run("resilience", strategy="targeted_by_degree")],
         lambda results: [c for r in results for c in r["curves"]]),
    )


# report-all writes report_<key>.csv, except that the resilience curve
# is named after its section.
REPORT_TABLE_KEYS = {"curve": "resilience"}


# -- subcommand handlers -----------------------------------------------------


def _cmd_ingest(args: argparse.Namespace) -> int:
    started = _now()
    graph, report, digest = _ingest_input(args)
    _write_report(_output_dir(args), "ingest_report.json",
                  _manifest(args, digest, started), _section(report))
    if args.out:
        _write_corpus(graph, args.out)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    config = GeneratorConfig(
        years=_parse_years(args.years),
        docs_per_year=_parse_counts(args.docs_per_year),
        densification_exponent=args.densification,
        preferential_mixing=args.mixing,
        sector_weights=_parse_weights(args.sector_weights),
        reftype_weights=_parse_weights(args.reftype_weights),
        sunset_probability=args.sunset_prob,
        sunset_horizon_years=args.sunset_horizon,
        seed=args.seed,
        citation_scale=args.citation_scale,
    )
    graph = generate(config)
    _write_corpus(graph, args.out)
    return 0


def _cmd_filter(args: argparse.Namespace) -> int:
    graph, _ = _load_graph(args)
    if args.sector is not None:
        graph = filter_sector(graph, Sector(args.sector))
    if args.reftype is not None:
        graph = filter_reftype(graph, RefType(args.reftype))
    if args.at is not None:
        graph = snapshot(graph, _parse_date(args.at))
    _write_corpus(graph, args.out)
    return 0


def _cmd_analysis(args: argparse.Namespace) -> int:
    """One analysis subcommand: <command>.json plus <command>_<key>.csv."""
    started = _now()
    graph, digest = _load_graph(args)
    out_dir = _output_dir(args)
    results, tables = STAGES[args.command](graph, args)
    _write_report(out_dir, f"{args.command}.json",
                  _manifest(args, digest, started), results)
    _write_tables(out_dir, args.command, tables)
    return 0


def _cmd_report_all(args: argparse.Namespace) -> int:
    """Every stage into report.json; an undefined section holds its error."""
    started = _now()
    graph, digest = _load_graph(args)
    out_dir = _output_dir(args)
    report: dict = {"nodes": graph.node_count, "edges": graph.edge_count}
    failed = False
    for section, command, runs, body in _report_sections(args):
        try:
            outputs = [STAGES[command](graph, run) for run in runs]
        except AnalysisError as exc:
            _complain(args.command, exc)
            report[section] = {"error": str(exc)}
            failed = True
            continue
        report[section] = body([results for results, _ in outputs])
        tables: dict = {}
        for _, run_tables in outputs:
            for key, (header, rows) in run_tables.items():
                tables.setdefault(REPORT_TABLE_KEYS.get(key, key),
                                  (header, []))[1].extend(rows)
        _write_tables(out_dir, "report", tables)
    _write_report(out_dir, "report.json", _manifest(args, digest, started),
                  report)
    return 4 if failed else 0


# -- parser ------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, needs_input: bool = True) -> None:
    if needs_input:
        parser.add_argument("--input", default="-",
                            help="corpus JSONL path, or - for stdin")
        parser.add_argument("--lenient", action="store_true",
                            help="ingest leniently (dangling references become stubs)")
        parser.add_argument("--network", choices=NETWORK_PRESETS, default="LN",
                            help="sub-network preset to analyze")
        parser.add_argument("--current", metavar="DATE", default=None,
                            help="restrict to legislation active at DATE first")
    parser.add_argument("--output-dir", default=None,
                        help="report directory (env LEGISNET_OUTPUT_DIR, default .)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1,
                        help="worker cap for parallelizable stages")


def _add_path_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--path-mode", choices=["exact", "sampled"],
                        default="exact")
    parser.add_argument("--path-sources", type=int, default=1000,
                        help="BFS sources in sampled mode")
    parser.add_argument("--directed-paths", action="store_true",
                        help="measure distances along edge direction")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="legisnet",
        description="Legislation network construction and analysis toolkit",
    )
    parser.add_argument("--version", action="version",
                        version=f"legisnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a corpus and report counts")
    _add_common(p)
    p.add_argument("--out", default=None,
                   help="optionally re-export the ingested corpus")
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser("generate", help="generate a synthetic corpus")
    _add_common(p, needs_input=False)
    p.add_argument("--years", required=True, metavar="START:END")
    p.add_argument("--docs-per-year", default="100",
                   help="documents per year (single count or comma list)")
    p.add_argument("--densification", type=float, default=1.0)
    p.add_argument("--mixing", type=float, default=0.5,
                   help="preferential-attachment probability per citation")
    p.add_argument("--sector-weights", default="1,1,6,1,3,2")
    p.add_argument("--reftype-weights", default="1,1,2,5,0.5,0.5")
    p.add_argument("--sunset-prob", type=float, default=0.0)
    p.add_argument("--sunset-horizon", type=int, default=20)
    p.add_argument("--citation-scale", type=float, default=1.0)
    p.add_argument("--out", default="-", help="corpus destination (default stdout)")
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("filter", help="extract a sub-network as a corpus")
    _add_common(p)
    p.add_argument("--sector", type=int, choices=range(1, 7), default=None)
    p.add_argument("--reftype", choices=[k.value for k in RefType], default=None)
    p.add_argument("--at", metavar="DATE", default=None,
                   help="point-in-time snapshot date")
    p.add_argument("--out", default="-")
    p.set_defaults(handler=_cmd_filter)

    p = sub.add_parser("metrics", help="degree/inequality/clustering/path metrics")
    _add_common(p)
    _add_path_options(p)
    p.set_defaults(handler=_cmd_analysis)

    p = sub.add_parser("bowtie", help="bow-tie macro-structure decomposition")
    _add_common(p)
    p.add_argument("--dump-members", action="store_true",
                   help="also write per-component id lists")
    p.set_defaults(handler=_cmd_analysis)

    p = sub.add_parser("powerlaw", help="discrete power-law tail fit")
    _add_common(p)
    p.add_argument("--direction", choices=["in", "out"], default="in")
    p.add_argument("--bootstrap", type=int, default=DEFAULT_BOOTSTRAP_M,
                   help="bootstrap replica count")
    p.add_argument("--min-tail", type=int, default=25)
    p.set_defaults(handler=_cmd_analysis)

    p = sub.add_parser("smallworld", help="small-world comparison against nulls")
    _add_common(p)
    p.add_argument("--replicas", type=int, default=10)
    p.add_argument("--length-factor", type=float, default=1.5)
    p.add_argument("--clustering-factor", type=float, default=10.0)
    p.add_argument("--path-mode", choices=["auto", "exact", "sampled"],
                   default="auto")
    p.add_argument("--path-sources", type=int, default=1000)
    p.set_defaults(handler=_cmd_analysis)

    p = sub.add_parser("temporal", help="annual evolution and densification fit")
    _add_common(p)
    p.add_argument("--years", default=None, metavar="START:END",
                   help="year range (default: corpus effect-date span)")
    p.set_defaults(handler=_cmd_analysis)

    p = sub.add_parser("resilience", help="node-removal tolerance simulation")
    _add_common(p)
    p.add_argument("--strategy",
                   choices=["random", "targeted_by_degree", "both"],
                   default="both")
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--reps", type=int, default=None,
                   help="repetitions (default 1000 random, 1 targeted)")
    p.add_argument("--degree-mode",
                   choices=["static_initial", "adaptive_recompute"],
                   default="static_initial")
    p.add_argument("--stop-at", type=float, default=0.99)
    p.add_argument("--with-null", action="store_true",
                   help="also run a size-matched random null")
    p.set_defaults(handler=_cmd_analysis)

    p = sub.add_parser("report-all",
                       help="full analysis battery in one combined report")
    _add_common(p)
    p.add_argument("--path-mode", choices=["exact", "sampled"],
                   default="sampled")
    p.add_argument("--path-sources", type=int, default=500)
    p.add_argument("--directed-paths", action="store_true")
    p.add_argument("--bootstrap", type=int, default=DEFAULT_BOOTSTRAP_M)
    p.add_argument("--min-tail", type=int, default=25)
    p.add_argument("--smallworld-replicas", type=int, default=10)
    p.add_argument("--years", default=None, metavar="START:END")
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--stop-at", type=float, default=0.99)
    p.add_argument("--resilience-reps", type=int, default=100)
    p.set_defaults(handler=_cmd_report_all)

    return parser


def _module_name(frame) -> str:
    """Name of the module running ``frame``.  Under ``python -m`` its
    ``__name__`` is ``__main__``; its spec keeps the dotted name."""
    spec = frame.f_globals.get("__spec__")
    return spec.name if spec is not None else frame.f_globals.get("__name__", "")


def _origin_module(exc: BaseException) -> str:
    tb = exc.__traceback__
    origin = "legisnet"
    while tb is not None:
        module = _module_name(tb.tb_frame)
        if module.startswith("legisnet"):
            origin = module
        tb = tb.tb_next
    return origin


def _complain(command: str, exc: LegisnetError) -> None:
    print(f"legisnet {command} [{_origin_module(exc)}]: {exc}", file=sys.stderr)


def _warn(command: str, message, *_) -> None:
    """``warnings.showwarning`` as one stderr line naming the module that
    warned: the innermost legisnet frame on the stack."""
    frame = sys._getframe(1)
    while frame is not None and not _module_name(frame).startswith("legisnet"):
        frame = frame.f_back
    origin = _module_name(frame) if frame is not None else "legisnet"
    print(f"legisnet {command} [{origin}]: warning: {message}", file=sys.stderr)


def _check_flags(args: argparse.Namespace) -> None:
    for dest in COUNT_FLAGS:
        value = vars(args).get(dest)
        if value is not None and value < 1:
            flag = "--" + dest.replace("_", "-")
            raise ConfigError(f"{flag} must be >= 1, got {value}")
    if vars(args).get("years"):
        _parse_years(args.years)
    if "step" in vars(args):
        if not 0.0 < args.step < 1.0:
            raise ConfigError(f"--step must be in (0, 1), got {args.step}")
        if not 0.0 < args.stop_at <= 1.0:
            raise ConfigError(f"--stop-at must be in (0, 1], got {args.stop_at}")
    out = vars(args).get("out")
    try:  # open the directory, not the file: --out may name the input
        if out not in (None, "-"):
            os.scandir(Path(out).parent).close()
            if os.path.isdir(out):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    except OSError as exc:
        raise ConfigError(f"cannot write output {out!r}: {exc.strerror}") from None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        with warnings.catch_warnings():
            warnings.showwarning = partial(_warn, args.command)
            return args.handler(args)
    except LegisnetError as exc:
        _complain(args.command, exc)
        if isinstance(exc, ConfigError):
            return 2
        if isinstance(exc, (CorpusError, ValidationError)):
            return 3
        return 4
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
