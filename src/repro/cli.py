"""Command line interfaces: ``repro-atpg``, ``repro-campaign`` and
``repro-cache``.

Examples::

    repro-atpg --list                    # show bundled benchmarks
    repro-atpg ebergen                   # ATPG on a bundled benchmark
    repro-atpg ebergen --style two-level --model output
    repro-atpg ebergen --model bridging         # wired-AND/OR net shorts
    repro-atpg ebergen --model transition       # slow-to-rise/fall
    repro-atpg ebergen --cssg-method symbolic   # BDD-based construction
    repro-atpg path/to/circuit.net --show-tests
    repro-atpg converta --json           # one result as a JSON object
    repro-atpg vbe6a --progress          # live stage/coverage line
    repro-atpg vbe6a --spans out.jsonl   # span timeline + flow events
    repro-atpg vbe6a --deadline 0.5      # bounded run (partial result)
    repro-atpg vbe6a --collapse --compact --faulty-semantics ternary

    repro-campaign                       # Table 1 corpus, all cores
    repro-campaign --table2 --workers 4 --out out/table2
    repro-campaign dff chu150 --seeds 0,1,2 --no-cache
    repro-campaign dff --cssg-method hybrid,symbolic   # method axis
    repro-campaign --models output,input,bridging,transition
    repro-atpg --campaign --table2       # alias for repro-campaign

    repro-cache list                     # entries in the shared cache
    repro-cache stats                    # size + lifetime hit rate
    repro-cache prune --max-age-days 30 --max-size-mb 512
    repro-cache clear

``python -m repro.cli`` behaves like ``repro-atpg``.  The scenario
fuzzer is test infrastructure, not a console script: see
``docs/fuzzing.md``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from repro.benchmarks_data import benchmark_names, load_benchmark
from repro.circuit.parser import load_netlist
from repro.core.atpg import AtpgOptions
from repro.errors import ReproError
from repro.faultmodels import model_names
from repro.flow import Flow, ProgressLine
from repro.sgraph.cssg import CSSG_METHODS


#: Every construction method plus the size-resolved ``auto``.
_CSSG_METHOD_CHOICES = ("auto",) + CSSG_METHODS


def exits_on_broken_pipe(entry):
    """Wrap a console entry point so a reader that goes away (``| head``)
    ends it with status 1, without a traceback: stdout is flushed inside
    the guard, then pointed at /dev/null so the exit-time flush is
    silent too."""

    @functools.wraps(entry)
    def run(argv=None) -> int:
        try:
            status = entry(argv)
            sys.stdout.flush()
            return status
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1

    return run


def _restricted(convert, accept, requirement: str):
    """The argparse type ``convert`` (``int`` / ``float``) restricted to
    the values ``accept`` admits (NaN compares false, so it is refused);
    argparse exits 2 on anything else."""

    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(
                f"must be {requirement}, got {value}"
            )
        return value

    parse.__name__ = convert.__name__  # "invalid int value: 'x'"
    return parse


def non_negative(convert):
    """``convert`` restricted to values >= 0."""
    return _restricted(convert, lambda v: v >= 0, ">= 0")


def positive(convert):
    """``convert`` restricted to values > 0 (``inf`` accepted)."""
    return _restricted(convert, lambda v: v > 0, "> 0")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-atpg",
        description="Synchronous ATPG for asynchronous circuits (DAC'97).",
    )
    parser.add_argument(
        "circuit",
        nargs="?",
        help="bundled benchmark name or path to a .net netlist",
    )
    parser.add_argument("--list", action="store_true", help="list bundled benchmarks")
    parser.add_argument(
        "--style",
        default="complex",
        choices=["complex", "two-level"],
        help="synthesis back end for bundled STG benchmarks",
    )
    parser.add_argument(
        "--model",
        default="input",
        metavar="MODEL",
        help=(
            "fault model to run: one of "
            f"{', '.join(model_names())} (default: input). "
            "An unknown name exits 1 listing the registered models."
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="random TPG seed")
    parser.add_argument("--k", type=int, default=None, help="test-cycle bound k")
    parser.add_argument(
        "--cssg-method",
        default="auto",
        choices=_CSSG_METHOD_CHOICES,
        help="CSSG construction method (symbolic = BDD image computation)",
    )
    parser.add_argument(
        "--no-random", action="store_true", help="skip the random TPG step"
    )
    parser.add_argument(
        "--faulty-semantics",
        default="exact",
        choices=["exact", "ternary"],
        help="faulty-machine semantics for the 3-phase generator",
    )
    parser.add_argument(
        "--collapse",
        action="store_true",
        help="structural fault collapsing before generation",
    )
    parser.add_argument(
        "--compact",
        action="store_true",
        help="static test-set compaction after generation",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "wall-clock budget for the run; on expiry the untried "
            "remainder is reported aborted (reason 'budget') and the "
            "partial result is still valid"
        ),
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="live one-line progress from the flow event stream (stderr)",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help=(
            "collect run metrics and write them to FILE on exit "
            "(Prometheus text format; JSON when FILE ends in .json)"
        ),
    )
    parser.add_argument(
        "--spans",
        default=None,
        metavar="FILE",
        help=(
            "trace the run and write one JSON line per span to FILE; "
            "each flow event rides the span open when it was emitted"
        ),
    )
    parser.add_argument(
        "--self-profile",
        action="store_true",
        help=(
            "trace the run's spans and print the aggregated span table "
            "(calls, total/self seconds) to stderr"
        ),
    )
    parser.add_argument(
        "--profile",
        default=None,
        metavar="FILE",
        help=(
            "run under cProfile, dump stats to FILE (.pstats) and print "
            "the top 20 functions by cumulative time to stderr"
        ),
    )
    parser.add_argument(
        "--show-tests", action="store_true", help="print every generated sequence"
    )
    parser.add_argument(
        "--show-undetected", action="store_true", help="print undetected faults"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the result as one JSON object instead of the summary",
    )
    return parser


@exits_on_broken_pipe
def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--campaign" in argv:  # alias: repro-atpg --campaign ... == repro-campaign ...
        return campaign_main([a for a in argv if a != "--campaign"])
    args = build_arg_parser().parse_args(argv)
    if args.list:
        for name in benchmark_names():
            print(name)
        return 0
    if not args.circuit:
        print("error: give a benchmark name or .net path (or --list)", file=sys.stderr)
        return 2
    try:
        from repro.faultmodels import get_model

        get_model(args.model)  # unknown fault model: exit 1 with the list
        path = Path(args.circuit)
        if args.circuit in benchmark_names():
            circuit = load_benchmark(args.circuit, style=args.style)
        elif path.exists():
            circuit = load_netlist(path)
        elif "/" in args.circuit or args.circuit.endswith(".net"):
            print(
                f"error: {args.circuit!r} is neither a bundled benchmark "
                "nor an existing file",
                file=sys.stderr,
            )
            return 2
        else:
            # A bare word that names neither a benchmark nor a file:
            # raise the ReproError that lists the available benchmarks.
            circuit = load_benchmark(args.circuit, style=args.style)
        options = AtpgOptions(
            fault_model=args.model,
            seed=args.seed,
            k=args.k,
            cssg_method=args.cssg_method,
            use_random_tpg=not args.no_random,
            faulty_semantics=args.faulty_semantics,
            collapse=args.collapse,
            compact=args.compact,
            deadline_seconds=args.deadline,
        )
        progress = ProgressLine(sys.stderr) if args.progress else None
        listeners = [progress] if progress is not None else []
        tracer = None
        if args.spans or args.self_profile:
            from repro.obs import Tracer

            tracer = Tracer()
        with _armed_metrics(bool(args.metrics), args.metrics):
            try:
                result = _run_observed(circuit, options, listeners, tracer, args)
            finally:
                if progress is not None:
                    progress.close()
        if tracer is not None:
            if args.spans:
                tracer.write_jsonl(args.spans)
            if args.self_profile:
                from repro.obs import format_profile

                print(format_profile(tracer.profile()), file=sys.stderr)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(result.to_json_dict(), indent=2))
        return 0
    print(result.summary())
    if args.show_tests:
        for i, test in enumerate(result.tests):
            patterns = " ".join(test.format_patterns(circuit)) or "(observe reset)"
            names = ", ".join(f.describe(circuit) for f in test.faults)
            print(f"  test {i} [{test.source}]: {patterns}  -> {names}")
    if args.show_undetected:
        for fault in result.undetected_faults():
            record = result.statuses[fault]
            label = record.status
            if record.reason:
                label += f": {record.reason}"
            print(f"  undetected [{label}]: {fault.describe(circuit)}")
    return 0


@contextmanager
def _armed_metrics(arm: bool, path):
    """Collect into a fresh ambient metrics registry over the block when
    ``arm``, then restore the caller's registry and switch, and write
    the fresh registry to ``path`` when one is given and the block
    succeeded — the ``--metrics`` plumbing of ``repro-atpg`` and
    ``repro-campaign``."""
    if not arm:
        yield
        return
    from repro.obs import MetricsRegistry, set_registry, write_metrics
    from repro.obs.metrics import armed

    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        with armed():
            yield
    finally:
        set_registry(previous)
    if path:
        write_metrics(path, registry)


def _print_progress(outcome, done, total) -> None:
    """``repro-campaign``'s progress line for one resolved job."""
    line = f"[{done}/{total}] {outcome.job.name}: {outcome.status}"
    if outcome.executed:
        line += f" ({outcome.seconds:.2f}s)"
    if outcome.error:
        line += f" — {outcome.error}"
    print(line, file=sys.stderr)


def _run_observed(circuit, options, listeners, tracer, args):
    """One flow run under whatever observability the flags selected:
    an explicit tracer scope (``--spans`` / ``--self-profile``) and/or
    a cProfile wrap (``--profile``, top-20 cumulative to stderr)."""
    from contextlib import nullcontext

    from repro.obs import use_tracer

    scope = use_tracer(tracer) if tracer is not None else nullcontext()
    with scope:
        if not args.profile:
            return Flow.default().run(circuit, options, listeners=listeners)
        import cProfile
        import pstats

        directory = os.path.dirname(os.path.abspath(args.profile))
        os.makedirs(directory, exist_ok=True)
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            result = Flow.default().run(circuit, options, listeners=listeners)
        finally:
            profiler.disable()
            profiler.dump_stats(args.profile)
            stats = pstats.Stats(profiler, stream=sys.stderr)
            stats.sort_stats("cumulative").print_stats(20)
        return result


# ---------------------------------------------------------------------------
# repro-campaign
# ---------------------------------------------------------------------------


def build_campaign_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description=(
            "Run an ATPG campaign: many (circuit, fault model, seed) jobs "
            "sharded across worker processes, with a content-addressed "
            "result cache so unchanged jobs are never recomputed."
        ),
    )
    parser.add_argument(
        "benchmarks",
        nargs="*",
        help=(
            "bundled benchmark names and/or .net paths "
            "(default: the paper's Table 1 corpus)"
        ),
    )
    parser.add_argument(
        "--table2",
        action="store_true",
        help="default to the Table 2 subset with the two-level back end",
    )
    parser.add_argument(
        "--style",
        default=None,
        choices=["complex", "two-level"],
        help="synthesis back end (default: complex, or two-level with --table2)",
    )
    parser.add_argument(
        "--models",
        default="output,input",
        help=(
            "comma list of fault models to run, each a registered model "
            f"({', '.join(model_names())}); default: output,input"
        ),
    )
    parser.add_argument(
        "--seeds", default="0", help="comma list of random-TPG seeds (default: 0)"
    )
    parser.add_argument("--k", type=int, default=None, help="test-cycle bound k")
    parser.add_argument(
        "--cssg-method",
        default="auto",
        help=(
            "comma list of CSSG construction methods to cross as a "
            "campaign axis (auto/exact/ternary/hybrid/symbolic; "
            "default: auto)"
        ),
    )
    parser.add_argument(
        "--random-walks", type=int, default=None, help="random TPG walk count"
    )
    parser.add_argument(
        "--walk-len", type=int, default=None, help="random TPG walk length"
    )
    parser.add_argument(
        "--workers",
        type=non_negative(int),
        default=None,
        help="worker processes (0 = in-process; default: CPU count)",
    )
    parser.add_argument(
        "--timeout",
        type=positive(float),
        default=None,
        help="per-job timeout in seconds, > 0 (default: 600; inf = never)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="neither read nor write the cache"
    )
    parser.add_argument(
        "--refresh",
        action="store_true",
        help="ignore cached results but still store fresh ones",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="write table.txt / campaign.csv / campaign.json here",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the campaign manifest as JSON instead of the table",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-job progress on stderr"
    )
    parser.add_argument(
        "--incremental",
        action="store_true",
        help=(
            "resolve cache misses through the per-cohort incremental "
            "layer: fault cohorts whose cones of influence are unchanged "
            "replay from cached partials, only stale ones re-run "
            "(needs the cache; see docs/incremental.md)"
        ),
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help=(
            "collect campaign-wide telemetry and write the merged "
            "metrics to FILE on exit (Prometheus text; JSON for .json)"
        ),
    )
    return parser


@exits_on_broken_pipe
def campaign_main(argv=None) -> int:
    from repro.benchmarks_data import TABLE1_NAMES, TABLE2_NAMES
    from repro.campaign import (
        CampaignSpec,
        ResultStore,
        campaign_manifest,
        expand,
        rows_from_outcomes,
        run_campaign,
        write_artifacts,
    )
    from repro.campaign.runner import DEFAULT_JOB_TIMEOUT
    from repro.core.report import format_table

    args = build_campaign_parser().parse_args(argv)
    names = list(args.benchmarks) or list(
        TABLE2_NAMES if args.table2 else TABLE1_NAMES
    )
    style = args.style or ("two-level" if args.table2 else "complex")
    methods = tuple(
        m.strip() for m in args.cssg_method.split(",") if m.strip()
    ) or ("auto",)
    known = set(_CSSG_METHOD_CHOICES)
    unknown = sorted(set(methods) - known)
    if unknown:
        print(
            f"error: unknown --cssg-method value(s) {', '.join(unknown)} "
            f"(choose from {', '.join(sorted(known))})",
            file=sys.stderr,
        )
        return 2
    option_fields = {}
    if args.random_walks is not None:
        option_fields["random_walks"] = args.random_walks
    if args.walk_len is not None:
        option_fields["walk_len"] = args.walk_len
    try:
        spec = CampaignSpec(
            benchmarks=names,
            styles=(style,),
            fault_models=tuple(m.strip() for m in args.models.split(",") if m.strip()),
            seeds=tuple(int(s) for s in args.seeds.split(",") if s.strip()),
            ks=(args.k,),
            cssg_methods=methods,
            options=AtpgOptions(**option_fields),
        )
        jobs = expand(spec)
    except (ReproError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.incremental and args.no_cache:
        print(
            "error: --incremental needs the cache; "
            "drop --no-cache or --incremental",
            file=sys.stderr,
        )
        return 2

    title = "Table-2 campaign" if args.table2 else "Campaign"
    with _armed_metrics(bool(args.metrics), args.metrics):
        report = run_campaign(
            jobs,
            workers=args.workers,
            store=(
                None if args.no_cache
                else ResultStore(args.cache_dir, track_stats=True)
            ),
            timeout=DEFAULT_JOB_TIMEOUT if args.timeout is None else args.timeout,
            progress=None if args.quiet else _print_progress,
            refresh=args.refresh,
            incremental=args.incremental,
        )
    if args.out:
        write_artifacts(args.out, report, spec, title=title)
    if args.json:
        print(json.dumps(campaign_manifest(spec, report, title=title), indent=2))
    else:
        print(format_table(rows_from_outcomes(report.outcomes), title=title))
    print(report.summary(), file=sys.stderr)
    if args.incremental:
        inc = [o.incremental for o in report.outcomes if o.incremental]
        if inc:
            print(
                "incremental: "
                f"{sum(d.get('cohorts_reused', 0) for d in inc)} cohorts "
                f"reused, {sum(d.get('cohorts_executed', 0) for d in inc)} "
                f"executed of {sum(d.get('cohorts_total', 0) for d in inc)}",
                file=sys.stderr,
            )
    for outcome in report.outcomes:
        if not outcome.ok:
            print(
                f"error: {outcome.job.name}: {outcome.status} {outcome.error}",
                file=sys.stderr,
            )
    return 0 if report.all_ok else 1


def build_cache_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cache",
        description=(
            "Maintain the shared content-addressed result cache used by "
            "repro-campaign."
        ),
    )
    parser.add_argument(
        "command", choices=["list", "stats", "prune", "clear"],
        help="what to do",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="cache root (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--max-age-days", type=float, default=None,
        help="prune: evict entries older than this many days",
    )
    parser.add_argument(
        "--max-size-mb", type=float, default=None,
        help="prune: evict oldest entries until the store fits this size",
    )
    parser.add_argument(
        "--dry-run", action="store_true",
        help="prune/clear: report what would be removed, remove nothing",
    )
    parser.add_argument("--json", action="store_true", help="JSON output")
    return parser


@exits_on_broken_pipe
def cache_main(argv=None) -> int:
    """``repro-cache``: list / stats / prune / clear the result store."""
    from repro.campaign.store import ENTRY_CLASSES, ResultStore

    args = build_cache_parser().parse_args(argv)
    store = ResultStore(args.cache_dir)

    if args.command == "list":
        entries = store.entries()
        if args.json:
            print(json.dumps(
                [
                    {"key": key, "bytes": size, "mtime": mtime}
                    for key, _path, size, mtime in entries
                ],
                indent=2,
            ))
        else:
            for key, _path, size, mtime in entries:
                print(f"{key}  {size:>9d} B  mtime={mtime:.0f}")
            print(f"{len(entries)} entries in {store.root}", file=sys.stderr)
        return 0

    if args.command == "stats":
        doc = store.stats()
        if args.json:
            print(json.dumps(doc, indent=2))
        else:
            print(f"root:        {doc['root']}")
            print(f"entries:     {doc['n_entries']}")
            print(f"total bytes: {doc['total_bytes']}")
            lookups = doc["lookups"]
            rate = lookups["hit_rate"]
            print(
                f"lookups:     {lookups['hits']} hits / "
                f"{lookups['misses']} misses"
                + (f" ({rate:.1%} hit rate)" if rate is not None else "")
            )
            for entry_class, shape in doc["classes"].items():
                counts = shape["lookups"]
                class_rate = counts["hit_rate"]
                print(
                    f"  {entry_class:<8} {shape['n_entries']:>6} entries  "
                    f"{shape['total_bytes']:>10} B  "
                    f"{counts['hits']} hits / {counts['misses']} misses"
                    + (
                        f" ({class_rate:.1%})"
                        if class_rate is not None
                        else ""
                    )
                )
        return 0

    if args.command == "clear":
        if args.dry_run:
            n = sum(len(store.class_entries(c)) for c in ENTRY_CLASSES)
        else:
            n = store.clear()
        verb = "would remove" if args.dry_run else "removed"
        print(f"{verb} {n} entries from {store.root}")
        return 0

    # prune
    if args.max_age_days is None and args.max_size_mb is None:
        print(
            "error: prune needs --max-age-days and/or --max-size-mb",
            file=sys.stderr,
        )
        return 2
    max_age = (
        args.max_age_days * 86400.0 if args.max_age_days is not None else None
    )
    max_bytes = (
        int(args.max_size_mb * 1024 * 1024)
        if args.max_size_mb is not None
        else None
    )
    if args.dry_run:
        plan = store.prune_plan(
            max_age_seconds=max_age, max_total_bytes=max_bytes
        )
        if args.json:
            print(json.dumps(plan, indent=2))
            return 0
        for entry_class in ("results", "cohorts", "cssg"):
            row = plan[entry_class]
            label = (
                "full results" if entry_class == "results" else
                "cohort packs" if entry_class == "cohorts" else
                "cssg graphs"
            )
            print(
                f"  {label:<16} {row['n_entries']:>6} entries, "
                f"{row['bytes']} bytes"
            )
        total = plan["total"]
        print(
            f"would remove {total['n_entries']} entries, "
            f"freeing {total['bytes']} bytes"
        )
        return 0
    n, freed = store.prune(max_age_seconds=max_age, max_total_bytes=max_bytes)
    print(f"removed {n} entries, freed {freed} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
