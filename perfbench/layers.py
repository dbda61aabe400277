"""Outside-in layer timing: wrappers around each layer's public functions.

Every layer metric comes from replacing one function *at the binding its
caller actually uses*.  Several callers import with ``from ... import``,
so patching the defining module alone would miss them: ``synthesize``
is called through ``repro.benchmarks_data.registry``, ``compute_primes``
through ``repro.stg.synthesis``, and ``settle_report`` has two bindings
that mean two different layers (``repro.sgraph.cssg`` is CSSG
exploration, ``repro.core.exact_sim`` is three-phase exact settling).

A span's *self time* is its duration minus the time of the wrapped calls
nested inside it.  Nothing under ``src/`` is modified: :func:`installed`
swaps the bindings in for one traced pass and restores the originals.
Span names are the metric stems (``synth.primes`` gives
``synth.primes_s``), so spans placed inside the program later can keep
the same names.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple


def _note_state_graph(counts: Counter, args, result) -> None:
    counts["stg.sg_states"] += result.n_states


def _note_primes(counts: Counter, args, result) -> None:
    counts["synth.primes_out"] += len(result)


def _note_universe(counts: Counter, args, result) -> None:
    counts["faults.universe_size"] += len(result)


def _note_cssg(counts: Counter, args, result) -> None:
    counts["cssg.states"] += result.n_states
    counts["cssg.edges"] += result.n_edges


def _note_random_tpg(counts: Counter, args, result) -> None:
    counts["random_tpg.faults_in"] += len(args[1])
    counts["random_tpg.detected"] += len(result[0])


def _note_fault_sim(counts: Counter, args, result) -> None:
    counts["fault_sim.offered"] += len(args[1])
    counts["fault_sim.credited"] += len(result)


def _note_generate(counts: Counter, args, result) -> None:
    counts[f"three_phase.{result.status}"] += 1
    counts["three_phase.products_explored"] += result.product_states_explored


def _note_incremental(counts: Counter, args, result) -> None:
    stats = result[2]
    if stats is not None:
        counts["cohort.reused"] += stats.cohorts_reused
        counts["cohort.executed"] += stats.cohorts_executed


def _note_store_get(counts: Counter, args, result) -> None:
    counts["store.hits"] += result is not None


def _note_store_put(counts: Counter, args, result) -> None:
    counts["store.put_bytes"] += result.stat().st_size


_Note = Optional[Callable[[Counter, tuple, object], None]]
_TP = "repro.core.three_phase:ThreePhaseGenerator."
_STORE = "repro.campaign.store:ResultStore."

#: ``(span, "module:attribute", note)``; one span may have several
#: bindings.  ``note`` reads work counts off the arguments and result.
BINDINGS: Tuple[Tuple[str, str, _Note], ...] = (
    ("stg.parse", "repro.benchmarks_data.registry:load_stg", None),
    ("stg.state_graph", "repro.stg.synthesis:build_state_graph", _note_state_graph),
    ("synth.primes", "repro.stg.synthesis:compute_primes", _note_primes),
    ("synth.cover", "repro.stg.synthesis:next_state_cover", None),
    ("synth.synthesize", "repro.benchmarks_data.registry:synthesize", None),
    ("faults.universe", "repro.circuit.faults:fault_universe", _note_universe),
    ("faults.universe", "repro.flow.flow:fault_universe", _note_universe),
    ("cssg.build", "repro.campaign.runner:cssg_for", _note_cssg),
    ("cssg.build", "repro.flow.flow:cssg_for", _note_cssg),
    ("cssg.explore", "repro.sgraph.cssg:settle_report", None),
    ("random_tpg.run", "repro.flow.stages:random_tpg", _note_random_tpg),
    ("fault_sim.run", "repro.flow.stages:fault_simulate", _note_fault_sim),
    ("three_phase.generate", _TP + "generate", _note_generate),
    ("three_phase.activate", _TP + "activation_states", None),
    ("three_phase.justify", _TP + "justification", None),
    ("three_phase.differentiate", _TP + "differentiate", None),
    ("three_phase.exact_settle", "repro.core.exact_sim:settle_report", None),
    ("campaign.expand", "repro.campaign.plan:expand", None),
    (
        "campaign.incremental",
        "repro.campaign.runner:execute_job_incremental",
        _note_incremental,
    ),
    ("store.get", _STORE + "get_cohort", _note_store_get),
    ("store.get", _STORE + "get_cssg", _note_store_get),
    ("store.put", _STORE + "put_cohort", _note_store_put),
    ("store.put", _STORE + "put_cssg", _note_store_put),
    ("cohort.partition", "repro.campaign.cohort:partition", None),
    ("cohort.extract", "repro.campaign.cohort:extract_partials", None),
    ("cohort.merge", "repro.campaign.cohort:merge_payload", None),
)

SPANS: Tuple[str, ...] = tuple(dict.fromkeys(span for span, _, _ in BINDINGS))

#: Spans each workload must reach at the seed code; a span listed here
#: that a traced pass never entered is reported as unbound, not as 0.
#: ``fault_sim.run`` is listed nowhere: three-phase detects no fault on
#: the bundled corpus, so nothing is ever offered to fault simulation.
#: ``cohort.merge`` runs only when an edit leaves every cohort cached,
#: which some seeds never draw.
_TABLE_SPANS = (
    "stg.parse", "stg.state_graph", "synth.primes", "synth.cover",
    "synth.synthesize", "faults.universe", "cssg.build", "cssg.explore",
    "random_tpg.run", "three_phase.generate", "three_phase.activate",
    "three_phase.differentiate", "campaign.expand",
)
EXPECTED: Dict[str, Tuple[str, ...]] = {
    "table1": _TABLE_SPANS,
    "table2": _TABLE_SPANS + ("three_phase.justify", "three_phase.exact_settle"),
    "edit_rerun": (
        "faults.universe", "cssg.build", "cssg.explore", "random_tpg.run",
        "three_phase.generate", "campaign.expand", "campaign.incremental",
        "store.get", "store.put", "cohort.partition", "cohort.extract",
    ),
}

#: ``(metric, unit, better)`` for every per-layer metric, in report order.
LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("stg.parse_s", "s", "lower"),
    ("stg.state_graph_s", "s", "lower"),
    ("stg.sg_states", "count", "lower"),
    ("synth.primes_s", "s", "lower"),
    ("synth.primes_calls", "count", "lower"),
    ("synth.primes_out", "count", "lower"),
    ("synth.cover_s", "s", "lower"),
    ("synth.synthesize_s", "s", "lower"),
    ("faults.universe_s", "s", "lower"),
    ("faults.universe_size", "count", "lower"),
    ("cssg.build_s", "s", "lower"),
    ("cssg.explore_s", "s", "lower"),
    ("cssg.explore_calls", "count", "lower"),
    ("cssg.states", "count", "lower"),
    ("cssg.edges", "count", "lower"),
    ("random_tpg.run_s", "s", "lower"),
    ("random_tpg.faults_in", "count", "lower"),
    ("random_tpg.detected", "count", "higher"),
    ("random_tpg.yield", "ratio", "higher"),
    ("fault_sim.run_s", "s", "lower"),
    ("fault_sim.calls", "count", "lower"),
    ("fault_sim.offered", "count", "lower"),
    ("fault_sim.credited", "count", "higher"),
    ("fault_sim.yield", "ratio", "higher"),
    ("three_phase.generate_s", "s", "lower"),
    ("three_phase.activate_s", "s", "lower"),
    ("three_phase.justify_s", "s", "lower"),
    ("three_phase.differentiate_s", "s", "lower"),
    ("three_phase.exact_settle_s", "s", "lower"),
    ("three_phase.exact_settle_calls", "count", "lower"),
    ("three_phase.calls", "count", "lower"),
    ("three_phase.detected", "count", "higher"),
    ("three_phase.undetectable", "count", "lower"),
    ("three_phase.aborted", "count", "lower"),
    ("three_phase.products_explored", "count", "lower"),
    ("three_phase.yield", "ratio", "higher"),
    ("campaign.expand_s", "s", "lower"),
    ("campaign.incremental_s", "s", "lower"),
    ("store.get_s", "s", "lower"),
    ("store.get_calls", "count", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("store.put_s", "s", "lower"),
    ("store.put_calls", "count", "lower"),
    ("store.put_bytes", "bytes", "lower"),
    ("cohort.partition_s", "s", "lower"),
    ("cohort.extract_s", "s", "lower"),
    ("cohort.merge_s", "s", "lower"),
    ("cohort.reused", "count", "higher"),
    ("cohort.executed", "count", "lower"),
    ("cohort.reuse_ratio", "ratio", "higher"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unbound_layers", "count", "lower"),
    ("check.verdict_mismatches", "count", "lower"),
    ("check.failed_ops", "count", "lower"),
)


class Tracer:
    """Self time, call counts and work counts of the wrapped spans."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._child_s: List[float] = []  # one accumulator per open span

    def wrap(self, span: str, fn: Callable, note: _Note) -> Callable:
        stack = self._child_s

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                self.self_s[span] += duration - stack.pop()
                self.calls[span] += 1
                if stack:
                    stack[-1] += duration
            if note is not None:
                note(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _resolve(target: str):
    """``(owner, attribute)`` for ``"module:attr"`` or
    ``"module:Class.attr"``; raises when the binding no longer exists."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    if attr not in vars(owner):
        raise RuntimeError(
            f"perfbench: wrapped binding {target} no longer exists; "
            "update BINDINGS in perfbench/layers.py"
        )
    return owner, attr


def check_bindings() -> None:
    """Fail loudly if any wrapped name has gone (renamed, moved)."""
    for _, target, _ in BINDINGS:
        _resolve(target)


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Swap every binding for its traced wrapper; restore on exit."""
    saved = []
    try:
        for span, target, note in BINDINGS:
            owner, attr = _resolve(target)
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(span, original, note))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> Dict[str, float]:
    """One traced pass's per-layer metrics (without the ``trace.overhead``
    and ``check.*`` entries, which need the untraced passes and the
    output checks)."""
    s, n, c = tracer.self_s, tracer.calls, tracer.counts
    out: Dict[str, float] = {}
    for span in SPANS:
        out[span + "_s"] = s[span]
    out["stg.sg_states"] = c["stg.sg_states"]
    out["synth.primes_calls"] = n["synth.primes"]
    out["synth.primes_out"] = c["synth.primes_out"]
    out["faults.universe_size"] = c["faults.universe_size"]
    out["cssg.explore_calls"] = n["cssg.explore"]
    out["cssg.states"] = c["cssg.states"]
    out["cssg.edges"] = c["cssg.edges"]
    out["random_tpg.faults_in"] = c["random_tpg.faults_in"]
    out["random_tpg.detected"] = c["random_tpg.detected"]
    out["random_tpg.yield"] = _ratio(
        c["random_tpg.detected"], c["random_tpg.faults_in"]
    )
    out["fault_sim.calls"] = n["fault_sim.run"]
    out["fault_sim.offered"] = c["fault_sim.offered"]
    out["fault_sim.credited"] = c["fault_sim.credited"]
    out["fault_sim.yield"] = _ratio(c["fault_sim.credited"], c["fault_sim.offered"])
    out["three_phase.exact_settle_calls"] = n["three_phase.exact_settle"]
    out["three_phase.calls"] = n["three_phase.generate"]
    for verdict in ("detected", "undetectable", "aborted"):
        out[f"three_phase.{verdict}"] = c[f"three_phase.{verdict}"]
    out["three_phase.products_explored"] = c["three_phase.products_explored"]
    out["three_phase.yield"] = _ratio(
        c["three_phase.detected"], n["three_phase.generate"]
    )
    out["store.get_calls"] = n["store.get"]
    out["store.hit_ratio"] = _ratio(c["store.hits"], n["store.get"])
    out["store.put_calls"] = n["store.put"]
    out["store.put_bytes"] = c["store.put_bytes"]
    out["cohort.reused"] = c["cohort.reused"]
    out["cohort.executed"] = c["cohort.executed"]
    out["cohort.reuse_ratio"] = _ratio(
        c["cohort.reused"], c["cohort.reused"] + c["cohort.executed"]
    )
    out["trace.unattributed_s"] = wall_s - sum(s[span] for span in SPANS)
    return out


def unbound(workload: str, tracers: List[Tracer]) -> List[str]:
    """Spans the workload is expected to reach that no traced pass hit."""
    return [
        span
        for span in EXPECTED[workload]
        if not any(tracer.calls[span] for tracer in tracers)
    ]
