"""Instrumentation overhead: telemetry must be ≤3% on the hot kernels.

The observability layer's contract is that it is safe to leave in the
code: disabled, instrumented sites cost one switch check per call
site; enabled, they only count, and publish their counts at
boundaries (the BDD manager at the end of a build), never per
operation, so even armed collection stays within noise of the
uninstrumented timings.  This bench measures exactly that on two
instrumented kernels:

* exhaustive settling (:func:`repro.sgraph.explore.settle_report`),
  which counts ``repro_settle_*`` series on every call when armed, over
  every start the CSSG construction settles on the largest Table-2
  circuit, and
* the symbolic reachability image microbench on ``wide_handshake(10)``
  (the :mod:`bench_symbolic` workload), ending in the manager's
  metrics flush, so the armed publication is part of the timed path,

each run alternately with telemetry fully armed (metrics + ambient
tracer) and fully off, call by call, in best-of-5 samples (see
:func:`interleaved_overhead` — alternation cancels runner drift, the
best-of sheds scheduler spikes, the median over pairs sheds the pairs
a spike still reaches).  The asserted ceiling is **3% overhead when
armed** — the acceptance bar for shipping instrumentation inside
kernels.  Results land in ``benchmarks/out/BENCH_observability.json``.
"""

import json
import time
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry, Tracer, use_tracer
from repro.obs import metrics as obs_metrics

OUT_PATH = Path(__file__).resolve().parent / "out" / "BENCH_observability.json"

#: Armed-vs-off overhead ceiling on kernel workloads.
MAX_OVERHEAD = 0.03

_results = {}


@pytest.fixture(scope="session", autouse=True)
def emit_json():
    yield
    OUT_PATH.parent.mkdir(exist_ok=True)
    OUT_PATH.write_text(json.dumps(_results, indent=2) + "\n")
    print(f"\nwrote {OUT_PATH}")


@pytest.fixture(autouse=True)
def _telemetry_off_after():
    yield
    obs_metrics.disable()


def interleaved_overhead(run_off, run_on, reps=11, inner=5):
    """Armed-vs-off overhead measured on interleaved calls.

    Shared runners drift and stall (throttling, neighbours): on a busy
    VM a third of the calls can run half again slower, in spells a few
    calls long.  So the two modes' calls alternate (off, on, on, off,
    ...; the order within each call pair flips every time, since
    throttling decays within a pair too) and a spell lands on both.
    Each rep's sample of a mode is the best of its ``inner`` calls, and
    the rep contributes one on/off ratio.  The reported overhead is the
    **median** ratio: a *systematic* overhead shows up in every pair,
    while a spell that still slows one sample of a pair moves only that
    pair.  (The smallest ratio is not used: with spells this common,
    some rep always catches a slow off sample and reports a large
    negative overhead, which hides a real one.)  Returns ``(t_off_min,
    t_on_min, overhead)``."""

    def timed(run):
        t0 = time.perf_counter()
        run()
        return time.perf_counter() - t0

    ratios = []
    t_off = t_on = float("inf")
    for rep in range(reps):
        off = on = float("inf")
        for call in range(inner):
            if (rep + call) % 2 == 0:
                off = min(off, timed(run_off))
                on = min(on, timed(run_on))
            else:
                on = min(on, timed(run_on))
                off = min(off, timed(run_off))
        ratios.append(on / off)
        t_off = min(t_off, off)
        t_on = min(t_on, on)
    ratios.sort()
    return t_off, t_on, ratios[len(ratios) // 2] - 1.0


def test_settle_report_overhead():
    """Armed telemetry ≤3% on exhaustive settling over a CSSG's starts."""
    from repro.benchmarks_data import TABLE2_NAMES, load_benchmark
    from repro.sgraph.cssg import build_cssg
    from repro.sgraph.explore import settle_report

    circuit = max(
        (load_benchmark(name, "two-level") for name in TABLE2_NAMES),
        key=lambda c: c.n_signals,
    )
    cssg = build_cssg(circuit, method="exact")
    # Every post-input-change state the CSSG construction settles.
    starts = sorted(
        {
            circuit.apply_input_pattern(state, pattern)
            for state in cssg.states
            for pattern in range(1 << circuit.n_inputs)
            if pattern != circuit.input_pattern(state)
        }
    )

    def run_settles():
        return [settle_report(circuit, start) for start in starts]

    def run_off():
        obs_metrics.disable()
        return run_settles()

    def run_on():
        obs_metrics.enable(MetricsRegistry())
        with use_tracer(Tracer()):
            return run_settles()

    reports = run_off()
    assert run_on() == reports  # telemetry never changes a report
    # Armed, every call counts the states it visited: the instrumented
    # path is the one timed.
    counted = {
        family["name"]: family["samples"]
        for family in obs_metrics.get_registry().snapshot()["counters"]
    }
    n_states = sum(r.n_states for r in reports)
    assert counted["repro_settle_states_total"] == [[["full"], n_states]]
    t_off, t_on, overhead = interleaved_overhead(run_off, run_on)
    print(
        f"\nsettle_report on {circuit.name} ({len(starts)} starts): off "
        f"{1e3 * t_off:.1f}ms vs armed {1e3 * t_on:.1f}ms -> overhead "
        f"{100 * overhead:+.2f}%"
    )
    _results["settle_report"] = {
        "benchmark": circuit.name,
        "n_starts": len(starts),
        "n_states": n_states,
        "off_ms": round(1e3 * t_off, 2),
        "armed_ms": round(1e3 * t_on, 2),
        "overhead_fraction": round(overhead, 4),
    }
    assert overhead <= MAX_OVERHEAD, (
        f"armed telemetry costs {100 * overhead:.2f}% on settle_report "
        f"(ceiling {100 * MAX_OVERHEAD:.0f}%)"
    )


def test_symbolic_image_overhead():
    """Armed telemetry (metrics + spans) ≤3% on reachability images."""
    from bench_symbolic import wide_handshake
    from repro.sgraph.symbolic import SymbolicTcsg

    circuit = wide_handshake(10)

    def run_reach():
        s = SymbolicTcsg(circuit)
        count = s.count_states(s.reachable())
        s.mgr.publish_metrics()
        return count

    def run_off():
        obs_metrics.disable()
        return run_reach()

    def run_on():
        obs_metrics.enable(MetricsRegistry())
        with use_tracer(Tracer()):
            return run_reach()

    assert run_off() == run_on()  # same reachable state count
    # Armed, the end-of-build flush publishes the cache counters: the
    # metric flush is on the timed path.
    assert obs_metrics.get_registry().value("repro_bdd_cache_lookups_total") >= 1
    t_off, t_on, overhead = interleaved_overhead(run_off, run_on)
    print(
        f"\nimage m=10: off {1e3 * t_off:.1f}ms vs armed "
        f"{1e3 * t_on:.1f}ms -> overhead {100 * overhead:+.2f}%"
    )
    _results["symbolic_image"] = {
        "m": 10,
        "off_ms": round(1e3 * t_off, 2),
        "armed_ms": round(1e3 * t_on, 2),
        "overhead_fraction": round(overhead, 4),
    }
    assert overhead <= MAX_OVERHEAD, (
        f"armed telemetry costs {100 * overhead:.2f}% on the image "
        f"microbench (ceiling {100 * MAX_OVERHEAD:.0f}%)"
    )
