"""Instrumentation overhead: telemetry must be ≤3% on the hot kernels.

The observability layer's contract is that it is safe to leave in the
code: disabled, instrumented sites cost one switch check per call
site; enabled, they only count, and publish their counts at
boundaries (the BDD manager at GC/sift and at the end of a build),
never per operation, so even armed collection stays within noise of
the uninstrumented timings.  This bench measures exactly that on two
instrumented kernels:

* exhaustive settling (:func:`repro.sgraph.explore.settle_report`),
  which counts ``repro_settle_*`` series on every call when armed, over
  every start the CSSG construction settles on the largest Table-2
  circuit, and
* the symbolic reachability image microbench on ``wide_handshake(10)``
  (the :mod:`bench_symbolic` workload),

each run alternately with telemetry fully armed (metrics + ambient
tracer) and fully off, comparing *temporally adjacent* sample pairs and
taking the cleanest armed/off ratio (see :func:`interleaved_overhead` —
pairing cancels runner drift, the minimum sheds scheduler spikes the
way best-of timing does).  The asserted ceiling is **3% overhead when
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


def interleaved_overhead(run_off, run_on, reps=11, inner=1):
    """Armed-vs-off overhead measured on temporally adjacent pairs.

    Shared runners drift (throttling, neighbours), so comparing a
    global best-of-off against a global best-of-on confounds drift with
    overhead.  Instead each rep times one off and one on sample
    back-to-back and contributes an on/off ratio; the reported overhead
    is the **minimum** ratio — the same noise-free-estimate logic as
    best-of timing (scheduler interference only ever adds time, so the
    cleanest pair is the honest one; a *systematic* overhead shows up
    in every pair and survives the min).  Each sample is the best of
    ``inner`` timed calls, so a spike that hits one *off* call cannot
    pass for a negative overhead.  The within-pair order flips
    every rep — throttling decays monotonically *within* a pair too,
    and a fixed order would bill that decay to whichever mode runs
    second.  Returns ``(t_off_min, t_on_min, overhead_min,
    overhead_median)`` — assert on the min (the noise-free estimate),
    report the median (the typical pair)."""

    def sample(run):
        best = float("inf")
        for _ in range(inner):
            t0 = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - t0)
        return best

    ratios = []
    t_off = t_on = float("inf")
    for rep in range(reps):
        if rep % 2 == 0:
            off, on = sample(run_off), sample(run_on)
        else:
            on, off = sample(run_on), sample(run_off)
        ratios.append(on / off)
        t_off = min(t_off, off)
        t_on = min(t_on, on)
    ratios.sort()
    return t_off, t_on, ratios[0] - 1.0, ratios[len(ratios) // 2] - 1.0


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
    t_off, t_on, overhead, typical = interleaved_overhead(
        run_off, run_on, inner=5
    )
    print(
        f"\nsettle_report on {circuit.name} ({len(starts)} starts): off "
        f"{1e3 * t_off:.1f}ms vs armed {1e3 * t_on:.1f}ms -> best "
        f"{100 * overhead:+.2f}% / median {100 * typical:+.2f}%"
    )
    _results["settle_report"] = {
        "benchmark": circuit.name,
        "n_starts": len(starts),
        "n_states": n_states,
        "off_ms": round(1e3 * t_off, 2),
        "armed_ms": round(1e3 * t_on, 2),
        "overhead_fraction": round(overhead, 4),
        "overhead_fraction_median": round(typical, 4),
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
        s = SymbolicTcsg(
            circuit, auto_gc_nodes=5_000, auto_reorder_nodes=1_000
        )
        return s.count_states(s.reachable())

    def run_off():
        obs_metrics.disable()
        return run_reach()

    def run_on():
        obs_metrics.enable(MetricsRegistry())
        with use_tracer(Tracer()):
            return run_reach()

    assert run_off() == run_on()  # same reachable state count
    t_off, t_on, overhead, typical = interleaved_overhead(run_off, run_on)
    print(
        f"\nimage m=10: off {1e3 * t_off:.1f}ms vs armed "
        f"{1e3 * t_on:.1f}ms -> best {100 * overhead:+.2f}% "
        f"/ median {100 * typical:+.2f}%"
    )
    _results["symbolic_image"] = {
        "m": 10,
        "off_ms": round(1e3 * t_off, 2),
        "armed_ms": round(1e3 * t_on, 2),
        "overhead_fraction": round(overhead, 4),
        "overhead_fraction_median": round(typical, 4),
    }
    assert overhead <= MAX_OVERHEAD, (
        f"armed telemetry costs {100 * overhead:.2f}% on the image "
        f"microbench (ceiling {100 * MAX_OVERHEAD:.0f}%)"
    )
