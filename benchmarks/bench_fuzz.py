"""Experiment E-fuzz — scenario generation + health-gate throughput.

The fuzzing loop is only useful if specs come out fast: every seed
pays Johnson-ring construction, decoration draws, state-graph
reachability, the full STG health analysis (free-choice, input-choice,
persistency, CSC), and logic synthesis for STG scenarios — rejected
draws are retried.  This bench pins that cost:

* **generation floor** — seeded generation with the default config
  must sustain at least ``GEN_FLOOR_PER_SEC`` accepted scenarios per
  second (measured ~14/sec on CI-class hardware; the floor is the
  conservative regression bar, ~4x headroom).
* **oracle battery rate** — the full six-pair differential battery
  per scenario, recorded for trajectory tracking (no floor: the
  incremental pair's ATPG cost dominates and varies with shape).

Results land in ``benchmarks/out/BENCH_fuzz.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.fuzz import generate_scenario, run_scenario

OUT_PATH = Path(__file__).resolve().parent / "out" / "BENCH_fuzz.json"

GEN_SEEDS = 60  #: seeds timed for the generation floor
BATTERY_SEEDS = 8  #: seeds timed through the full oracle battery

#: Asserted accepted-scenarios/sec floor for generation + health gate.
GEN_FLOOR_PER_SEC = 3.0

_results = {}


@pytest.fixture(scope="session", autouse=True)
def emit_json():
    yield
    OUT_PATH.parent.mkdir(exist_ok=True)
    OUT_PATH.write_text(json.dumps(_results, indent=2) + "\n")
    print(f"\nwrote {OUT_PATH}")


def test_generation_throughput_floor(capsys):
    t0 = time.perf_counter()
    scenarios = [generate_scenario(seed) for seed in range(GEN_SEEDS)]
    seconds = time.perf_counter() - t0
    accepted = [s for s in scenarios if s is not None]
    attempts = sum(s.rejections.attempts for s in accepted)
    rate = len(accepted) / seconds
    _results["generation"] = {
        "seeds": GEN_SEEDS,
        "accepted": len(accepted),
        "attempts": attempts,
        "seconds": round(seconds, 3),
        "scenarios_per_sec": round(rate, 2),
        "floor_per_sec": GEN_FLOOR_PER_SEC,
    }
    with capsys.disabled():
        print(
            f"\ngeneration: {len(accepted)}/{GEN_SEEDS} accepted in "
            f"{seconds:.2f}s = {rate:.1f}/sec "
            f"({attempts} attempts incl. rejections)"
        )
    assert len(accepted) >= GEN_SEEDS * 0.8, "generator yield collapsed"
    assert rate >= GEN_FLOOR_PER_SEC, (
        f"generation+health throughput {rate:.2f}/sec fell below the "
        f"{GEN_FLOOR_PER_SEC}/sec floor"
    )


def test_oracle_battery_rate(capsys):
    scenarios = [
        s for s in (generate_scenario(seed) for seed in range(BATTERY_SEEDS))
        if s is not None
    ]
    t0 = time.perf_counter()
    reports = [run_scenario(s) for s in scenarios]
    seconds = time.perf_counter() - t0
    checks = sum(sum(r.checks.values()) for r in reports)
    divergent = sum(0 if r.ok else 1 for r in reports)
    _results["battery"] = {
        "scenarios": len(scenarios),
        "seconds": round(seconds, 3),
        "seconds_per_scenario": round(seconds / len(scenarios), 3),
        "checks": checks,
        "divergent": divergent,
    }
    with capsys.disabled():
        print(
            f"battery: {len(scenarios)} scenarios, {checks} checks in "
            f"{seconds:.2f}s = {seconds / len(scenarios):.2f}s/scenario"
        )
    assert divergent == 0, f"{divergent} scenarios diverged"
    assert checks > 0
