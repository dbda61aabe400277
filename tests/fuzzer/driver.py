"""The seed driver: ``PYTHONPATH=src:tests python -m fuzzer``.

Examples, from the repository root::

    PYTHONPATH=src:tests python -m fuzzer -n 200 --workers 2 --out fuzz-out
    PYTHONPATH=src:tests python -m fuzzer --seed 1000 -n 50 --oracles settle,kernels
    PYTHONPATH=src:tests python -m fuzzer --seed 17 -n 1 --workers 0   # replay

Seeds ``[--seed, --seed + -n)`` are mapped over a ``multiprocessing``
pool, or run in-process at ``--workers 0``.  Each task generates its
seed's scenario, runs it through the oracle pairs and, when a pair
disagrees, shrinks the scenario to a minimal failing spec before it
returns.  The per-seed records are aggregated in seed order; with
``--out DIR`` the aggregate goes to ``DIR/fuzz_report.json`` and each
divergent seed's shrunk spec to ``DIR/divergent-seed<N>.g`` / ``.net``.

A seed whose battery raises is reported like a divergence, under the
pseudo-oracle ``error`` with the traceback as its detail, unshrunk.  Exit status: 0 when no pair
disagreed on any seed, 1 otherwise, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import multiprocessing
import os
import traceback
from collections import Counter
from pathlib import Path
from typing import Dict, List, Sequence

from repro.cli import non_negative

from fuzzer.generator import generate_scenario
from fuzzer.oracles import OracleCaps, oracle_names, run_scenario
from fuzzer.shrink import shrink_scenario


def fuzz_seed(seed: int, oracles: Sequence[str] = ()) -> Dict:
    """One seed's record: generate, run the oracle pairs (default: all),
    shrink a divergent scenario.

    The record carries a hash of the spec text; each divergence carries
    the full failing text plus its shrunk form, the artifact to replay.
    ``unproductive`` marks a seed whose every generation attempt was
    rejected.
    """
    scenario = generate_scenario(seed)
    if scenario is None:
        return {"seed": seed, "unproductive": True}
    caps = OracleCaps()
    record = {
        "seed": seed,
        "kind": scenario.kind,
        "style": scenario.style,
        "sha256": hashlib.sha256(scenario.text.encode("utf-8")).hexdigest(),
        "attempts": scenario.rejections.attempts,
        "rejections": dict(sorted(scenario.rejections.by_reason.items())),
        "checks": {},
        "tallies": {},
        "divergences": [],
    }
    shrunk_text = ""
    try:
        report = run_scenario(scenario, oracles, caps)
    except Exception:  # a crash is a finding, not the end of the run
        found = [("error", traceback.format_exc())]
    else:
        record["checks"] = dict(sorted(report.checks.items()))
        record["tallies"] = dict(sorted(report.tallies.items()))
        found = [(d.oracle, d.detail) for d in report.divergences]
        if found:
            failing = sorted({oracle for oracle, _ in found})
            shrunk_text = shrink_scenario(
                scenario, _still_fails(failing, caps)
            ).text
    record["divergences"] = [
        {
            "seed": seed,
            "kind": scenario.kind,
            "style": scenario.style,
            "oracle": oracle,
            "detail": detail,
            "spec_text": scenario.text,
            "shrunk_text": shrunk_text,
        }
        for oracle, detail in found
    ]
    return record


def _still_fails(failing_oracles: Sequence[str], caps: OracleCaps):
    """Does a candidate still diverge on any of the originally failing
    oracle pairs?  Candidates that crash an oracle count as *not*
    failing: shrinking must converge on the original defect, not on
    whatever new ways a truncated spec finds to blow up."""

    def fails(candidate) -> bool:
        try:
            return not run_scenario(candidate, failing_oracles, caps).ok
        except Exception:
            return False

    return fails


def aggregate(records: Sequence[Dict]) -> Dict:
    """The run's roll-up of per-seed records, in seed order (the
    summary, ``fuzz_report.json`` and the exit status read it)."""
    by_kind: Counter = Counter()
    checks: Counter = Counter()
    tallies: Counter = Counter()
    rejections: Counter = Counter()
    divergences: List[Dict] = []
    n_unproductive = 0
    for record in sorted(records, key=lambda r: r["seed"]):
        if record.get("unproductive"):
            n_unproductive += 1
            continue
        by_kind[record["kind"]] += 1
        checks.update(record["checks"])
        tallies.update(record["tallies"])
        rejections.update(record["rejections"])
        divergences.extend(
            sorted(record["divergences"], key=lambda d: d["oracle"])
        )
    return {
        "n_scenarios": len(records) - n_unproductive,
        "n_divergent": len({d["seed"] for d in divergences}),
        "n_unproductive": n_unproductive,
        "by_kind": dict(sorted(by_kind.items())),
        "checks": dict(sorted(checks.items())),
        "tallies": dict(sorted(tallies.items())),
        "rejections": dict(sorted(rejections.items())),
        "divergences": divergences,
    }


def run_seeds(seeds: Sequence[int], oracles: Sequence[str] = (), workers=0):
    """:func:`fuzz_seed` over ``seeds``: in-process at ``workers=0``,
    else one seed per task on a pool of ``workers`` spawned processes
    (they import the driver afresh, from the caller's ``sys.path``)."""
    task = functools.partial(fuzz_seed, oracles=tuple(oracles))
    if workers == 0:
        return [task(seed) for seed in seeds]
    with multiprocessing.get_context("spawn").Pool(workers) as pool:
        return list(pool.imap_unordered(task, seeds))


def write_report(out_dir, seeds: range, oracles, summary: Dict) -> None:
    """``fuzz_report.json`` plus one shrunk spec file per divergent
    seed (the first oracle's, in name order): the nightly artifact."""
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    doc = {
        "seeds": [seeds.start, seeds.stop],
        "oracles": list(oracles or oracle_names()),
        "aggregate": summary,
    }
    (path / "fuzz_report.json").write_text(
        json.dumps(doc, indent=2) + "\n", encoding="utf-8"
    )
    seen = set()
    for d in summary["divergences"]:
        if d["seed"] in seen:
            continue
        seen.add(d["seed"])
        ext = "g" if d["kind"] == "stg" else "net"
        (path / f"divergent-seed{d['seed']}.{ext}").write_text(
            d["shrunk_text"] or d["spec_text"], encoding="utf-8"
        )


def _oracle_list(text: str):
    oracles = tuple(o.strip() for o in text.split(",") if o.strip())
    unknown = sorted(set(oracles) - set(oracle_names()))
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown oracle(s) {', '.join(unknown)} "
            f"(choose from {', '.join(oracle_names())})"
        )
    return oracles


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m fuzzer",
        description=(
            "Differential-oracle fuzzing: generate seeded STG/netlist "
            "scenarios, run each through paired implementations and "
            "shrink any divergence to a minimal failing spec."
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="first scenario seed (default: 0)"
    )
    parser.add_argument(
        "-n",
        type=int,
        default=200,
        help="number of consecutive seeds to fuzz (default: 200)",
    )
    parser.add_argument(
        "--workers",
        type=non_negative(int),
        default=os.cpu_count() or 1,
        help="worker processes (0 = in-process; default: CPU count)",
    )
    parser.add_argument(
        "--oracles",
        type=_oracle_list,
        default=(),
        help=(
            "comma list of oracle pairs to run "
            f"({', '.join(oracle_names())}); default: all"
        ),
    )
    parser.add_argument(
        "--out",
        default=None,
        help=(
            "directory for fuzz_report.json plus one shrunk .g/.net file "
            "per divergent seed"
        ),
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error(f"-n: must be >= 1, got {args.n}")
    seeds = range(args.seed, args.seed + args.n)
    summary = aggregate(run_seeds(seeds, args.oracles, args.workers))
    if args.out:
        write_report(args.out, seeds, args.oracles, summary)
    print(
        f"fuzzed {summary['n_scenarios']} scenarios "
        f"(seeds {seeds.start}..{seeds.stop}), "
        f"{summary['n_divergent']} divergent, "
        f"{summary['n_unproductive']} unproductive"
    )
    if summary["checks"]:
        checks = ", ".join(f"{k}={n}" for k, n in summary["checks"].items())
        print(f"checks: {checks}")
    if summary["tallies"]:
        tallies = ", ".join(f"{k}={n}" for k, n in summary["tallies"].items())
        print(f"tallies (not divergences): {tallies}")
    for d in summary["divergences"]:
        print(f"DIVERGENCE seed={d['seed']} oracle={d['oracle']}: {d['detail']}")
    # The CI gate is this exit status.
    return 0 if summary["n_divergent"] == 0 else 1
