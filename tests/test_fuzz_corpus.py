"""Frozen fuzz regression corpus: minimized specs replayed through
every differential-oracle pair on each run.

The corpus in ``tests/data/fuzz/`` was produced by shrinking generated
scenarios against feature-preserving predicates (keep the choice, keep
the mirror, keep the XOR, ...), so each file is close to the smallest
healthy spec exhibiting its feature.  Any implementation drift that
makes two paired implementations disagree — engine vs legacy settle,
explicit vs symbolic CSSG, overlay vs materialized faults, arena walk
vs worklist fault sim, plain vs incremental re-ATPG — fails the replay
here, inside tier-1, without needing a fuzzing run.
"""

import hashlib
import json
from pathlib import Path

import pytest

from fuzzer import OracleCaps, Scenario, oracle_names, run_scenario

CORPUS_DIR = Path(__file__).resolve().parent / "data" / "fuzz"
MANIFEST = json.loads((CORPUS_DIR / "manifest.json").read_text())
ENTRIES = MANIFEST["entries"]


def _scenario(entry) -> Scenario:
    text = (CORPUS_DIR / entry["file"]).read_text()
    return Scenario(entry["seed"], entry["kind"], text, style=entry["style"])


def test_manifest_matches_files_exactly():
    on_disk = {p.name for p in CORPUS_DIR.iterdir() if p.name != "manifest.json"}
    assert on_disk == {e["file"] for e in ENTRIES}
    for entry in ENTRIES:
        text = (CORPUS_DIR / entry["file"]).read_text()
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == entry["sha256"], (
            f"{entry['file']} drifted from the frozen corpus — regenerate "
            "the manifest only for a deliberate corpus refresh"
        )


def test_corpus_covers_both_kinds_and_both_styles():
    kinds = {e["kind"] for e in ENTRIES}
    styles = {e["style"] for e in ENTRIES}
    assert kinds == {"stg", "netlist"}
    assert styles == {"complex", "two-level"}
    assert len(ENTRIES) >= 20


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[e["feature"] for e in ENTRIES]
)
def test_corpus_replays_clean_through_all_oracle_pairs(entry):
    report = run_scenario(_scenario(entry), oracle_names(), OracleCaps())
    assert report.ok, [d.to_json_dict() for d in report.divergences]
    # the battery really ran — at least the settle pair always applies
    assert report.checks["settle"] > 0
