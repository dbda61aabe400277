"""The fuzzer (``tests/fuzzer``): generator determinism, mutation
contracts, shrinking minimality, and the seed driver.

The oracle pairs themselves are exercised against real implementations
in ``test_fuzz_corpus.py`` (frozen shrunk corpus); here the focus is
the *machinery* — in particular the divergence path: a scenario that
fails an oracle must come back as a minimal, replayable shrunk spec.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.circuit.parser import netlist_to_text, parse_netlist
from repro.fuzz.mutate import MUTATION_OPS, mutate_netlist, shift_marking
from repro.stg.analysis import analyse_stg
from repro.stg.parser import parse_stg
from repro.stg.reachability import build_state_graph

from fuzzer import (
    GeneratorConfig,
    OracleCaps,
    generate_scenario,
    oracle_names,
    run_scenario,
    shrink_netlist_text,
    shrink_scenario,
    shrink_spec,
)
from fuzzer.driver import aggregate, fuzz_seed, main, run_seeds, write_report
from fuzzer.shrink import _netlist_candidates, _spec_moves

#: Pinned by scanning seeds: STG_SEED yields a plain STG scenario;
#: CHOICE_SEED yields one decorated with a choice block *and* a
#: parallel fork (so shrinking has decorations to strip).
STG_SEED = 4
CHOICE_SEED = 6


# -- generator ----------------------------------------------------------


def test_same_seed_byte_identical_scenarios():
    for seed in (0, 3, 4, 7, 9):
        a, b = generate_scenario(seed), generate_scenario(seed)
        assert a is not None and b is not None
        assert a.text == b.text and a.kind == b.kind and a.style == b.style


def test_generated_stgs_are_healthy_by_the_analysis_gate():
    seen_stg = False
    for seed in range(6):
        scenario = generate_scenario(seed)
        if scenario is None or scenario.kind != "stg":
            continue
        seen_stg = True
        stg = parse_stg(scenario.text)
        report = analyse_stg(stg, build_state_graph(stg))
        assert report.healthy, f"seed {seed}: {report}"
    assert seen_stg


def test_generated_netlists_parse_with_stable_reset():
    cfg = GeneratorConfig(netlist_fraction=1.0)
    seen = 0
    for seed in range(12):
        scenario = generate_scenario(seed, cfg)
        if scenario is None:
            continue
        assert scenario.kind == "netlist"
        circuit = scenario.circuit()
        assert circuit.reset_state in circuit.enumerate_stable_states()
        seen += 1
    assert seen >= 6


def test_rejection_stats_are_recorded():
    scenario = generate_scenario(STG_SEED)
    assert scenario.rejections.attempts >= 1
    assert scenario.rejections.accepted == 1


# -- mutations ----------------------------------------------------------


def test_mutations_deterministic_and_parse():
    base = netlist_to_text(generate_scenario(STG_SEED).circuit())
    for op in MUTATION_OPS:
        m1 = mutate_netlist(base, op, random.Random(7))
        m2 = mutate_netlist(base, op, random.Random(7))
        assert (m1 is None) == (m2 is None)
        if m1 is None:
            continue
        assert m1.text == m2.text and m1.target == m2.target
        assert m1.text != base
        parse_netlist(m1.text)  # mutated text must stay well-formed


def test_preserving_mutations_keep_the_exact_cssg():
    from repro.sgraph.cssg import build_cssg

    base = netlist_to_text(generate_scenario(STG_SEED).circuit())
    ref = build_cssg(parse_netlist(base), method="exact")
    for op in ("rename", "rewrite"):
        m = mutate_netlist(base, op, random.Random(3))
        assert m is not None and m.preserving
        got = build_cssg(parse_netlist(m.text), method="exact")
        assert got.reset == ref.reset
        assert got.states == ref.states
        assert got.edges == ref.edges


def test_shift_marking_reaches_a_successor_marking():
    scenario = generate_scenario(STG_SEED)
    shifted = shift_marking(scenario.text, random.Random(0))
    assert shifted is not None and shifted != scenario.text
    base, moved = parse_stg(scenario.text), parse_stg(shifted)
    successors = {
        base.fire(base.initial_marking, t)
        for t in base.enabled(base.initial_marking)
    }
    assert moved.initial_marking in successors


def test_unknown_mutation_op_rejected():
    with pytest.raises(ValueError, match="unknown mutation op"):
        mutate_netlist(".model m\n.end\n", "nope", random.Random(0))


# -- shrinking (the divergence-path acceptance criterion) ---------------


def test_spec_shrink_reaches_one_minimal_choice():
    """Synthetic failure 'has a choice block': the shrinker must strip
    every other decoration and shorten the ring/choice to the floor,
    ending 1-minimal — no remaining move keeps a choice alive."""
    scenario = generate_scenario(CHOICE_SEED)
    assert scenario.spec is not None and scenario.spec.choices

    def fails(spec):
        return len(spec.choices) >= 1

    best = shrink_spec(scenario.spec, fails)
    assert len(best.choices) == 1
    # ring shortening is gated on an undecorated spec (dropping a ring
    # signal under a live choice could orphan its position), so the
    # ring survives while the choice must stay.
    assert best.ring == scenario.spec.ring
    assert not best.pars and not best.mirrors
    choice = best.choices[0]
    assert len(choice.inputs) == 2  # minimum branch count
    assert all(chain == () for chain in choice.responses)
    assert best.style == "complex"
    for candidate in _spec_moves(best):
        assert not fails(candidate)  # 1-minimal


def test_netlist_shrink_is_one_minimal():
    cfg = GeneratorConfig(netlist_fraction=1.0)
    scenario = next(
        s for s in (generate_scenario(i, cfg) for i in range(12)) if s is not None
    )

    def fails(text):
        return len(parse_netlist(text).gates) >= 2

    best = shrink_netlist_text(scenario.text, fails)
    assert fails(best)
    for candidate in _netlist_candidates(best):
        if candidate != best:
            assert not fails(candidate)


def test_shrunk_scenario_is_replayable_same_seed():
    scenario = generate_scenario(CHOICE_SEED)

    def fails(s):
        return s.spec is not None and len(s.spec.choices) >= 1

    small = shrink_scenario(scenario, fails)
    assert small.seed == scenario.seed and small.kind == scenario.kind
    assert len(small.text) < len(scenario.text)
    # replayable: the shrunk text alone reproduces a healthy, failing STG
    stg = parse_stg(small.text)
    assert analyse_stg(stg, build_state_graph(stg)).healthy
    assert fails(small)


# -- the seed driver ----------------------------------------------------


def test_expand_fuzz_validates_inputs(capsys):
    """An empty seed range, an unknown oracle pair and a negative worker
    count are usage errors (exit 2), before any seed runs."""
    for argv, message in (
        (["-n", "0"], "-n: must be >= 1, got 0"),
        (["--oracles", "settle,bogus"], "unknown oracle(s) bogus"),
        (["--workers", "-1"], "--workers: must be >= 0, got -1"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert message in capsys.readouterr().err


def test_execute_fuzz_job_deterministic_payload():
    """Per-seed records are a pure function of the seed: two in-process
    runs and a two-worker pool run aggregate to the same report."""
    seeds = range(2, 6)
    first = run_seeds(seeds, ("settle",), workers=0)
    assert [r["seed"] for r in first] == list(seeds)
    assert run_seeds(seeds, ("settle",), workers=0) == first
    summary = aggregate(first)
    assert aggregate(run_seeds(seeds, ("settle",), workers=2)) == summary
    assert summary["n_scenarios"] + summary["n_unproductive"] == 4
    assert summary["n_divergent"] == 0
    assert set(summary["checks"]) == {"settle"}


def test_divergence_is_shrunk_and_replayable(monkeypatch, tmp_path):
    """Inject a failing oracle pair and check the whole divergence
    path: the seed's record carries the failing spec plus a shrunk
    form that is smaller, still failing, and replayable standalone."""
    import fuzzer.oracles as oracles_mod

    def picky_settle(ctx):
        # "Diverges" whenever the scenario still contains a choice
        # place — shrinking must strip everything else.
        has_choice = ctx.scenario.kind == "stg" and " pc0" in ctx.scenario.text
        return 1, (["choice-disagreement"] if has_choice else [])

    monkeypatch.setitem(oracles_mod.ORACLES, "settle", picky_settle)
    record = fuzz_seed(CHOICE_SEED, ("settle",))
    assert len(record["divergences"]) == 1
    d = record["divergences"][0]
    assert d["oracle"] == "settle" and d["detail"] == "choice-disagreement"
    assert d["shrunk_text"] and len(d["shrunk_text"]) < len(d["spec_text"])
    # replayable: parse + health + still failing, from the text alone
    stg = parse_stg(d["shrunk_text"])
    assert analyse_stg(stg, build_state_graph(stg)).healthy
    assert " pc0" in d["shrunk_text"]
    summary = aggregate([record])
    assert summary["n_divergent"] == 1 and summary["divergences"] == [d]
    write_report(tmp_path, range(CHOICE_SEED, CHOICE_SEED + 1), (), summary)
    artifact = tmp_path / f"divergent-seed{CHOICE_SEED}.g"
    assert artifact.read_text() == d["shrunk_text"]


def test_crashing_oracle_is_reported_as_a_divergence(monkeypatch, capsys):
    """A battery that raises is a finding under the pseudo-oracle
    ``error``: the run goes on to the next seed and exits 1."""
    import fuzzer.oracles as oracles_mod

    def crash(ctx):
        raise RuntimeError("boom")

    monkeypatch.setitem(oracles_mod.ORACLES, "settle", crash)
    assert main(["--seed", str(STG_SEED), "-n", "2", "--workers", "0",
                 "--oracles", "settle"]) == 1
    out = capsys.readouterr().out
    assert f"DIVERGENCE seed={STG_SEED} oracle=error: Traceback" in out
    assert "RuntimeError: boom" in out
    assert "fuzzed 2 scenarios" in out and "2 divergent" in out


def test_fuzz_cli_smoke_and_exit_codes(tmp_path, capsys):
    rc = main(
        [
            "--seed", "0", "-n", "4", "--workers", "0",
            "--oracles", "settle", "--out", str(tmp_path / "out"),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 divergent" in out and "checks: settle=" in out
    report = json.loads((tmp_path / "out" / "fuzz_report.json").read_text())
    assert report["seeds"] == [0, 4] and report["oracles"] == ["settle"]
    assert report["aggregate"]["n_divergent"] == 0
    assert report["aggregate"]["n_scenarios"] >= 3

    with pytest.raises(SystemExit) as exc:
        main(["--oracles", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["-n", "0"])  # empty seed range
    assert exc.value.code == 2


def _run_module(argv):
    """``python -m fuzzer`` in a fresh interpreter, with ``src`` and
    ``tests`` on the path as CI runs it."""
    repo_src = Path(repro.__file__).resolve().parent.parent
    tests_dir = Path(__file__).resolve().parent
    return subprocess.run(
        [sys.executable, "-m", "fuzzer", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=f"{repo_src}{os.pathsep}{tests_dir}"),
    )


def test_module_entry_runs_and_rejects_bad_options():
    proc = _run_module(["--seed", str(STG_SEED), "-n", "1", "--workers", "0",
                        "--oracles", "settle"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("fuzzed 1 scenarios")
    for argv, message in (
        (["-n", "2", "--workers", "-1"], "--workers: must be >= 0, got -1"),
        (["--oracles", "bogus"], "unknown oracle(s) bogus"),
    ):
        proc = _run_module(argv)
        assert proc.returncode == 2, argv
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr


def test_run_scenario_rejects_unknown_oracle():
    scenario = generate_scenario(STG_SEED)
    with pytest.raises(ValueError, match="unknown oracles"):
        run_scenario(scenario, ("nope",), OracleCaps())
    assert oracle_names() == (
        "settle", "cssg", "faults", "kernels", "incremental", "undetectable",
        "reduced_settle", "certified",
    )
