"""The fuzzing subsystem: generator determinism, mutation contracts,
shrinking minimality, campaign packaging, and the ``repro-fuzz`` CLI.

The oracle pairs themselves are exercised against real implementations
in ``test_fuzz_corpus.py`` (frozen shrunk corpus); here the focus is
the *machinery* — in particular the divergence path: a scenario that
fails an oracle must come back as a minimal, replayable shrunk spec.
"""

import json
import random

import pytest

from repro.circuit.parser import netlist_to_text, parse_netlist
from repro.errors import ReproError
from repro.fuzz import (
    FuzzSpec,
    GeneratorConfig,
    MUTATION_OPS,
    OracleCaps,
    aggregate_reports,
    execute_fuzz_job,
    expand_fuzz,
    generate_scenario,
    mutate_netlist,
    oracle_names,
    run_scenario,
    shift_marking,
    shrink_netlist_text,
    shrink_scenario,
    shrink_spec,
)
from repro.fuzz.shrink import _netlist_candidates, _spec_moves
from repro.stg.analysis import analyse_stg
from repro.stg.parser import parse_stg
from repro.stg.reachability import build_state_graph

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


# -- campaign packaging -------------------------------------------------


def test_expand_fuzz_chunks_and_keys():
    spec = FuzzSpec(start=0, stop=50, chunk=20, oracles=("settle",))
    jobs = expand_fuzz(spec)
    assert [j.name for j in jobs] == ["fuzz/0..20", "fuzz/20..40", "fuzz/40..50"]
    assert len({j.key for j in jobs}) == 3
    # same spec -> same keys; different generator config -> all new keys
    assert [j.key for j in expand_fuzz(spec)] == [j.key for j in jobs]
    other = FuzzSpec(
        start=0, stop=50, chunk=20, oracles=("settle",),
        config=GeneratorConfig(max_signals=3),
    )
    assert not {j.key for j in expand_fuzz(other)} & {j.key for j in jobs}


def test_expand_fuzz_validates_inputs():
    with pytest.raises(ReproError, match="empty fuzz seed range"):
        expand_fuzz(FuzzSpec(start=5, stop=5))
    with pytest.raises(ReproError, match="chunk"):
        expand_fuzz(FuzzSpec(chunk=0))
    with pytest.raises(ReproError, match="unknown oracles"):
        expand_fuzz(FuzzSpec(oracles=("bogus",)))


def test_execute_fuzz_job_deterministic_payload():
    spec = FuzzSpec(start=2, stop=6, chunk=4, oracles=("settle",))
    job = expand_fuzz(spec)[0]
    a = execute_fuzz_job(job).to_json_dict()
    b = execute_fuzz_job(job).to_json_dict()
    a.pop("cpu_seconds"), b.pop("cpu_seconds")
    assert a == b
    assert a["n_scenarios"] + a["n_unproductive"] == 4
    assert a["n_divergent"] == 0


def test_divergence_is_shrunk_and_replayable(monkeypatch):
    """Inject a failing oracle pair and check the whole divergence
    path: the chunk payload carries the failing spec plus a shrunk
    form that is smaller, still failing, and replayable standalone."""
    import repro.fuzz.oracles as oracles_mod

    def picky_settle(ctx):
        # "Diverges" whenever the scenario still contains a choice
        # place — shrinking must strip everything else.
        has_choice = ctx.scenario.kind == "stg" and " pc0" in ctx.scenario.text
        return 1, (["choice-disagreement"] if has_choice else [])

    monkeypatch.setitem(oracles_mod.ORACLES, "settle", picky_settle)
    spec = FuzzSpec(
        start=CHOICE_SEED, stop=CHOICE_SEED + 1, chunk=1, oracles=("settle",)
    )
    result = execute_fuzz_job(expand_fuzz(spec)[0])
    assert len(result.divergences) == 1
    d = result.divergences[0]
    assert d["oracle"] == "settle" and d["detail"] == "choice-disagreement"
    assert d["shrunk_text"] and len(d["shrunk_text"]) < len(d["spec_text"])
    # replayable: parse + health + still failing, from the text alone
    stg = parse_stg(d["shrunk_text"])
    assert analyse_stg(stg, build_state_graph(stg)).healthy
    assert " pc0" in d["shrunk_text"]
    payload = result.to_json_dict()
    assert payload["n_divergent"] == 1
    agg = aggregate_reports([payload])
    assert agg["n_divergent"] == 1 and len(agg["divergences"]) == 1


def test_aggregate_reports_rejects_foreign_payloads():
    with pytest.raises(ReproError, match="non-fuzz"):
        aggregate_reports([{"kind": "atpg"}])


def test_fuzz_jobs_cache_warm_reruns(tmp_path):
    from repro.campaign import ResultStore, run_campaign

    jobs = expand_fuzz(
        FuzzSpec(start=0, stop=4, chunk=2, oracles=("settle",))
    )
    store = ResultStore(tmp_path)
    cold = run_campaign(jobs, workers=0, store=store)
    assert cold.all_ok and cold.n_ran == 2
    warm = run_campaign(jobs, workers=0, store=store)
    assert warm.all_ok and warm.n_cached == 2

    def digest(report):
        docs = []
        for o in report.outcomes:
            doc = dict(o.payload)
            doc.pop("cpu_seconds")
            docs.append(doc)
        return json.dumps(docs, sort_keys=True)

    assert digest(warm) == digest(cold)


# -- CLI ----------------------------------------------------------------


def test_fuzz_cli_smoke_and_exit_codes(tmp_path, capsys):
    from repro.cli import fuzz_main

    rc = fuzz_main(
        [
            "--seed", "0", "-n", "4", "--chunk", "2", "--workers", "0",
            "--oracles", "settle", "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "out"), "--quiet", "--json",
        ]
    )
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["n_divergent"] == 0 and out["n_scenarios"] >= 3
    report = json.loads((tmp_path / "out" / "fuzz_report.json").read_text())
    assert report["aggregate"]["n_scenarios"] == out["n_scenarios"]

    assert fuzz_main(["--oracles", "bogus"]) == 2
    assert fuzz_main(["-n", "0"]) == 2  # empty seed range


def test_run_scenario_rejects_unknown_oracle():
    scenario = generate_scenario(STG_SEED)
    with pytest.raises(ValueError, match="unknown oracles"):
        run_scenario(scenario, ("nope",), OracleCaps())
    assert oracle_names() == (
        "settle", "cssg", "faults", "kernels", "incremental", "undetectable",
        "reduced_settle",
    )
