"""Incremental re-ATPG: cohort keying, invalidation, merge identity.

The heart of the suite is golden-digest identity (like
``test_faultmodels_diff.py``): on every Table-1 benchmark and both
stuck-at models, a cold incremental run and a warm pure-merge rerun
must produce payloads byte-identical (modulo ``cpu_seconds`` /
``schema_version``) to the recorded from-scratch behaviour.  Around
that, targeted invalidation tests pin the cohort-key contract: a
renamed signal or widened cone invalidates exactly the cohorts whose
cones see it, an option or fault-model change invalidates everything,
and an out-of-cone edit leaves keys untouched.
"""

import hashlib
import json
import time
from pathlib import Path

import pytest

from repro.benchmarks_data import TABLE1_NAMES
from repro.campaign.cohort import (
    COHORT_SCHEMA_VERSION,
    cohort_salt,
    cssg_fingerprint,
    partition,
    validate_partial,
)
from repro.campaign.plan import CampaignSpec, expand
from repro.campaign.runner import execute_job_incremental, load_job_circuit
from repro.campaign.store import ResultStore
from repro.circuit.faults import fault_universe
from repro.circuit.parser import parse_netlist
from repro.core.atpg import AtpgOptions

GOLDEN_PATH = (
    Path(__file__).resolve().parent / "data" / "golden_stuckat_digests.json"
)

#: Two independent buffer chains: a -> u -> v and b -> w -> x.  Faults
#: in one chain have cones disjoint from the other, so chain-local
#: edits must leave the other chain's cohort keys untouched.
PAIR_NET = """
.model pair
.inputs a b
.gate u BUF a
.gate v BUF u
.gate w BUF b
.gate x BUF w
.outputs v x
.reset a=0 b=0 u=0 v=0 w=0 x=0
.k 8
"""


def payload_digest(payload) -> str:
    doc = {
        k: v
        for k, v in payload.items()
        if k not in ("cpu_seconds", "schema_version")
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def keys_by_site(net_text, options=None):
    """Map ``frozenset(signal names of the cone)`` -> cohort key, which
    is stable across renames/index shifts for *unchanged* cones."""
    circuit = parse_netlist(net_text)
    options = options or AtpgOptions()
    salt = cohort_salt(circuit, "complex", options)
    universe = fault_universe(circuit, options.fault_model)
    out = {}
    for cohort in partition(circuit, universe, salt):
        names = frozenset(circuit.signal_name(i) for i in cohort.cone)
        out[names] = cohort.key
    return out


# -- invalidation contract ---------------------------------------------


def test_rename_signal_invalidates_only_cones_that_see_it():
    renamed = (
        PAIR_NET.replace("w BUF b", "ww BUF b")
        .replace("x BUF w", "x BUF ww")
        .replace("w=0", "ww=0")
    )
    base, edit = keys_by_site(PAIR_NET), keys_by_site(renamed)
    # a-chain cones never contain w: identical keys survive the rename.
    survivors = {c for c in base if base[c] == edit.get(c)}
    assert survivors == {c for c in base if "w" not in c}
    assert survivors  # the a-chain really is unaffected
    # every cone that saw w got a new key (under its renamed cone set)
    assert all("w" not in c for c in edit if edit[c] in base.values())


def test_added_fanout_widens_cone_and_invalidates():
    widened = PAIR_NET.replace(
        ".outputs v x", ".gate y BUF u\n.outputs v x y"
    ).replace(".reset a=0", ".reset y=0 a=0")
    base, edit = keys_by_site(PAIR_NET), keys_by_site(widened)
    # cones containing u now also contain the new reader y -> new keys
    for cone, key in base.items():
        if "u" in cone:
            assert cone not in edit  # the cone set itself grew
            assert key not in edit.values()
    # the b-chain is untouched: same cones, same keys (the .outputs
    # interface change lands in the salt, so check cone sets only)
    for cone in base:
        if "u" not in cone:
            assert cone in edit


def test_out_of_cone_edit_keeps_cohort_keys():
    # upstream-only edit: swap the b-chain's head gate type; the
    # a-chain's cones and gate rows are untouched.
    edited = PAIR_NET.replace("w BUF b", "w NOT b").replace("b=0 u=0 v=0 w=0", "b=0 u=0 v=0 w=1")
    base, edit = keys_by_site(PAIR_NET), keys_by_site(edited)
    for cone, key in base.items():
        if "w" not in cone:
            assert edit[cone] == key
        else:
            assert edit[cone] != key


def test_option_change_invalidates_globally():
    base = keys_by_site(PAIR_NET)
    tweaked = keys_by_site(PAIR_NET, AtpgOptions(random_walks=7))
    assert set(base) == set(tweaked)  # same cones...
    assert all(base[c] != tweaked[c] for c in base)  # ...all new keys


def test_fault_model_change_invalidates_globally():
    base = keys_by_site(PAIR_NET, AtpgOptions(fault_model="input"))
    other = keys_by_site(PAIR_NET, AtpgOptions(fault_model="output"))
    assert not set(base.values()) & set(other.values())


def test_cssg_fingerprint_rename_invariant_logic_sensitive():
    circuit = parse_netlist(PAIR_NET)
    renamed = parse_netlist(
        PAIR_NET.replace("w BUF b", "ww BUF b")
        .replace("x BUF w", "x BUF ww")
        .replace("w=0", "ww=0")
    )
    relogic = parse_netlist(
        PAIR_NET.replace("w BUF b", "w NOT b").replace(
            "b=0 u=0 v=0 w=0", "b=0 u=0 v=0 w=1"
        )
    )
    fp = lambda c: cssg_fingerprint(c, None, None, "exact")
    assert fp(renamed) == fp(circuit)
    assert fp(relogic) != fp(circuit)


def test_validate_partial_rejects_wrong_faults_and_schema():
    circuit = parse_netlist(PAIR_NET)
    options = AtpgOptions()
    salt = cohort_salt(circuit, "complex", options)
    cohorts = partition(
        circuit, fault_universe(circuit, options.fault_model), salt
    )
    a, b = cohorts[0], cohorts[1]
    doc = {
        "version": COHORT_SCHEMA_VERSION,
        "faults": [
            [f.kind, circuit.signal_name(f.gate), circuit.signal_name(f.site), f.value]
            for f in a.faults
        ],
        "statuses": [{} for _ in a.faults],
        "tests": [],
    }
    assert validate_partial(circuit, a, doc)
    assert not validate_partial(circuit, b, doc)  # wrong fault list
    assert not validate_partial(
        circuit, a, {**doc, "version": COHORT_SCHEMA_VERSION + 1}
    )
    assert not validate_partial(circuit, a, None)


def test_cohort_plan_partitions_the_universe_exactly():
    """A job's cohorts, partitioned as ``execute_job_incremental`` does,
    hold each fault of its universe once, under distinct keys."""
    job = expand(CampaignSpec(benchmarks=["dff"], fault_models=("input",)))[0]
    circuit = load_job_circuit(job)
    universe = fault_universe(circuit, "input")
    cohorts = partition(
        circuit, universe, cohort_salt(circuit, job.style, job.options)
    )
    seen = [f for c in cohorts for f in c.faults]
    assert sorted(map(repr, seen)) == sorted(map(repr, universe))
    assert len(seen) == len(universe)
    assert len({c.key for c in cohorts}) == len(cohorts)


# -- execution paths ---------------------------------------------------


def test_single_gate_edit_reruns_only_affected_cohorts(tmp_path):
    net = tmp_path / "pair.net"
    net.write_text(PAIR_NET)
    store = ResultStore(tmp_path / "cache")
    spec = lambda: CampaignSpec(
        benchmarks=[str(net)], fault_models=("input",)
    )
    job = expand(spec())[0]
    _payload, _live, cold = execute_job_incremental(job, store)
    assert cold.cohorts_executed == cold.cohorts_total > 1

    # b-chain logic edit: only cones containing w or x go stale
    net.write_text(
        PAIR_NET.replace("x BUF w", "x NOT w").replace("x=0", "x=1")
    )
    edited = expand(spec())[0]
    assert edited.key != job.key
    payload, _live, warm = execute_job_incremental(edited, store)
    assert warm.cohorts_total == cold.cohorts_total
    assert 0 < warm.cohorts_reused < warm.cohorts_total
    assert warm.cohorts_executed == warm.cohorts_total - warm.cohorts_reused
    assert payload["n_covered"] == payload["n_total"]

    # rerun on the edited circuit: pure merge, identical payload
    again, live, merge = execute_job_incremental(edited, store)
    assert live is None and merge.cohorts_executed == 0
    assert payload_digest(again) == payload_digest(payload)


def test_deadline_bounded_jobs_bypass_the_incremental_layer(tmp_path):
    store = ResultStore(tmp_path)
    job = expand(
        CampaignSpec(
            benchmarks=["dff"],
            fault_models=("input",),
            options=AtpgOptions(deadline_seconds=60.0),
        )
    )[0]
    payload, live, stats = execute_job_incremental(job, store)
    assert stats is None and live is not None
    assert payload["n_total"] > 0
    assert not store.class_entries("cohorts")  # nothing was cached


def test_refresh_reexecutes_but_repopulates(tmp_path):
    store = ResultStore(tmp_path)
    job = expand(CampaignSpec(benchmarks=["dff"], fault_models=("input",)))[0]
    execute_job_incremental(job, store)
    payload, live, stats = execute_job_incremental(job, store, refresh=True)
    assert stats.cohorts_reused == 0 and live is not None
    merged, live2, stats2 = execute_job_incremental(job, store)
    assert live2 is None and stats2.cohorts_reused == stats2.cohorts_total
    assert payload_digest(merged) == payload_digest(payload)


# -- golden identity on the paper's full benchmark set -----------------


@pytest.mark.parametrize("name", TABLE1_NAMES)
def test_incremental_matches_golden_digests(name, tmp_path):
    """Cold incremental run and warm cohort merge are both
    payload-identical to the recorded from-scratch behaviour."""
    golden = json.loads(GOLDEN_PATH.read_text())
    store = ResultStore(tmp_path)
    cssg_memo = {}
    for model in ("output", "input"):
        job = expand(
            CampaignSpec(benchmarks=[name], fault_models=(model,))
        )[0]
        cold, _live, stats = execute_job_incremental(job, store, cssg_memo)
        assert stats.cohorts_executed == stats.cohorts_total
        assert payload_digest(cold) == golden[f"{name}/{model}"], (
            f"{name}/{model}: cold incremental payload drifted from the "
            "from-scratch golden"
        )
        warm, live, merge = execute_job_incremental(job, store, cssg_memo)
        assert live is None and merge.cohorts_reused == merge.cohorts_total
        assert payload_digest(warm) == golden[f"{name}/{model}"], (
            f"{name}/{model}: merged cohort partials drifted from the "
            "from-scratch golden"
        )


# -- empty fault universes ---------------------------------------------


def _empty_bridging_jobs():
    """Every corpus job (Table 1 complex, Table 2 two-level) whose
    bridging universe is empty — no cohorts, so nothing to merge."""
    from repro.benchmarks_data import TABLE2_NAMES, load_benchmark

    corpus = [(n, "complex") for n in TABLE1_NAMES]
    corpus += [(n, "two-level") for n in TABLE2_NAMES]
    return [
        expand(
            CampaignSpec(
                benchmarks=[name], styles=(style,), fault_models=("bridging",)
            )
        )[0]
        for name, style in corpus
        if not fault_universe(load_benchmark(name, style=style), "bridging")
    ]


def test_empty_universe_runs_the_flow_and_matches_the_plain_payload(tmp_path):
    from repro.campaign.runner import execute_job

    jobs = _empty_bridging_jobs()
    assert {"hazard", "alloc-outbound"} <= {job.source for job in jobs}
    store = ResultStore(tmp_path)
    for job in jobs:
        plain = payload_digest(execute_job(job).to_json_dict())
        for run in ("cold", "warm"):
            payload, live, stats = execute_job_incremental(job, store)
            assert stats.cohorts_total == 0 and live is not None, job.name
            assert payload_digest(payload) == plain, f"{job.name} ({run})"


def test_a_net_group_loads_its_circuit_once_through_the_memo(
    tmp_path, monkeypatch
):
    """The four model jobs of one ``.net`` group, sharing a memo, parse
    the netlist once, plain and incremental, and their payloads equal
    those of loading it per job."""
    from repro.benchmarks_data import load_benchmark
    from repro.campaign import runner
    from repro.circuit.parser import netlist_to_text
    from repro.faultmodels import model_names

    path = tmp_path / "ebergen.net"
    path.write_text(netlist_to_text(load_benchmark("ebergen", "complex")))
    jobs = expand(CampaignSpec(benchmarks=[str(path)], fault_models=model_names()))
    assert len(jobs) == 4 and len({job.group for job in jobs}) == 1
    loads = []
    real_load = runner.load_job_circuit

    def counting_load(job):
        loads.append(job.name)
        return real_load(job)

    monkeypatch.setattr(runner, "load_job_circuit", counting_load)

    def run(incremental, shared):
        store = None
        if incremental:
            store = ResultStore(tmp_path / f"{incremental}-{shared}")
        memo, digests = {}, []
        loads.clear()
        for job in jobs:
            if not shared:
                memo = {}
            payload, _live, _stats = execute_job_incremental(job, store, memo)
            digests.append(payload_digest(payload))
        return digests, len(loads)

    for incremental in (False, True):
        per_job, n_per_job = run(incremental, shared=False)
        shared, n_shared = run(incremental, shared=True)
        assert (n_per_job, n_shared) == (4, 1), incremental
        assert shared == per_job, incremental


# -- incremental campaigns ---------------------------------------------

#: The CI campaign-smoke corpus, crossed with every fault model.
SMOKE_SPEC = CampaignSpec(
    benchmarks=["dff", "chu150", "hazard", "ebergen"],
    fault_models=("output", "input", "bridging", "transition"),
)


@pytest.fixture()
def armed_registry():
    """A fresh, armed ambient metrics registry; restored afterwards."""
    from repro.obs import metrics as obs_metrics

    was_enabled = obs_metrics.enabled()
    previous = obs_metrics.set_registry(obs_metrics.MetricsRegistry())
    try:
        yield obs_metrics
    finally:
        obs_metrics.set_registry(previous)
        if not was_enabled:
            obs_metrics.disable()


def _cohort_totals(obs_metrics):
    reg = obs_metrics.get_registry()
    return {
        outcome: reg.value("repro_incremental_cohorts_total", outcome)
        for outcome in ("planned", "reused", "executed")
    }


def test_incremental_campaign_matches_plain_at_both_worker_counts(
    tmp_path, armed_registry
):
    """In-process and forked incremental campaigns both reproduce the
    plain payloads, count cohorts once per job, and a warm rerun (whole
    results dropped, cohorts kept) reuses every cohort."""
    import shutil

    from repro.campaign import run_campaign

    jobs = expand(SMOKE_SPEC)
    plain = run_campaign(jobs, workers=0, store=None).by_key
    totals = {}
    for workers in (0, 2):
        store = ResultStore(tmp_path / f"w{workers}")
        for run in ("cold", "warm"):
            armed_registry.enable(armed_registry.MetricsRegistry())
            report = run_campaign(
                jobs, workers=workers, store=store, incremental=True,
                collect_telemetry=True,
            )
            assert report.all_ok and report.n_ran == len(jobs), (workers, run)
            for outcome in report.outcomes:
                assert payload_digest(outcome.payload) == payload_digest(
                    plain[outcome.job.key].payload
                ), (workers, run, outcome.job.name)
            totals[workers, run] = _cohort_totals(armed_registry)
            shutil.rmtree(store.root / "results")
        warm = totals[workers, "warm"]
        assert warm["reused"] == warm["planned"] > 0 and warm["executed"] == 0
    assert totals[0, "cold"] == totals[2, "cold"]
    assert totals[0, "warm"] == totals[2, "warm"]
    assert totals[0, "cold"]["executed"] == totals[0, "cold"]["planned"]


def test_in_process_incremental_campaign_records_cohort_lookups(tmp_path):
    """``workers=0`` opens its incremental store like a worker does, so
    the cohort lookup ledger does not depend on the worker count: a
    cold campaign on a fresh store logs one miss per cohort."""
    from repro.campaign import run_campaign

    jobs = expand(CampaignSpec(benchmarks=["dff", "hazard"]))
    report = run_campaign(
        jobs, workers=0, store=ResultStore(tmp_path), incremental=True
    )
    n_cohorts = sum(o.incremental["cohorts_total"] for o in report.outcomes)
    lookups = ResultStore(tmp_path).stats()["classes"]["cohorts"]["lookups"]
    assert n_cohorts > 0
    assert (lookups["hits"], lookups["misses"]) == (0, n_cohorts)


# -- store satellites --------------------------------------------------


def test_stats_log_rotation_preserves_counts(tmp_path, monkeypatch):
    import repro.campaign.store as store_mod

    monkeypatch.setattr(store_mod, "STATS_LOG_MAX_BYTES", 2048)
    store = ResultStore(tmp_path, track_stats=True)
    store.put("a" * 64, {"x": 1})
    for i in range(200):
        store.get("a" * 64)
        store.get("b" * 64)
        store.get_cohort("c" * 64)
    log = tmp_path / "stats.log"
    assert log.stat().st_size < 4 * 2048  # capped, not unbounded
    stats = store.stats()
    assert stats["lookups"]["hits"] == 200
    assert stats["lookups"]["misses"] == 200
    assert stats["classes"]["cohorts"]["lookups"]["misses"] == 200
    assert stats["lookups"]["hit_rate"] == 0.5


def test_prune_plan_reports_reclaimable_bytes_per_class(tmp_path):
    store = ResultStore(tmp_path)
    store.put("a" * 64, {"kind": "result"})
    store.put("b" * 64, {"kind": "result"})
    store.put_cohort("e" * 64, {"cohorts": {"c" * 64: {"kind": "partial"}}})
    store.put_cssg("d" * 64, {"kind": "graph"})
    plan = store.prune_plan(max_age_seconds=0.0, now=time.time() + 60)
    assert plan["results"]["n_entries"] == 2
    assert plan["cohorts"]["n_entries"] == 1
    assert plan["cssg"]["n_entries"] == 1
    assert plan["total"]["n_entries"] == 4
    assert plan["total"]["bytes"] == sum(
        plan[c]["bytes"] for c in ("results", "cohorts", "cssg")
    )
    # dry: nothing was deleted
    assert len(store.class_entries("results")) == 2
    empty = store.prune_plan(max_age_seconds=3600.0)
    assert empty["total"]["n_entries"] == 0


# -- generator-driven invalidation (fuzz mutations) --------------------

# Bounded options keep generated-circuit ATPG sub-second; aborted-by-cap
# faults are deterministic, so reuse accounting is unaffected.
FUZZ_OPTS = AtpgOptions(
    fault_model="output",
    random_walks=4,
    cssg_method="exact",
    max_input_changes=1,
    max_product_states=4000,
)

#: Johnson-ring STG scenario with a choice block: 6 signals, 4 output
#: cohorts, and every mutation op below hits *some but not all* cones —
#: found by scanning seeds, pinned for determinism.
FUZZ_SEED = 4


def fuzz_net_text():
    from repro.circuit.parser import netlist_to_text
    from fuzzer.generator import generate_scenario

    scenario = generate_scenario(FUZZ_SEED)
    assert scenario is not None and scenario.kind == "stg"
    return netlist_to_text(scenario.circuit())


def keyset(net_text):
    circuit = parse_netlist(net_text)
    salt = cohort_salt(circuit, "complex", FUZZ_OPTS)
    universe = fault_universe(circuit, FUZZ_OPTS.fault_model)
    return {c.key for c in partition(circuit, universe, salt)}


def run_incremental(net_path, store):
    spec = CampaignSpec(
        benchmarks=[str(net_path)],
        fault_models=(FUZZ_OPTS.fault_model,),
        options=FUZZ_OPTS,
    )
    return execute_job_incremental(expand(spec)[0], store)


def test_generated_rename_reuse_count_matches_key_prediction(tmp_path):
    """A rename must reuse *exactly* the cohorts whose cones never see
    the old name — predicted ahead of time by key-set intersection."""
    import random

    from repro.fuzz.mutate import mutate_netlist

    base = fuzz_net_text()
    mutation = mutate_netlist(base, "rename", random.Random(FUZZ_SEED))
    assert mutation is not None and mutation.preserving
    expected_reused = len(keyset(mutation.text) & keyset(base))

    net = tmp_path / "fz.net"
    net.write_text(base)
    store = ResultStore(tmp_path / "cache")
    _p, _l, cold = run_incremental(net, store)
    assert cold.cohorts_executed == cold.cohorts_total

    net.write_text(mutation.text)
    payload, _l, warm = run_incremental(net, store)
    assert warm.cohorts_reused == expected_reused
    assert 0 < warm.cohorts_reused < warm.cohorts_total  # partial, not trivial
    assert warm.cohorts_executed == warm.cohorts_total - expected_reused
    assert payload["n_total"] > 0


def test_generated_splice_widens_cones_and_covers_new_universe(tmp_path):
    """A fanout splice widens every cone containing the spliced
    consumer (new keys) and changes the fault universe itself; the
    merged payload must cover the *mutated* universe exactly."""
    import random

    from repro.fuzz.mutate import mutate_netlist

    base = fuzz_net_text()
    mutation = mutate_netlist(base, "splice", random.Random(FUZZ_SEED))
    assert mutation is not None and not mutation.preserving
    base_map = keys_by_site(base, FUZZ_OPTS)
    edit_map = keys_by_site(mutation.text, FUZZ_OPTS)
    consumer = mutation.detail
    for cone, key in base_map.items():
        if consumer in cone:
            assert key not in edit_map.values()  # widened -> new key
    expected_reused = len(set(edit_map.values()) & set(base_map.values()))

    net = tmp_path / "fz.net"
    net.write_text(base)
    store = ResultStore(tmp_path / "cache")
    run_incremental(net, store)

    net.write_text(mutation.text)
    payload, _l, warm = run_incremental(net, store)
    assert warm.cohorts_reused == expected_reused
    assert 0 < warm.cohorts_reused < warm.cohorts_total
    universe = fault_universe(
        parse_netlist(mutation.text), FUZZ_OPTS.fault_model
    )
    assert payload["n_total"] == len(universe)
    assert len(payload["faults"]) == len(universe)


def test_generated_rewrite_is_out_of_cone_for_unaffected_cohorts():
    """Double-negating one gate changes keys for exactly the cones that
    contain it; every other cone keeps its key byte-identical (the
    out-of-cone row of the docs/incremental.md matrix)."""
    import random

    from repro.fuzz.mutate import mutate_netlist

    base = fuzz_net_text()
    mutation = mutate_netlist(base, "rewrite", random.Random(FUZZ_SEED))
    assert mutation is not None
    target = mutation.target
    base_map = keys_by_site(base, FUZZ_OPTS)
    edit_map = keys_by_site(mutation.text, FUZZ_OPTS)
    assert set(base_map) == set(edit_map)  # same cone sets
    touched = {cone for cone in base_map if target in cone}
    assert touched and touched != set(base_map)
    for cone in base_map:
        if cone in touched:
            assert edit_map[cone] != base_map[cone]
        else:
            assert edit_map[cone] == base_map[cone]
