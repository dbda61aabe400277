"""Arena walk kernel parity and the simulation layer's compile budget.

The arena walk kernel (compiled generator, state in generator locals)
is the package's one Algorithm A/B settle, so its reference is the
seed's sweeps in :mod:`fuzzer.reference`: the walk must match them
bit for bit — same settled states after every cycle, same detection
words at every observation — because Eichelberger's Algorithms A and B
compute unique lattice fixpoints regardless of evaluation order.  The
legacy oracle simulates the stuck-at kinds only; bridging and
transition machines are checked one at a time on their materialized
faulty netlists.

Checked here on every Table-1 benchmark under every registered fault
model's full universe, riding a deterministic random walk through the
CSSG.  This is the sim half of the differential battery; the BDD half
lives in ``test_symbolic_diff.py``.

The compile-budget tests pin down that an ATPG job compiles only code
that runs: a circuit's fault-model jobs share one bridge-free walk
kernel plus one bridging kernel, under either faulty-machine semantics
(the ternary machines are lanes of those kernels), overlays of any mix
and width run on them, and nothing imports numpy.
"""

import os
import random
import re
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

import repro
from repro.benchmarks_data import TABLE1_NAMES, TABLE2_NAMES, load_benchmark
from repro.campaign import runner
from repro.campaign.plan import CampaignSpec, expand
from repro.campaign.store import ResultStore
from repro.circuit.parser import netlist_to_text, parse_netlist
from repro.core import exact_sim
from repro.core.atpg import AtpgOptions
from repro.core.sequences import Test
from repro.core.three_phase import ThreePhaseGenerator
from repro.core.verify import verify_test_set
from repro.ext.undetectable import classify_undetectable
from repro.faultmodels import get_model, model_names
from repro.sgraph.cssg import build_cssg
from repro.sim import engine, ternary
from repro.sim.arena import _arg_names
from repro.sim.engine import SimEngine, engine_for, lane_of

from fuzzer import reference
from fuzzer.reference import pack_lanes, reference_apply, reference_reset

WALK_LEN = 8

_CSSG_CACHE = {}


def _cssg_for(name):
    if name not in _CSSG_CACHE:
        _CSSG_CACHE[name] = build_cssg(load_benchmark(name, "complex"))
    return _CSSG_CACHE[name]


def _walk_states(cssg, seed):
    """A deterministic (pattern, good-state) trail through the CSSG."""
    patterns = cssg.random_walk(random.Random(seed), WALK_LEN)
    trail = []
    good = cssg.reset
    for pattern in patterns:
        good = cssg.edges[good][pattern]
        trail.append((pattern, good))
    return trail


def _detections(circuit, lanes, good):
    return sum(ternary.detects(circuit, good, s) << j for j, s in enumerate(lanes))


@pytest.mark.parametrize("model_name", model_names())
@pytest.mark.parametrize("name", TABLE1_NAMES)
def test_arena_walk_and_slab_match_batch(name, model_name):
    """The walk matches the legacy sweeps cycle by cycle.  (The name
    predates the removal of the numpy slab kernel and of the worklist
    batch path it was compared with; it is kept so the test IDs stay
    stable.)"""
    cssg = _cssg_for(name)
    circuit = cssg.circuit
    faults = get_model(model_name).universe(circuit)
    if not faults:
        pytest.skip(f"{model_name} universe is empty on {name}")
    trail = _walk_states(cssg, seed=zlib.crc32(f"{name}:{model_name}".encode()))

    lanes = reference_reset(circuit, faults, cssg.reset)
    walk = engine_for(circuit, faults).walk(cssg.reset)

    assert walk.state() == pack_lanes(lanes, circuit.n_signals)
    det_ref = _detections(circuit, lanes, cssg.reset)
    assert walk.observe(cssg.reset) == det_ref

    for pattern, good in trail:
        lanes = reference_apply(circuit, faults, lanes, pattern)
        det_ref = _detections(circuit, lanes, good)
        assert walk.step(pattern, good) == det_ref
        assert walk.state() == pack_lanes(lanes, circuit.n_signals)


def test_walk_is_restartable():
    """Each ``walk()`` call is an independent replay from reset."""
    cssg = _cssg_for("dff")
    faults = get_model("input").universe(cssg.circuit)
    sim = engine_for(cssg.circuit, faults)
    trail = _walk_states(cssg, seed=7)

    def run():
        walk = sim.walk(cssg.reset)
        det = walk.observe(cssg.reset)
        for pattern, good in trail:
            det |= walk.step(pattern, good)
        return det

    assert run() == run()


def test_empty_universe_width_zero():
    """An empty fault list's engine is the one good machine: it settles
    and observes without faulting, and the auditor replaying tests
    against no faults still flags an invalid one."""
    cssg = _cssg_for("dff")
    good_machine = engine_for(cssg.circuit, [])
    walk = good_machine.walk(cssg.reset)
    assert walk.observe(cssg.reset) == 0
    state = good_machine.lane_at_reset(0, cssg.reset)
    assert lane_of(walk.state(), 0) == state
    pattern, good = _walk_states(cssg, seed=1)[0]
    assert walk.step(pattern, good) == 0
    assert lane_of(walk.state(), 0) == good_machine.apply_lane(state, pattern, 0)
    bogus = Test((pattern, pattern), [], source="handmade")
    report = verify_test_set(cssg, [Test((pattern,)), bogus], [])
    assert report.invalid_tests == [1]
    assert report.per_test == [set(), set()]


def _spy_compiles(monkeypatch):
    """Record the filename of every simulation-layer compile."""
    compiles = []
    real_exec = engine._exec

    def spy(src, filename):
        compiles.append(filename)
        return real_exec(src, filename)

    monkeypatch.setattr(engine, "_exec", spy)
    return compiles


def _private_copy(name, style="complex"):
    """A private copy of a bundled circuit, so nothing compiled by
    earlier tests is reused."""
    return parse_netlist(netlist_to_text(load_benchmark(name, style)))


def _walk_kernels(compiles):
    """The walk-kernel compiles among ``compiles``, split into the
    bridge-free ones and the bridging ones."""
    arena = [f for f in compiles if f.startswith("<arena:")]
    bridged = [f for f in arena if re.search(r":\d+br", f)]
    return [f for f in arena if f not in bridged], bridged


def _run_jobs(monkeypatch, compiles, options=None):
    """Run one Table-1 circuit under every fault model; returns the
    private circuit copy and the compiles of each job."""
    name = "ebergen"
    # Every job of the circuit shares the copy, as a table pass does.
    circuit = _private_copy(name)
    monkeypatch.setattr(runner, "load_job_circuit", lambda job: circuit)
    spec = CampaignSpec(
        benchmarks=[name],
        fault_models=model_names(),
        options=options if options is not None else AtpgOptions(),
    )
    cssg_memo = {}
    per_job = []
    for job in expand(spec):
        compiles.clear()
        runner.execute_job(job, cssg_memo)
        n_faults = len(get_model(job.options.fault_model).universe(circuit))
        per_job.append((job, n_faults, list(compiles)))
    return circuit, per_job


def _assert_one_kernel_per_shape(circuit, per_job):
    """The four models of one circuit compile one bridge-free walk
    kernel, plus one bridging kernel if the bridging universe is
    non-empty; no kernel compiles twice (so a job whose kernel shape
    an earlier job compiled compiles nothing), an empty job compiles
    nothing, and no job compiles a per-gate engine evaluator."""
    seen = []
    for job, n_faults, job_compiles in per_job:
        assert not [f for f in job_compiles if f.startswith("<engine:")], job.name
        kernels = [f for f in job_compiles if f.startswith("<arena:")]
        assert not set(kernels) & set(seen), (job.name, job_compiles)
        assert len(kernels) == len(set(kernels)), (job.name, job_compiles)
        assert kernels == [] or n_faults, (job.name, job_compiles)
        seen += kernels
    free, bridged = _walk_kernels(seen)
    assert free == [f"<arena:{circuit.name}>"]
    assert len(bridged) == (1 if get_model("bridging").universe(circuit) else 0)


def test_atpg_jobs_compile_only_the_walk_kernel(monkeypatch):
    """A Table-1 circuit's four fault-model jobs share one bridge-free
    walk kernel, plus one bridging kernel, and compile no per-gate
    engine evaluator; a later settle on a job's fault list reuses the
    kernel."""
    compiles = _spy_compiles(monkeypatch)
    circuit, per_job = _run_jobs(monkeypatch, compiles)
    _assert_one_kernel_per_shape(circuit, per_job)

    faults = get_model("input").universe(circuit)
    sim = engine_for(circuit, faults)
    L, H = sim.broadcast(circuit.require_reset())
    want = reference.batch_settle(circuit, faults, (tuple(L), tuple(H)))
    compiles.clear()
    sim.settle(L, H)
    assert (tuple(L), tuple(H)) == want
    assert compiles == []


def test_ternary_semantics_jobs_run_faulty_machines_as_lanes(monkeypatch):
    """Under ``faulty_semantics="ternary"`` every three-phase faulty
    machine is a lane of its job's walk kernel: the kernel budget is the
    same as under exact semantics, so no lane compiles anything."""
    lane_calls = []
    real_apply_lane = SimEngine.apply_lane

    def spy_apply_lane(self, tstate, pattern, j):
        lane_calls.append(j)
        return real_apply_lane(self, tstate, pattern, j)

    monkeypatch.setattr(SimEngine, "apply_lane", spy_apply_lane)
    compiles = _spy_compiles(monkeypatch)
    circuit, per_job = _run_jobs(
        monkeypatch, compiles, AtpgOptions(faulty_semantics="ternary")
    )
    _assert_one_kernel_per_shape(circuit, per_job)
    assert lane_calls, "no ternary faulty machine ran"


def test_three_phase_and_classifier_share_one_engine(monkeypatch):
    """Ternary-semantics three-phase and the undetectability classifier
    over one fault list run their faulty machines as lanes of one
    engine, which settles the reset once; every lane they read equals
    the seed sweeps' machine."""
    cssg = build_cssg(_private_copy("vbe6a"))
    circuit = cssg.circuit
    faults = [f for m in model_names() for f in get_model(m).universe(circuit)]
    engines, reset_settles, resets, steps = set(), [], set(), set()
    real_reset_words = SimEngine.reset_words
    real_lane_at_reset = SimEngine.lane_at_reset
    real_apply_lane = SimEngine.apply_lane

    def spy_reset_words(self, reset_state=None):
        reset_settles.append(reset_state)
        return real_reset_words(self, reset_state)

    def spy_lane_at_reset(self, j, reset_state):
        engines.add(self)
        lane = real_lane_at_reset(self, j, reset_state)
        resets.add((j, reset_state, lane))
        return lane

    def spy_apply_lane(self, tstate, pattern, j):
        engines.add(self)
        lane = real_apply_lane(self, tstate, pattern, j)
        steps.add((j, tstate, pattern, lane))
        return lane

    monkeypatch.setattr(SimEngine, "reset_words", spy_reset_words)
    monkeypatch.setattr(SimEngine, "lane_at_reset", spy_lane_at_reset)
    monkeypatch.setattr(SimEngine, "apply_lane", spy_apply_lane)
    generator = ThreePhaseGenerator(cssg, faulty_semantics="ternary", faults=faults)
    for fault in faults:
        generator.generate(fault)
    classified = classify_undetectable(cssg, faults)
    assert engines == {engine_for(circuit, faults)}
    assert reset_settles == [cssg.reset]
    assert any(c.product_states for c in classified.values())
    assert {j for j, *_ in resets} == set(range(len(faults)))
    for j, reset_state, lane in resets:
        assert reference_reset(circuit, [faults[j]], reset_state) == [lane]
    for j, tstate, pattern, lane in steps:
        assert reference_apply(circuit, [faults[j]], [tstate], pattern) == [lane]


def test_table_pass_compiles_one_walk_kernel_per_circuit(monkeypatch):
    """A cold Table 1 + Table 2 pass (every job of a circuit on one
    private copy, as a table pass shares the registry's circuit)
    compiles at most one bridge-free walk kernel per circuit, and at
    most one bridging kernel per circuit with a non-empty bridging
    universe."""
    copies = {}

    def fresh(job):
        if job.group not in copies:
            copies[job.group] = _private_copy(job.source, job.style)
        return copies[job.group]

    compiles = _spy_compiles(monkeypatch)
    monkeypatch.setattr(runner, "load_job_circuit", fresh)
    specs = [
        CampaignSpec(benchmarks=TABLE1_NAMES, fault_models=model_names()),
        CampaignSpec(
            benchmarks=TABLE2_NAMES, styles=("two-level",),
            fault_models=model_names(),
        ),
    ]
    memo, group = {}, None
    for job in [job for spec in specs for job in expand(spec)]:
        if job.group != group:
            memo, group = {}, job.group
        runner.execute_job(job, memo)
    free, bridged = _walk_kernels(compiles)
    assert len(free) == len(set(free)) <= len(copies)
    assert set(free) <= {f"<arena:{c.name}>" for c in copies.values()}
    n_bridgeable = sum(
        1 for c in copies.values() if get_model("bridging").universe(c)
    )
    assert len(bridged) == len(set(bridged)) <= n_bridgeable
    assert len(copies) == len(TABLE1_NAMES) + len(TABLE2_NAMES)


def _assert_walks_match_the_reference(cssg, faults, seeds=range(3)):
    """``faults``' engine walks match the per-fault references cycle by
    cycle along a few random walks."""
    circuit = cssg.circuit
    sim = engine_for(circuit, faults)
    for seed in seeds:
        lanes = reference_reset(circuit, faults, cssg.reset)
        walk = sim.walk(cssg.reset)
        assert walk.state() == pack_lanes(lanes, circuit.n_signals)
        assert walk.observe(cssg.reset) == _detections(circuit, lanes, cssg.reset)
        for pattern, good in _walk_states(cssg, seed=seed):
            lanes = reference_apply(circuit, faults, lanes, pattern)
            assert walk.step(pattern, good) == _detections(circuit, lanes, good)
            assert walk.state() == pack_lanes(lanes, circuit.n_signals)


@pytest.mark.parametrize("name", ["ebergen", "chu150", "vbe6a"])
def test_mixed_overlay_batch_matches_the_reference(name):
    """One word mixing input, output and transition faults runs on the
    shared bridge-free kernel and matches the per-fault references
    cycle by cycle."""
    cssg = _cssg_for(name)
    circuit = cssg.circuit
    faults = [
        fault
        for model in ("input", "output", "transition")
        for fault in get_model(model).universe(circuit)
    ]
    assert engine_for(circuit, faults)._bridge_pairs == ()
    _assert_walks_match_the_reference(cssg, faults)


_FORCE_FLAGS = ("fp", "fs", "fo")


def _kernel_args(sim):
    """The argument names of ``sim``'s walk kernel."""
    kernel = sim.cc.walk_kernel(sim._bridge_pairs, sim._full)
    return _arg_names(kernel.layout, kernel.full)


@pytest.mark.parametrize("name", ["ebergen", "chu150", "vbe6a"])
def test_bridging_kernels_carry_only_their_families(name):
    """A bridging-only overlay's kernel has no pin, self-blend or
    output-force family; a bridging overlay mixed with input faults
    keeps every family, runs on its own kernel, and still matches the
    per-fault references cycle by cycle."""
    cssg = _cssg_for(name)
    circuit = cssg.circuit
    bridging = get_model("bridging").universe(circuit)
    assert bridging, name
    lean = engine_for(circuit, bridging)
    assert not [a for a in _kernel_args(lean) if a.startswith(_FORCE_FLAGS)]
    mixed_faults = bridging + get_model("input").universe(circuit)
    mixed = engine_for(circuit, mixed_faults)
    assert mixed._bridge_pairs == lean._bridge_pairs
    flags = {a[:2] for a in _kernel_args(mixed) if a.startswith(_FORCE_FLAGS)}
    assert flags == set(_FORCE_FLAGS)
    _assert_walks_match_the_reference(cssg, mixed_faults)


#: Ceiling on the walk-kernel source bytes of Table 1 (complex) and
#: Table 2 (two-level), bridge-free plus bridging kernels: 241,829
#: bytes measured (336,448 with the observation block emitted twice,
#: per-input drive branches, per-gate ``aev`` bookkeeping and every
#: family in the bridging kernels).  The 3% headroom is below the +4.4%
#: a second copy of the one-line-per-output observation block adds.
KERNEL_SOURCE_CEILING = 249_000


def test_walk_kernel_source_stays_under_its_ceiling(monkeypatch):
    """The generated walk kernels of both tables stay lean: one
    observation block, swap-driven inputs, no per-gate bookkeeping
    beyond the update, and bridging kernels without force families."""
    sizes = []
    real_exec = engine._exec

    def spy(src, filename):
        if filename.startswith("<arena:"):
            sizes.append(len(src.encode()))
        return real_exec(src, filename)

    monkeypatch.setattr(engine, "_exec", spy)
    n_kernels = 0
    for names, style in ((TABLE1_NAMES, "complex"), (TABLE2_NAMES, "two-level")):
        for name in names:
            circuit = _private_copy(name, style)
            for model in ("input", "bridging"):
                faults = get_model(model).universe(circuit)
                if faults:
                    engine_for(circuit, faults).walk(circuit.require_reset())
                    n_kernels += 1
            assert len(sizes) == n_kernels, name
    total = sum(sizes)
    assert total <= KERNEL_SOURCE_CEILING, f"{total} bytes of walk-kernel source"


def test_engines_of_different_widths_share_one_kernel(monkeypatch):
    """Two overlays of different widths run on one compiled kernel, and
    their walks interleaved step by step match each walk run alone."""
    cssg = _cssg_for("ebergen")
    circuit = _private_copy("ebergen")
    faults = get_model("output").universe(circuit)
    compiles = _spy_compiles(monkeypatch)
    narrow = engine_for(circuit, get_model("input").universe(circuit)[:3])
    wide = engine_for(circuit, faults)
    trail = _walk_states(cssg, seed=11)

    def alone(sim):
        walk = sim.walk(cssg.reset)
        return [walk.observe(cssg.reset)] + [
            (walk.step(p, g), walk.state()) for p, g in trail
        ]

    want_narrow, want_wide = alone(narrow), alone(wide)
    a, b, c = narrow.walk(cssg.reset), wide.walk(cssg.reset), narrow.walk(cssg.reset)
    got = {id(w): [w.observe(cssg.reset)] for w in (a, b, c)}
    for p, g in trail:
        for w in (a, b, c):
            got[id(w)].append((w.step(p, g), w.state()))
    assert got[id(a)] == got[id(c)] == want_narrow
    assert got[id(b)] == want_wide
    assert _walk_kernels(compiles) == ([f"<arena:{circuit.name}>"], [])
    assert narrow.width != wide.width


def test_walks_and_store_hit_jobs_compile_no_excited(monkeypatch, tmp_path):
    """The excited-gate function compiles on first use: a walk compiles
    none, and neither does a job whose CSSG is a store hit and whose
    every exact faulty-machine start is certified (converta's output
    job: 3 starts, none explored)."""
    compiles = _spy_compiles(monkeypatch)
    circuit = _private_copy("ebergen")
    engine_for(circuit, get_model("input").universe(circuit)).walk(
        circuit.require_reset()
    )
    assert compiles == [f"<arena:{circuit.name}>"]

    net = tmp_path / "converta.net"
    net.write_text(netlist_to_text(load_benchmark("converta", "complex")))
    store = ResultStore(tmp_path / "cache")

    def job(model):
        spec = CampaignSpec(benchmarks=[str(net)], fault_models=(model,))
        return expand(spec)[0]

    runner.execute_job_incremental(job("input"), store)  # stores the CSSG
    starts, explored = [], []
    real_settled, real_explore = exact_sim._settled, exact_sim.settle_report

    def settled(machine, start, cap, seed):
        starts.append(start)
        return real_settled(machine, start, cap, seed)

    def explore(machine, start, cap):
        explored.append(start)
        return real_explore(machine, start, cap)

    monkeypatch.setattr(exact_sim, "_settled", settled)
    monkeypatch.setattr(exact_sim, "settle_report", explore)
    compiles.clear()
    _payload, _live, stats = runner.execute_job_incremental(job("output"), store)
    assert stats.cssg_reused and stats.cohorts_executed
    assert starts and not explored
    assert [f for f in compiles if f.startswith("<arena:")]
    assert not [f for f in compiles if f.startswith("<excited:")], compiles


def test_import_repro_does_not_load_numpy():
    """The package is standard-library only: importing it, and every
    module in it (the facades are lazy, so ``import repro`` alone loads
    none of them), must not drag numpy in."""
    code = (
        "import importlib, pkgutil, sys, repro; "
        "[importlib.import_module(m.name) "
        " for m in pkgutil.walk_packages(repro.__path__, 'repro.')]; "
        "assert 'repro.sim.ternary' in sys.modules; "
        "assert 'numpy' not in sys.modules, 'numpy was imported'"
    )
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src_dir)
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
