"""The seven differential oracle pairs every scenario runs through.

Each oracle compares two independent implementations that must agree;
any disagreement is a :class:`Divergence` (a bug in one of the two, by
construction — there is no "expected output" file anywhere):

============   ====================================================
``settle``     compiled ternary kernel vs the seed's sweep-based
               legacy settling, over random ternary states and
               stuck-at overlays (the only kinds the legacy oracle
               implements)
``cssg``       explicit-exact CSSG construction vs the symbolic
               (BDD) builder: reset, state set and edge function
``faults``     packed fault overlays vs physically materialized
               faulty netlists along random valid walks, and the exact
               simulator's patched machine vs the same netlist
               (excited-gate lists, reduced-explorer tables, forced
               reset), for every registered fault model
``kernels``    arena walk kernel vs the seed's sweeps in
               :mod:`repro.fuzz.reference` (:func:`reference_reset` /
               :func:`reference_apply`), detection words and packed
               states per step, for every registered fault model
``incremental``  plain :func:`~repro.campaign.runner.execute_job` vs
               the cohort-incremental path: cold byte-identity, warm
               pure-merge identity, then a mutation with the *exact*
               predicted cohort-reuse count and verdict replay
``undetectable``  three-phase exhaustion vs the a-priori classifier
               (:mod:`repro.ext.undetectable`) and vs random walks of
               the arena kernel: a fault either side proves
               undetectable is never detected by the other
``reduced_settle``  full settling explorer vs the stubborn-set-reduced
               one, on every exact-settle start of the undetectable
               pair's three-phase run plus seeded starts on the good
               circuit and the sampled faults' patched machines: equal
               stable states and cycle flags, and never a reduced-only
               truncation; a patched machine's reference is its
               materialized netlist, whose reduced report it must
               equal outright
============   ====================================================

Oracles assert exactly the documented contracts and no more: the
incremental oracle predicts reuse counts from cohort-key set
intersections (the invalidation matrix in ``docs/incremental.md``)
and requires replayed faults to keep their cached verdicts, but does
not compare stale-fault test indices to a from-scratch run — those
are documented to differ.  The undetectable oracle checks soundness
only: a three-phase search cut short by its product-state cap proves
nothing either way, and the classifier is not complete.  The
reduced-settle oracle compares nothing where the full explorer
truncates; a start the reduced explorer finishes there is tallied as
``reduced_settle.full_truncated`` in the report's ``tallies``, apart
from divergences.

Everything is deterministic in ``(scenario, caps)``: internal RNGs are
seeded from the scenario seed, so a divergence found in CI replays
locally from the seed alone.
"""

from __future__ import annotations

import json
import hashlib
import random
import tempfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.campaign.cohort import cohort_salt, partition
from repro.campaign.plan import Job, job_key, source_fingerprint
from repro.campaign.runner import execute_job, execute_job_incremental
from repro.campaign.store import ResultStore
from repro.circuit.faults import Fault, fault_universe, materialize_fault
from repro.circuit.netlist import Circuit
from repro.circuit.parser import netlist_to_text, parse_netlist
from repro.core import exact_sim
from repro.core.atpg import AtpgOptions
from repro.core.three_phase import DETECTED, UNDETECTABLE, ThreePhaseGenerator
from repro.ext.undetectable import POSSIBLY_DETECTABLE, classify_undetectable
from repro.faultmodels import model_names
from repro.fuzz.generator import Scenario
from repro.fuzz.mutate import MUTATION_OPS, mutate_netlist
from repro.sgraph.cssg import Cssg, build_cssg
from repro.sgraph.explore import _stubborn, reduced_settle_report, settle_report
from repro.sgraph.symbolic import SymbolicTcsg
from repro.fuzz import reference
from repro.fuzz.reference import pack_lanes, reference_apply, reference_reset
from repro.sim import ternary
from repro.sim.engine import compiled, engine_for

__all__ = [
    "ORACLES",
    "Divergence",
    "OracleCaps",
    "ScenarioReport",
    "oracle_names",
    "run_scenario",
]


@dataclass(frozen=True)
class OracleCaps:
    """Per-scenario effort dials (all deterministic)."""

    max_faults: int = 8  #: fault-sample cap per model
    n_states: int = 12  #: random ternary start states for ``settle``
    walk_len: int = 8  #: CSSG walk length for fault/kernel parity
    #: the BDD builder's cost explodes past ~13 signals; the ``cssg``
    #: oracle skips (checks=0) on circuits wider than this
    max_symbolic_signals: int = 12

    def to_json_dict(self) -> Dict:
        return asdict(self)

    @staticmethod
    def from_json_dict(data: Dict) -> "OracleCaps":
        return OracleCaps(**data)


@dataclass(frozen=True)
class Divergence:
    """One oracle disagreement — `detail` is self-contained enough to
    reproduce by hand together with the scenario text."""

    oracle: str
    detail: str

    def to_json_dict(self) -> Dict:
        return {"oracle": self.oracle, "detail": self.detail}


@dataclass
class ScenarioReport:
    """What one scenario's oracle battery did."""

    seed: int
    kind: str
    checks: Dict[str, int]  #: oracle -> comparisons made (0 = skipped)
    divergences: List[Divergence]
    #: ``"<oracle>.<case>"`` -> count of cases an oracle notes but does
    #: not compare (never divergences)
    tallies: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_json_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "kind": self.kind,
            "checks": dict(sorted(self.checks.items())),
            "divergences": [d.to_json_dict() for d in self.divergences],
            "tallies": dict(sorted(self.tallies.items())),
        }


class _Ctx:
    """Shared per-scenario material (circuit, exact CSSG, three-phase
    run), each built once."""

    def __init__(self, scenario: Scenario, caps: OracleCaps):
        self.scenario = scenario
        self.caps = caps
        self.circuit = scenario.circuit()
        self.tallies: Dict[str, int] = {}
        self._cssg: Optional[Cssg] = None
        self._three_phase: Optional["_ThreePhaseRun"] = None

    @property
    def cssg(self) -> Cssg:
        if self._cssg is None:
            self._cssg = build_cssg(self.circuit, method="exact")
        return self._cssg

    @property
    def three_phase(self) -> "_ThreePhaseRun":
        if self._three_phase is None:
            self._three_phase = _ThreePhaseRun(self)
        return self._three_phase

    def fault_sample(self, model: str) -> List:
        """A deterministic spread through the model's universe."""
        faults = fault_universe(self.circuit, model)
        cap = self.caps.max_faults
        if len(faults) <= cap:
            return list(faults)
        stride = len(faults) / cap
        return [faults[int(i * stride)] for i in range(cap)]


def _tstate(rng: random.Random, n: int) -> Tuple[int, int]:
    """A random valid ternary state (each signal 0, 1 or X)."""
    low = high = 0
    for i in range(n):
        l, h = rng.choice(((1, 0), (0, 1), (1, 1)))
        low |= l << i
        high |= h << i
    return (low, high)


def _oracle_settle(ctx: _Ctx) -> Tuple[int, List[str]]:
    c = ctx.circuit
    rng = random.Random(f"fuzz-settle:{ctx.scenario.seed}")
    states = [ternary.from_binary(c.require_reset(), c.n_signals)]
    states += [_tstate(rng, c.n_signals) for _ in range(ctx.caps.n_states)]
    faults = [None]
    for model in ("output", "input"):  # the kinds the legacy oracle knows
        faults.extend(ctx.fault_sample(model)[: ctx.caps.max_faults // 2])
    checks, bad = 0, []
    for tstate in states:
        for fault in faults:
            got = ternary.settle(c, tstate, fault)
            want = reference.settle(c, tstate, fault)
            checks += 1
            if got != want:
                fj = None if fault is None else fault.to_json()
                bad.append(
                    f"settle({tstate}, fault={fj}): engine={got} legacy={want}"
                )
    return checks, bad


def _oracle_cssg(ctx: _Ctx) -> Tuple[int, List[str]]:
    if ctx.circuit.n_signals > ctx.caps.max_symbolic_signals:
        return 0, []  # symbolic construction is impractically slow here
    explicit = ctx.cssg
    symbolic = SymbolicTcsg(ctx.circuit).build_cssg()
    bad = []
    if symbolic.reset != explicit.reset:
        bad.append(f"reset: exact={explicit.reset} symbolic={symbolic.reset}")
    if symbolic.states != explicit.states:
        bad.append(
            f"states: exact has {len(explicit.states)}, "
            f"symbolic has {len(symbolic.states)}, "
            f"diff={sorted(set(explicit.states) ^ set(symbolic.states))[:8]}"
        )
    if symbolic.edges != explicit.edges:
        bad.append("edge functions differ between exact and symbolic")
    return 3, bad


def _oracle_faults(ctx: _Ctx) -> Tuple[int, List[str]]:
    c = ctx.circuit
    cssg = ctx.cssg
    checks, bad = 0, []
    # Each overlay machine runs as a lane of one engine over every sampled
    # fault, as the three-phase and classifier faulty machines do (the
    # kernels pair's fault list, hence its kernel).
    sampled = [(m, f) for m in model_names() for f in ctx.fault_sample(m)]
    engine = engine_for(c, [f for _, f in sampled])
    for j, (model, fault) in enumerate(sampled):
        rng = random.Random(f"fuzz-faults:{ctx.scenario.seed}:{fault.to_json()}")
        mat = materialize_fault(c, fault)
        checks += 1
        bad.extend(
            f"{model}/{fault.describe(c)}: {detail}"
            for detail in _patch_mismatches(ctx, fault, mat)
        )
        via_overlay = engine.lane_at_reset(j, cssg.reset)
        via_netlist = ternary.settle_from_reset(mat, mat.require_reset())
        checks += 1
        if via_overlay != via_netlist:
            bad.append(f"{model}/{fault.describe(c)}: reset settle differs")
            continue
        good = cssg.reset
        for _ in range(ctx.caps.walk_len):
            choices = sorted(cssg.valid_patterns(good))
            if not choices:
                break
            pattern = rng.choice(choices)
            good = cssg.edges[good][pattern]
            via_overlay = engine.apply_lane(via_overlay, pattern, j)
            via_netlist = ternary.apply_pattern(mat, via_netlist, pattern)
            checks += 1
            if via_overlay != via_netlist:
                bad.append(
                    f"{model}/{fault.describe(c)}: overlay={via_overlay} "
                    f"materialized={via_netlist} after {pattern:b}"
                )
                break
    return checks, bad


def _patch_mismatches(ctx: _Ctx, fault: Fault, netlist: Circuit) -> List[str]:
    """Where the exact simulator's patched machine of ``fault`` differs
    from ``netlist``, its materialized faulty circuit: the forced reset,
    the reduced explorer's dependence masks, and the excited-gate list
    (order included) on every CSSG state plus seeded random states."""
    machine = exact_sim.PatchedMachine(ctx.circuit, fault)
    bad = []
    if machine.reset_state != netlist.reset_state:
        bad.append(
            f"patched reset {machine.reset_state} != "
            f"materialized reset {netlist.reset_state}"
        )
    tables = _stubborn(netlist)
    for name in ("cone", "fan_cone"):
        if getattr(machine.stubborn, name) != getattr(tables, name):
            bad.append(f"patched stubborn {name} differs from materialized")
    rng = random.Random(f"fuzz-patch:{ctx.scenario.seed}:{fault.to_json()}")
    states = sorted(ctx.cssg.states) + [
        rng.getrandbits(netlist.n_signals) for _ in range(ctx.caps.n_states)
    ]
    excited = compiled(netlist).excited_signals
    for state in states:
        if machine.excited_signals(state) != excited(state):
            bad.append(
                f"excited at {netlist.state_bits(state)}: patched "
                f"{machine.excited_signals(state)} materialized {excited(state)}"
            )
            break
    return bad


def _oracle_kernels(ctx: _Ctx) -> Tuple[int, List[str]]:
    c = ctx.circuit
    cssg = ctx.cssg
    faults = []
    for model in model_names():
        faults.extend(ctx.fault_sample(model))
    if not faults:
        return 0, []
    rng = random.Random(f"fuzz-kernels:{ctx.scenario.seed}")
    patterns = cssg.random_walk(rng, ctx.caps.walk_len)
    trail, good = [], cssg.reset
    for pattern in patterns:
        good = cssg.edges[good][pattern]
        trail.append((pattern, good))

    lanes = reference_reset(c, faults, cssg.reset)
    walk = engine_for(c, faults).walk(cssg.reset)
    checks, bad = 0, []

    def compare(step: str, pattern=None, good_state=None) -> None:
        nonlocal checks, lanes
        if pattern is not None:
            lanes = reference_apply(c, faults, lanes, pattern)
        ref = sum(
            ternary.detects(c, good_state, s) << j for j, s in enumerate(lanes)
        )
        w = walk.observe(good_state) if pattern is None else walk.step(pattern, good_state)
        checks += 1
        if w != ref or walk.state() != pack_lanes(lanes, c.n_signals):
            bad.append(f"{step}: legacy det={ref:#x} walk det={w:#x}")

    compare("reset", good_state=cssg.reset)
    for i, (pattern, good) in enumerate(trail):
        if bad:
            break
        compare(f"step{i}", pattern=pattern, good_state=good)
    return checks, bad


def _digest(payload: Dict) -> str:
    doc = {
        k: v
        for k, v in payload.items()
        if k not in ("cpu_seconds", "schema_version")
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _fault_names(circuit: Circuit, fault_json: Sequence) -> Tuple:
    kind, gate, site, value = fault_json
    return (kind, circuit.signal_name(gate), circuit.signal_name(site), value)


def _oracle_incremental(ctx: _Ctx) -> Tuple[int, List[str]]:
    if ctx.scenario.kind != "stg":
        return 0, []  # ATPG contracts are only claimed for healthy specs
    seed = ctx.scenario.seed
    rng = random.Random(f"fuzz-incremental:{seed}")
    # "output" keeps the fault universe stable under the preserving
    # mutations (sites are gate outputs, and gates are never added).
    # cssg_method is pinned ("auto" would hand wide synthesized circuits
    # to the minutes-slow symbolic builder) and the search is bounded:
    # fuzzed specs can have 6+ primary inputs, where unbounded
    # input-change CSSGs make three-phase ATPG ~15 s per fault.
    # Aborted-by-cap faults are deterministic, so parity still holds.
    options = AtpgOptions(
        fault_model="output",
        seed=seed & 0xFFFF,
        random_walks=4,
        cssg_method="exact",
        max_input_changes=1,
        max_product_states=4000,
    )
    base_text = netlist_to_text(ctx.circuit)
    checks, bad = 0, []
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-inc-") as td:
        tmp = Path(td)
        store = ResultStore(tmp / "cache")

        def mk_job(text: str, tag: str) -> Job:
            path = tmp / f"{tag}.net"
            path.write_text(text)
            fingerprint = source_fingerprint("netlist", str(path))
            key = job_key(fingerprint, "complex", options)
            return Job(
                name=f"fuzz/{seed}/{tag}",
                source_kind="netlist",
                source=str(path),
                style="complex",
                seed=options.seed,
                k=None,
                options=options,
                key=key,
                group=key,
                cost_hint=len(text),
            )

        job = mk_job(base_text, "base")
        plain = execute_job(job).to_json_dict()
        cold, _live, _stats = execute_job_incremental(job, store)
        checks += 1
        if _digest(cold) != _digest(plain):
            bad.append("cold incremental payload != plain payload")
        warm, live, warm_stats = execute_job_incremental(job, store)
        checks += 1
        if live is not None or warm_stats.cohorts_executed != 0:
            bad.append("warm rerun was not a pure cohort merge")
        elif _digest(warm) != _digest(plain):
            bad.append("warm merged payload != plain payload")

        op = MUTATION_OPS[rng.randrange(len(MUTATION_OPS))]
        mutation = mutate_netlist(base_text, op, rng)
        if mutation is None:
            return checks, bad
        base_c = parse_netlist(base_text)
        mut_c = parse_netlist(mutation.text)
        base_keys = {
            co.key
            for co in partition(
                base_c,
                fault_universe(base_c, "output"),
                cohort_salt(base_c, "complex", options),
            )
        }
        mut_cohorts = partition(
            mut_c,
            fault_universe(mut_c, "output"),
            cohort_salt(mut_c, "complex", options),
        )
        expected_reused = sum(1 for co in mut_cohorts if co.key in base_keys)

        mjob = mk_job(mutation.text, "mut")
        merged, _mlive, mstats = execute_job_incremental(mjob, store)
        checks += 1
        if (
            mstats is None
            or mstats.cohorts_total != len(mut_cohorts)
            or mstats.cohorts_reused != expected_reused
        ):
            bad.append(
                f"{op}: predicted {expected_reused}/{len(mut_cohorts)} reused "
                f"cohorts, runner reported "
                f"{mstats and mstats.cohorts_reused}/{mstats and mstats.cohorts_total}"
            )
        universe = [f.to_json() for f in fault_universe(mut_c, "output")]
        checks += 1
        if merged["faults"] != universe or merged["n_total"] != len(universe):
            bad.append(f"{op}: merged payload does not cover the mutated universe")
        # Replayed cohorts must keep their cached verdicts verbatim
        # (matched by name — indices may shift under a splice).
        by_fault = {tuple(s["fault"]): s for s in merged["statuses"]}
        base_by_name = {
            _fault_names(base_c, s["fault"]): s for s in plain["statuses"]
        }
        checks += 1
        for co in mut_cohorts:
            if co.key not in base_keys:
                continue
            for fault in co.faults:
                got = by_fault[tuple(fault.to_json())]
                want = base_by_name.get(_fault_names(mut_c, fault.to_json()))
                if want is None or got["status"] != want["status"]:
                    bad.append(
                        f"{op}: replayed fault {fault.to_json()} has status "
                        f"{got['status']!r}, cached verdict was "
                        f"{want and want['status']!r}"
                    )
                    break
    return checks, bad


#: Product-state cap of the undetectable oracle's three-phase searches
#: (the same bound the incremental oracle gives its ATPG runs).
_UNDETECTABLE_PRODUCT_CAP = 4000
#: Random walks over the undetectable faults per scenario.
_UNDETECTABLE_WALKS = 4


@contextmanager
def _recording_exact_settles(
    sink: List[Tuple[exact_sim.Machine, int, int]]
) -> Iterator[None]:
    """Record every ``(machine, start, cap)`` the exact faulty machine
    settles (a :class:`~repro.core.exact_sim.PatchedMachine`), by
    rebinding :mod:`repro.core.exact_sim`'s module-level
    ``settle_report`` (its one explorer entry) for the duration.  The
    rebinding is process-wide; oracles run one scenario at a time."""
    real = exact_sim.settle_report

    def record(machine: exact_sim.Machine, start: int, cap: int = 200_000):
        sink.append((machine, start, cap))
        return real(machine, start, cap)

    exact_sim.settle_report = record
    try:
        yield
    finally:
        exact_sim.settle_report = real


class _ThreePhaseRun:
    """Three-phase generation on every sampled fault, shared by the
    undetectable and reduced-settle pairs.  Every claim is relative to
    one single-input-change CSSG: fuzzed specs can have 6+ primary
    inputs, where the unbounded CSSG offers ~100 vectors per state and
    each exhaustive search takes seconds per fault."""

    def __init__(self, ctx: _Ctx):
        self.cssg = build_cssg(ctx.circuit, method="exact", max_input_changes=1)
        self.faults = [f for model in model_names() for f in ctx.fault_sample(model)]
        #: every exact faulty-machine settle the run issued
        self.exact_starts: List[Tuple[exact_sim.Machine, int, int]] = []
        self.verdict: Dict[Fault, str] = {}
        if self.faults:
            generator = ThreePhaseGenerator(
                self.cssg, _UNDETECTABLE_PRODUCT_CAP, faults=self.faults
            )
            with _recording_exact_settles(self.exact_starts):
                for fault in self.faults:
                    self.verdict[fault] = generator.generate(fault).status


def _oracle_undetectable(ctx: _Ctx) -> Tuple[int, List[str]]:
    c = ctx.circuit
    run = ctx.three_phase
    cssg, faults, verdict = run.cssg, run.faults, run.verdict
    if not faults:
        return 0, []
    checks, bad = 0, []
    # Every a-priori proof must survive three-phase's exhaustive search.
    classified = classify_undetectable(
        cssg, faults, use_symbolic=c.n_signals <= ctx.caps.max_symbolic_signals
    )
    for fault, cls in classified.items():
        if cls.verdict == POSSIBLY_DETECTABLE:
            continue
        checks += 1
        if verdict[fault] == DETECTED:
            bad.append(
                f"{fault.describe(c)}: classifier proved {cls.verdict}, "
                "three-phase detected it"
            )
    # No random walk may detect a fault three-phase exhausted.
    undetectable = [f for f in faults if verdict[f] == UNDETECTABLE]
    if not undetectable:
        return checks, bad
    engine = engine_for(c, undetectable)
    rng = random.Random(f"fuzz-undetectable:{ctx.scenario.seed}")
    for _ in range(_UNDETECTABLE_WALKS):
        patterns = cssg.random_walk(rng, ctx.caps.walk_len)
        walk = engine.walk(cssg.reset)
        good = cssg.reset
        detected = walk.observe(good)
        for pattern in patterns:
            good = cssg.edges[good][pattern]
            detected |= walk.step(pattern, good)
        checks += 1
        hit = [f for j, f in enumerate(undetectable) if (detected >> j) & 1]
        if hit:
            bad.append(
                f"walk {patterns} detects three-phase-undetectable "
                f"{[f.describe(c) for f in hit]}"
            )
    return checks, bad


#: State cap of the reduced-settle pair's seeded starts: an arbitrary
#: state of a wide circuit can reach far more states than a test cycle.
_SEEDED_SETTLE_CAP = 2000


def _oracle_reduced_settle(ctx: _Ctx) -> Tuple[int, List[str]]:
    c = ctx.circuit
    starts = list(ctx.three_phase.exact_starts)
    # Seeded starts: a CSSG state under a random input pattern (what a
    # test cycle settles) and an arbitrary state, per machine.
    rng = random.Random(f"fuzz-reduced-settle:{ctx.scenario.seed}")
    stable = sorted(ctx.three_phase.cssg.states)
    machines = [c] + [
        exact_sim.PatchedMachine(c, f)
        for model in model_names()
        for f in ctx.fault_sample(model)
    ]
    for machine in machines:
        for _ in range(ctx.caps.n_states // 4):
            pattern = rng.getrandbits(c.n_inputs)
            starts.append(
                (machine, machine.apply_input_pattern(rng.choice(stable), pattern),
                 _SEEDED_SETTLE_CAP)
            )
            starts.append((machine, rng.getrandbits(c.n_signals), _SEEDED_SETTLE_CAP))
    # A patched machine's full-explorer reference is its fault's
    # materialized netlist, one per (circuit, fault).
    netlists: Dict[Tuple[int, Fault], Circuit] = {}

    def netlist_of(machine) -> Circuit:
        if isinstance(machine, Circuit):
            return machine
        key = (id(machine.circuit), machine.fault)
        if key not in netlists:
            netlists[key] = materialize_fault(machine.circuit, machine.fault)
        return netlists[key]

    distinct = {(id(start[0]),) + start[1:]: start for start in starts}
    checks, rescued, bad = 0, 0, []
    for machine, start, cap in distinct.values():
        netlist = netlist_of(machine)
        full = settle_report(netlist, start, cap)
        reduced = reduced_settle_report(machine, start, cap)
        checks += 1
        where = f"{netlist.name} from {netlist.state_bits(start)} (cap {cap})"
        if netlist is not machine:
            checks += 1
            if reduced != reduced_settle_report(netlist, start, cap):
                bad.append(f"{where}: patched and materialized reduced reports differ")
        if full.truncated:
            rescued += not reduced.truncated
            continue
        if (
            reduced.truncated
            or reduced.stable_states != full.stable_states
            or reduced.has_cycle != full.has_cycle
        ):
            bad.append(
                f"{where}: "
                f"full stable={sorted(full.stable_states)} cycle={full.has_cycle}; "
                f"reduced stable={sorted(reduced.stable_states)} "
                f"cycle={reduced.has_cycle} truncated={reduced.truncated}"
            )
    if rescued:
        ctx.tallies["reduced_settle.full_truncated"] = rescued
    return checks, bad


ORACLES: Dict[str, Callable[[_Ctx], Tuple[int, List[str]]]] = {
    "settle": _oracle_settle,
    "cssg": _oracle_cssg,
    "faults": _oracle_faults,
    "kernels": _oracle_kernels,
    "incremental": _oracle_incremental,
    "undetectable": _oracle_undetectable,
    "reduced_settle": _oracle_reduced_settle,
}


def oracle_names() -> Tuple[str, ...]:
    """All oracle pair names, battery order.

    >>> oracle_names()  # doctest: +NORMALIZE_WHITESPACE
    ('settle', 'cssg', 'faults', 'kernels', 'incremental', 'undetectable',
     'reduced_settle')
    """
    return tuple(ORACLES)


def run_scenario(
    scenario: Scenario,
    oracles: Optional[Sequence[str]] = None,
    caps: Optional[OracleCaps] = None,
) -> ScenarioReport:
    """Run ``scenario`` through the named oracle pairs (default: all)."""
    names = tuple(oracles) if oracles else oracle_names()
    unknown = sorted(set(names) - set(ORACLES))
    if unknown:
        raise ValueError(f"unknown oracles {unknown} (have {oracle_names()})")
    ctx = _Ctx(scenario, caps or OracleCaps())
    checks: Dict[str, int] = {}
    divergences: List[Divergence] = []
    for name in names:
        n, bad = ORACLES[name](ctx)
        checks[name] = n
        divergences.extend(Divergence(name, detail) for detail in bad)
    return ScenarioReport(
        scenario.seed, scenario.kind, checks, divergences, dict(ctx.tallies)
    )
