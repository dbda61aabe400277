"""Seeded, reproducible STG / netlist scenario generation.

Healthy STGs are generated **by construction**, then verified: the
backbone is a Johnson ring ``s0+ s1+ ... s0- s1- ...`` whose running
codes are pairwise distinct (so CSC holds on the undecorated ring),
decorated along tunable shape axes:

* **concurrency** — a window of ring edges is forked into two parallel
  marked-graph branches (fork/join on the neighbouring ring edges);
* **choice** — a free-choice place whose consumers are dedicated
  *input* transitions (the environment resolves the choice), each
  branch a nested handshake over fresh signals that raises a shared
  merge signal before rejoining, so no two reachable states share a
  code with conflicting next-state functions;
* **mirror** — an input-signal ring edge duplicated into ``e/1`` /
  ``e/2`` instances consuming one shared place (instance-suffix
  machinery, trivially confluent).

Every emitted spec is parsed back and gated through the full
:func:`repro.stg.analysis.analyse_stg` battery plus synthesis of the
requested style; unhealthy draws are rejected and retried with the
rejection reason recorded (multi-decoration draws *can* alias codes —
that is what the health gate is for).  Generation is a pure function
of ``(seed, config)``: same seed, byte-identical spec.

Raw **netlist** scenarios (racy, oscillating, non-confluent feedback
circuits the healthy family can never produce) are generated for the
settling/CSSG/kernel oracles, with a deterministically chosen stable
reset state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuit.expr import And, Const, Expr, Not, Or, Var, Xor
from repro.circuit.netlist import Circuit
from repro.circuit.parser import netlist_to_text, parse_netlist
from repro.errors import ReproError
from repro.stg.analysis import analyse_stg
from repro.stg.parser import parse_stg
from repro.stg.reachability import build_state_graph
from repro.stg.synthesis import synthesize

__all__ = [
    "GeneratorConfig",
    "RejectionStats",
    "Scenario",
    "StgSpec",
    "generate_netlist_text",
    "generate_scenario",
    "generate_spec",
    "spec_to_stg_text",
]


@dataclass(frozen=True)
class GeneratorConfig:
    """Shape axes of the scenario distribution.

    ``GeneratorConfig()`` is the small-and-fast profile the driver
    (:mod:`fuzzer.driver`) runs every seed with.

    >>> GeneratorConfig(max_signals=6).max_signals
    6
    """

    #: Johnson-ring signal count range (total signals grow further with
    #: each choice block's dedicated input/response/merge signals).
    min_signals: int = 2
    max_signals: int = 4
    #: Hard cap on total signals (ring + choice extras).  Synthesis
    #: cost is exponential in the signal count, so this is the
    #: scenario-latency dial: 9 keeps health checks well under 100 ms.
    max_total_signals: int = 9
    #: Probability of inserting a free-choice block (per feasible slot,
    #: at most ``max_choices`` per spec).
    choice_density: float = 0.6
    max_choices: int = 2
    max_choice_branches: int = 3
    #: Response-handshake depth inside choice branches (0 = bare pulse).
    max_response_depth: int = 2
    #: Probability of forking a ring window into two parallel branches.
    concurrency: float = 0.6
    max_pars: int = 2
    #: Probability of mirroring one input-signal ring edge.
    mirror_density: float = 0.3
    #: Synthesis-style mix for STG scenarios.
    p_two_level: float = 0.25
    #: Fraction of scenarios that are raw feedback netlists instead of
    #: healthy STGs (racy circuits for the settling oracles).
    netlist_fraction: float = 0.25
    netlist_max_inputs: int = 3
    netlist_max_gates: int = 4
    #: Probability a raw-netlist gate may read its own output.
    feedback: float = 0.5
    #: Health gate: reject state graphs larger than this.
    max_states: int = 5000
    #: Rejection-sampling budget per scenario seed.
    max_attempts: int = 10


@dataclass
class RejectionStats:
    """Why draws were rejected before a healthy spec came out."""

    attempts: int = 0
    accepted: int = 0
    by_reason: Dict[str, int] = field(default_factory=dict)

    def note(self, reason: str) -> None:
        self.by_reason[reason] = self.by_reason.get(reason, 0) + 1


# -- the STG spec IR ----------------------------------------------------


@dataclass(frozen=True)
class ParSpec:
    """Fork ring positions ``[start, start+length)`` (one half only)
    into two branches: the first ``split`` edges and the rest."""

    start: int
    length: int
    split: int


@dataclass(frozen=True)
class ChoiceSpec:
    """Free-choice block inserted before ring position ``pos``.

    Branch ``b`` is the edge chain ``x_b+ r1+ .. rd+ w+/b x_b- rd- ..
    r1-`` over dedicated signals; all branches raise the shared merge
    signal ``w`` (distinct instances), whose fall is spliced in right
    after ring edge ``pos`` so the join state never shares a code with
    the pre-choice state.
    """

    pos: int
    inputs: Tuple[str, ...]  #: one dedicated input signal per branch
    responses: Tuple[Tuple[str, ...], ...]  #: per-branch response chain
    merge: str  #: shared non-input merge signal


@dataclass(frozen=True)
class MirrorSpec:
    """Duplicate the input-signal ring edge at ``pos`` into ``ways``
    instance-suffixed transitions consuming one shared place."""

    pos: int
    ways: int


@dataclass(frozen=True)
class StgSpec:
    """The generator's intermediate representation of one scenario —
    small enough to mutate structurally (the shrinker's substrate) and
    deterministic to emit."""

    name: str
    ring: Tuple[str, ...]  #: Johnson-ring signals, bit order
    kinds: Tuple[Tuple[str, str], ...]  #: (signal, input|output|internal)
    pars: Tuple[ParSpec, ...] = ()
    choices: Tuple[ChoiceSpec, ...] = ()
    mirrors: Tuple[MirrorSpec, ...] = ()
    style: str = "complex"

    @property
    def kind_of(self) -> Dict[str, str]:
        return dict(self.kinds)

    def signals(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.kinds)


@dataclass
class Scenario:
    """One generated scenario: the spec text *is* the artifact (same
    seed, byte-identical text)."""

    seed: int
    kind: str  #: ``"stg"`` or ``"netlist"``
    text: str  #: ``.g`` or ``.net`` source
    style: str = "complex"  #: synthesis style (STG scenarios)
    spec: Optional[StgSpec] = None  #: IR when generated (not for corpus replays)
    rejections: RejectionStats = field(default_factory=RejectionStats)

    def circuit(self) -> Circuit:
        """Synthesize / parse the scenario's gate-level circuit."""
        if self.kind == "netlist":
            return parse_netlist(self.text, filename=f"<fuzz:{self.seed}>")
        stg = parse_stg(self.text, filename=f"<fuzz:{self.seed}>")
        return synthesize(stg, style=self.style)


# -- spec construction --------------------------------------------------


def _rng_for(seed: int, attempt: int) -> random.Random:
    # The RNG keys are frozen: changing them re-draws every seed.
    return random.Random(f"repro-fuzz:{seed}:{attempt}")


def generate_spec(seed: int, cfg: GeneratorConfig, attempt: int = 0) -> StgSpec:
    """One structured draw from the spec distribution (health not yet
    checked — :func:`generate_scenario` gates and retries)."""
    rng = _rng_for(seed, attempt)
    m = rng.randint(cfg.min_signals, min(cfg.max_signals, cfg.max_total_signals - 1))
    ring = tuple(f"s{i}" for i in range(m))
    kinds: Dict[str, str] = {}
    for s in ring:
        kinds[s] = rng.choice(("input", "output", "internal"))
    # The only transition enabled at the initial marking is s0+: it must
    # be an input edge or the synthesized reset state cannot be stable.
    kinds[ring[0]] = "input"
    budget = cfg.max_total_signals - m

    blocked: set = {0}  # position 0 keeps the marked entry place p0
    pars: List[ParSpec] = []
    choices: List[ChoiceSpec] = []
    mirrors: List[MirrorSpec] = []

    def block(lo: int, hi: int) -> None:
        blocked.update(range(lo, hi + 1))

    def free(lo: int, hi: int) -> bool:
        return 0 <= lo and hi <= 2 * m - 1 and not any(
            p in blocked for p in range(lo, hi + 1)
        )

    # Concurrency: fork windows inside one half; the fork is the ring
    # edge before the window and the join the ring edge after it, so a
    # one-position margin on both sides stays undecorated.
    for _ in range(cfg.max_pars):
        if rng.random() >= cfg.concurrency:
            continue
        half = rng.choice((0, 1))
        lo_half, hi_half = (0, m - 1) if half == 0 else (m, 2 * m - 1)
        length = rng.randint(2, max(2, min(4, m)))
        starts = [
            i
            for i in range(lo_half, hi_half - length + 2)
            if free(i - 1, i + length)
        ]
        if not starts:
            continue
        start = rng.choice(starts)
        split = rng.randint(1, length - 1)
        pars.append(ParSpec(start, length, split))
        block(start - 1, start + length)

    # Choice blocks: inserted before a free position, with the merge
    # signal's fall spliced right after it (margin of one on each side).
    extra = 0
    for _ in range(cfg.max_choices):
        if rng.random() >= cfg.choice_density:
            continue
        slots = [p for p in range(1, 2 * m) if free(p - 1, p + 1)]
        if not slots:
            continue
        pos = rng.choice(slots)
        n_branches = rng.randint(2, cfg.max_choice_branches)
        if n_branches + 1 > budget:
            continue  # block would blow the signal budget — skip it
        xs, rs = [], []
        spare = budget - n_branches - 1
        for b in range(n_branches):
            xs.append(f"c{extra}x{b}")
            depth = min(rng.randint(0, cfg.max_response_depth), spare)
            spare -= depth
            chain = tuple(f"c{extra}r{b}_{j}" for j in range(depth))
            rs.append(chain)
        merge = f"c{extra}w"
        budget -= n_branches + 1 + sum(len(c) for c in rs)
        choices.append(ChoiceSpec(pos, tuple(xs), tuple(rs), merge))
        for x in xs:
            kinds[x] = "input"
        for chain in rs:
            for r in chain:
                kinds[r] = rng.choice(("input", "output", "internal"))
        kinds[merge] = rng.choice(("output", "internal"))
        block(pos - 1, pos + 1)
        extra += 1

    # Mirrors: duplicate one input-signal ring edge.  The final ring
    # position is excluded — its join place would arc straight into p0
    # (place-to-place, which the net forbids).
    if rng.random() < cfg.mirror_density:
        slots = [
            p
            for p in range(1, 2 * m - 1)
            if p not in blocked and kinds[ring[p % m]] == "input"
        ]
        if slots:
            pos = rng.choice(slots)
            mirrors.append(MirrorSpec(pos, rng.randint(2, 3)))
            block(pos, pos)

    # Interface sanity: at least one input and one non-input signal.
    if not any(k == "input" for k in kinds.values()):
        kinds[ring[0]] = "input"
    if not any(k != "input" for k in kinds.values()):
        kinds[ring[-1]] = "output"
    # Fault observation needs a primary output.
    if not any(k == "output" for k in kinds.values()):
        name = next(s for s, k in kinds.items() if k != "input")
        kinds[name] = "output"

    order = list(ring) + sorted(k for k in kinds if k not in ring)
    style = "two-level" if rng.random() < cfg.p_two_level else "complex"
    return StgSpec(
        name=f"fz{seed}",
        ring=ring,
        kinds=tuple((s, kinds[s]) for s in order),
        pars=tuple(pars),
        choices=tuple(sorted(choices, key=lambda c: c.pos)),
        mirrors=tuple(mirrors),
        style=style,
    )


def _ring_label(spec: StgSpec, pos: int) -> str:
    m = len(spec.ring)
    return spec.ring[pos % m] + ("+" if pos < m else "-")


def spec_to_stg_text(spec: StgSpec) -> str:
    """Deterministically emit the spec as ``.g`` source."""
    m = len(spec.ring)
    kind_of = spec.kind_of
    by_kind = {"input": [], "output": [], "internal": []}
    for name, kind in spec.kinds:
        by_kind[kind].append(name)

    par_at = {p.start: p for p in spec.pars}
    par_member: Dict[int, ParSpec] = {}
    for p in spec.pars:
        for q in range(p.start, p.start + p.length):
            par_member[q] = p
    choice_at = {c.pos: c for c in spec.choices}
    mirror_at = {mi.pos: mi for mi in spec.mirrors}

    lines: List[str] = [f".model {spec.name}"]
    for kind in ("input", "output", "internal"):
        if by_kind[kind]:
            directive = {"input": ".inputs", "output": ".outputs",
                         "internal": ".internal"}[kind]
            lines.append(f"{directive} {' '.join(by_kind[kind])}")
    lines.append(".graph")

    arcs: List[str] = []
    fresh = iter(range(10_000))

    def connect(srcs: Sequence[str], dsts: Sequence[str]) -> None:
        """Arc every source to every destination (implicit places)."""
        for s in srcs:
            for d in dsts:
                arcs.append(f"{s} {d}")

    tails: List[str] = ["p0"]
    pos = 0
    while pos < 2 * m:
        choice = choice_at.get(pos)
        if choice is not None:
            # free-choice place fed by the current tail
            pc = f"pc{next(fresh)}"
            connect(tails, [pc])
            pj = f"pj{next(fresh)}"
            for b, x in enumerate(choice.inputs):
                chain = (
                    [f"{x}+"]
                    + [f"{r}+" for r in choice.responses[b]]
                    + [f"{choice.merge}+/{b + 1}"]
                    + [f"{x}-"]
                    + [f"{r}-" for r in reversed(choice.responses[b])]
                )
                arcs.append(f"{pc} {chain[0]}")
                for a, bb in zip(chain, chain[1:]):
                    arcs.append(f"{a} {bb}")
                arcs.append(f"{chain[-1]} {pj}")
            tails = [pj]

        par = par_at.get(pos)
        if par is not None:
            window = [_ring_label(spec, q) for q in range(par.start, par.start + par.length)]
            branches = [window[: par.split], window[par.split:]]
            new_tails = []
            for branch in branches:
                connect(tails, [branch[0]])
                for a, b in zip(branch, branch[1:]):
                    arcs.append(f"{a} {b}")
                new_tails.append(branch[-1])
            tails = new_tails
            pos = par.start + par.length
            continue

        label = _ring_label(spec, pos)
        mirror = mirror_at.get(pos)
        if mirror is not None:
            pm = f"pm{next(fresh)}"
            pj = f"pj{next(fresh)}"
            connect(tails, [pm])
            for w in range(mirror.ways):
                arcs.append(f"{pm} {label}/{w + 1}")
                arcs.append(f"{label}/{w + 1} {pj}")
            tails = [pj]
        else:
            connect(tails, [label])
            tails = [label]

        if choice is not None:
            # merge signal falls right after the post-choice ring edge
            connect(tails, [f"{choice.merge}-"])
            tails = [f"{choice.merge}-"]
        pos += 1

    connect(tails, ["p0"])
    lines.extend(arcs)
    lines.append(".marking { p0 }")
    names = [name for name, _ in spec.kinds]
    lines.append(".initial " + " ".join(f"{s}=0" for s in names))
    lines.append(".end")
    return "\n".join(lines) + "\n"


def check_spec_health(text: str, style: str, cfg: GeneratorConfig) -> Optional[str]:
    """None when the spec passes every gate, else the rejection reason."""
    try:
        stg = parse_stg(text)
        sg = build_state_graph(stg, cap=4 * cfg.max_states)
    except ReproError as exc:
        return f"build:{type(exc).__name__}"
    if sg.n_states > cfg.max_states:
        return "too-many-states"
    report = analyse_stg(stg, sg)
    if report.non_free_choice_places:
        return "non-free-choice"
    if report.non_input_choice_places:
        return "output-choice"
    if report.persistency_violations:
        return "non-persistent"
    if report.dead_signals:
        return "dead-signals"
    if report.csc_conflicts:
        return "csc-conflict"
    try:
        synthesize(stg, style=style, sg=sg)
    except ReproError as exc:
        return f"synthesis:{type(exc).__name__}"
    return None


# -- raw racy netlists --------------------------------------------------

_DEPTH_OPS = ("and", "or", "xor")


def _random_expr(rng: random.Random, pool: Sequence[str], depth: int) -> Expr:
    if depth <= 0 or (len(pool) > 1 and rng.random() < 0.35):
        base: Expr = Var(rng.choice(pool))
        return Not(base) if rng.random() < 0.4 else base
    if rng.random() < 0.06:
        return Const(rng.randint(0, 1))
    a = _random_expr(rng, pool, depth - 1)
    b = _random_expr(rng, pool, depth - 1)
    op = rng.choice(_DEPTH_OPS)
    if op == "and":
        return And((a, b))
    if op == "or":
        return Or((a, b))
    return Xor(a, b)


def _build_netlist(rng: random.Random, cfg: GeneratorConfig,
                   reset_bits: Optional[int] = None) -> Circuit:
    n_inputs = rng.randint(1, cfg.netlist_max_inputs)
    n_gates = rng.randint(2, cfg.netlist_max_gates)
    c = Circuit("fznet")
    pool: List[str] = []
    for i in range(n_inputs):
        c.add_input(f"I{i}")
    for i in range(n_inputs):
        c.add_gate(f"b{i}", gtype="BUF", inputs=[f"I{i}"])
        pool.append(f"b{i}")
    for j in range(n_gates):
        name = f"g{j}"
        # Self- and forward-feedback allowed: racy circuits are the point.
        sources = pool + ([name] if rng.random() < cfg.feedback else [])
        c.add_gate(name, expr=_random_expr(rng, sources, rng.randint(1, 3)))
        pool.append(name)
    c.mark_output(pool[-1])
    if reset_bits is not None:
        names = [f"I{i}" for i in range(n_inputs)] + pool
        c.set_reset({n: (reset_bits >> i) & 1 for i, n in enumerate(names)})
    return c.finalize()


def generate_netlist_text(seed: int, cfg: GeneratorConfig,
                          attempt: int = 0) -> Optional[str]:
    """A racy feedback netlist with a deterministically chosen *stable*
    reset, as canonical ``.net`` text — or None for a reset-less draw."""
    probe = _build_netlist(_rng_for(seed, attempt), cfg)
    stable = probe.enumerate_stable_states()
    if not stable:
        return None
    pick = stable[_rng_for(seed ^ 0x5EED, attempt).randrange(len(stable))]
    circuit = _build_netlist(_rng_for(seed, attempt), cfg, reset_bits=pick)
    return netlist_to_text(circuit)


# -- the scenario entry point ------------------------------------------


def generate_scenario(seed: int, cfg: Optional[GeneratorConfig] = None) -> Optional[Scenario]:
    """The scenario for ``seed`` — a pure function of ``(seed, cfg)``.

    Draws are health-gated and retried up to ``cfg.max_attempts``
    times with the rejection reasons recorded on the returned
    scenario; ``None`` (rare) means every attempt was rejected.

    >>> a = generate_scenario(7)
    >>> b = generate_scenario(7)
    >>> a.text == b.text and a.kind == b.kind
    True
    """
    cfg = cfg or GeneratorConfig()
    stats = RejectionStats()
    mode_rng = random.Random(f"repro-fuzz-kind:{seed}")
    want_netlist = mode_rng.random() < cfg.netlist_fraction
    for attempt in range(cfg.max_attempts):
        stats.attempts += 1
        if want_netlist:
            text = generate_netlist_text(seed, cfg, attempt)
            if text is None:
                stats.note("netlist:no-stable-reset")
                continue
            stats.accepted += 1
            return Scenario(seed, "netlist", text, style="", rejections=stats)
        spec = generate_spec(seed, cfg, attempt)
        text = spec_to_stg_text(spec)
        reason = check_spec_health(text, spec.style, cfg)
        if reason is not None:
            stats.note(reason)
            continue
        stats.accepted += 1
        return Scenario(
            seed, "stg", text, style=spec.style, spec=spec, rejections=stats
        )
    return None
