"""Built-in flow stages: the paper's pipeline as composable parts.

Each stage implements the :class:`Stage` protocol — a ``name``, an
``enabled(ctx)`` gate (driven by :class:`~repro.core.atpg.AtpgOptions`),
and ``run(ctx)`` which reads and mutates the shared
:class:`~repro.flow.context.RunContext`.  The default pipeline is

    CollapseStage  →  RandomTpgStage  →  ThreePhaseStage  →  CompactionStage

matching the paper's flow (§2, §5) with the two classic ATPG
bracketing steps (structural collapsing before, static compaction
after).

The two generating stages share three-phase outcomes through
:meth:`RunContext.generate`, which runs the generator at most once per
fault and run.  After the first random walk that detects nothing new,
:class:`RandomTpgStage` asks three-phase about the faults still
undetected.  The walks stop hunting the ones it proves undetectable
(the paper's §6 early classification, with three-phase's own
exhaustive search as the proof).  :class:`ThreePhaseStage` then issues
every verdict as before, in work-list order, reusing those outcomes,
so events, fault-sim credit and results do not change.

Stages honor the run :class:`~repro.flow.budget.Budget` cooperatively:
:class:`RandomTpgStage` stops at a walk boundary and its proof stops
between faults, :class:`ThreePhaseStage` classifies every fault it has
no outcome for ``aborted``/``"budget"`` once the deadline passes (an
outcome already generated is honoured), and :class:`CompactionStage`
skips (it only shrinks an already-valid test set).  A bounded run
therefore always produces a complete, valid partial result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence, Tuple, runtime_checkable

from repro.circuit.faults import Fault
from repro.core.random_tpg import random_tpg
from repro.core.sequences import Test
from repro.core.verify import verify_test_set
from repro.core.three_phase import ABORTED, DETECTED, UNDETECTABLE
from repro.flow.budget import REASON_BUDGET
from repro.flow.context import RunContext
from repro.flow.events import BudgetExhausted, ProgressTick
from repro.sgraph.cssg import Cssg

__all__ = [
    "Stage",
    "CollapseStage",
    "RandomTpgStage",
    "ThreePhaseStage",
    "CompactionStage",
    "ReplayPlan",
    "ReplayStage",
    "ReplayTest",
    "ReplayedStatus",
    "fault_simulate",
]


@runtime_checkable
class Stage(Protocol):
    """One step of a flow: reads/mutates the shared run context."""

    name: str

    def enabled(self, ctx: RunContext) -> bool:
        """Whether the stage participates in this run (option gates)."""
        ...

    def run(self, ctx: RunContext) -> None:
        ...


class CollapseStage:
    """Structural fault collapsing (classic ATPG front end).

    Shrinks the work list to one representative per same-gate
    equivalence class; :meth:`RunContext.finish` expands the classes
    back, so coverage over the full universe is unchanged.
    """

    name = "collapse"

    def enabled(self, ctx: RunContext) -> bool:
        return bool(ctx.options.collapse and ctx.work_list)

    def run(self, ctx: RunContext) -> None:
        from repro.core.collapse import collapse_faults

        ctx.work_list, ctx.representative_of = collapse_faults(
            ctx.circuit, ctx.faults
        )
        ctx.stage_stats[self.name] = {
            "n_faults": len(ctx.faults),
            "n_representatives": len(ctx.work_list),
        }


@dataclass(frozen=True)
class ReplayTest:
    """One cached test to re-inject: its pattern sequence plus the
    faults it detected, as ``(position-in-original-test, fault)`` pairs
    sorted by position (positions keep member order stable when several
    cohorts contribute slices of the same original test)."""

    patterns: Tuple[int, ...]
    source: str
    members: Tuple[Tuple[int, Fault], ...]


@dataclass(frozen=True)
class ReplayedStatus:
    """One cached fault verdict; ``test_ref`` indexes
    :attr:`ReplayPlan.tests` (not a final test index — the stage remaps
    through whatever indices :meth:`RunContext.add_test` assigns)."""

    fault: Fault
    status: str
    phase: str
    reason: str
    test_ref: Optional[int]


@dataclass(frozen=True)
class ReplayPlan:
    """Everything a previous run already decided that this run keeps."""

    tests: Tuple[ReplayTest, ...] = ()
    statuses: Tuple[ReplayedStatus, ...] = ()


class ReplayStage:
    """Re-inject cached classifications ahead of the generating stages.

    The incremental runner (:mod:`repro.campaign.cohort`) replays the
    verdicts and tests of fault cohorts whose cones of influence are
    untouched by an edit; the downstream stages then see only the stale
    faults in :meth:`RunContext.remaining` and generate for those.  With
    an empty plan the stage is disabled and the flow is byte-identical
    to a monolithic run.
    """

    name = "replay"

    def __init__(self, plan: ReplayPlan):
        self.plan = plan

    def enabled(self, ctx: RunContext) -> bool:
        return bool(self.plan.tests or self.plan.statuses)

    def run(self, ctx: RunContext) -> None:
        index_of: List[int] = []
        for replay in self.plan.tests:
            test = Test(
                tuple(replay.patterns),
                [fault for _, fault in replay.members],
                source=replay.source,
            )
            index_of.append(ctx.add_test(test))
        for verdict in self.plan.statuses:
            ctx.classify(
                verdict.fault,
                verdict.status,
                verdict.phase,
                None if verdict.test_ref is None else index_of[verdict.test_ref],
                verdict.reason,
            )
        ctx.stage_stats[self.name] = {
            "n_tests": len(self.plan.tests),
            "n_faults": len(self.plan.statuses),
        }


class RandomTpgStage:
    """Random walks on the CSSG with parallel fault simulation (§5.4);
    stops hunting faults three-phase proves undetectable (see the
    module docstring).  ``stage_stats`` records ``n_detected``,
    ``n_walks`` (walks actually run) and ``n_proven_undetectable``."""

    name = "random-tpg"

    def enabled(self, ctx: RunContext) -> bool:
        return bool(ctx.options.use_random_tpg and ctx.work_list)

    def run(self, ctx: RunContext) -> None:
        opts = ctx.options
        n_walks = 0
        n_proven = 0

        def on_walk(walk_index: int, n_detected: int) -> None:
            nonlocal n_walks
            n_walks += 1
            ctx.bus.emit(
                ProgressTick(
                    self.name, walk_index + 1, opts.random_walks, n_detected
                )
            )

        def prove_undetectable(faults: List[Fault]) -> List[Fault]:
            # Three-phase's own verdicts, through the run's outcome memo:
            # the three-phase stage later reuses every one of them.
            nonlocal n_proven
            proven: List[Fault] = []
            for fault in faults:
                if ctx.budget.expired():
                    break
                if ctx.generate(fault).status == UNDETECTABLE:
                    proven.append(fault)
            n_proven = len(proven)
            return proven

        detected_by, random_tests = random_tpg(
            ctx.cssg,
            ctx.remaining(),
            n_walks=opts.random_walks,
            walk_len=opts.walk_len,
            rng=ctx.rng,
            should_stop=ctx.budget.expired,
            on_walk=on_walk,
            prove_undetectable=prove_undetectable,
        )
        for test in random_tests:
            test_index = ctx.add_test(test)
            for fault in test.faults:
                ctx.classify(fault, DETECTED, "rnd", test_index)
        ctx.stage_stats[self.name] = {
            "n_detected": len(detected_by),
            "n_walks": n_walks,
            "n_proven_undetectable": n_proven,
        }


class ThreePhaseStage:
    """Per-fault 3-phase generation (§5.1–5.3) with interleaved
    fault-simulation credit (§5.4): every deterministic test is graded
    against the still-undetected faults immediately, so later faults it
    covers never reach the expensive generator."""

    name = "three-phase"

    def enabled(self, ctx: RunContext) -> bool:
        return True  # the classifier of last resort always runs

    def run(self, ctx: RunContext) -> None:
        opts = ctx.options
        budget = ctx.budget
        remaining = ctx.remaining()
        total = len(remaining)
        budget_announced = False
        for done, fault in enumerate(remaining, start=1):
            if fault in ctx.statuses:  # picked up by a previous fault's test
                continue
            # An outcome random TPG's proof already generated is honoured
            # even past the deadline: that work is done.
            if ctx.generated(fault) is None and budget.expired():
                if not budget_announced:
                    budget_announced = True
                    n_left = sum(
                        1
                        for f in remaining
                        if f not in ctx.statuses and ctx.generated(f) is None
                    )
                    ctx.bus.emit(
                        BudgetExhausted(self.name, "deadline", n_left)
                    )
                ctx.classify(fault, ABORTED, reason=REASON_BUDGET)
                continue
            outcome = ctx.generate(fault)
            if outcome.status == DETECTED:
                test = Test(outcome.patterns, [fault], source="3-phase")
                extras: List[Fault] = []
                if opts.use_fault_sim:
                    others = [
                        f
                        for f in remaining
                        if f not in ctx.statuses and f is not fault
                    ]
                    extras = fault_simulate(ctx.cssg, others, outcome.patterns)
                    test.faults.extend(extras)
                # Credit computed first so TestAdded.n_faults is final.
                test_index = ctx.add_test(test)
                ctx.classify(fault, DETECTED, "3-ph", test_index)
                for extra in extras:
                    ctx.classify(extra, DETECTED, "sim", test_index)
            elif outcome.status == UNDETECTABLE:
                ctx.classify(fault, UNDETECTABLE)
            else:
                ctx.classify(fault, ABORTED, reason=outcome.reason)
            ctx.bus.emit(ProgressTick(self.name, done, total, ctx.n_covered))


class CompactionStage:
    """Static test-set compaction (wraps
    :func:`repro.core.compact.compact_test_set`): re-grade every test,
    keep essential ones, greedily cover the rest, and remap the fault
    ledger's ``test_index`` references onto the compacted set."""

    name = "compaction"

    def enabled(self, ctx: RunContext) -> bool:
        return bool(ctx.options.compact and ctx.tests.tests)

    def run(self, ctx: RunContext) -> None:
        from repro.core.compact import compact_test_set

        if ctx.budget.expired():
            return  # compaction only shrinks a valid set; honor the deadline
        old_tests = ctx.tests.tests
        compacted, stats = compact_test_set(ctx.cssg, old_tests, ctx.faults)
        new_index_of = {
            old: new for new, old in enumerate(stats["kept_indices"])
        }
        grading = [set(t.faults) for t in compacted.tests]
        for fault, status in ctx.statuses.items():
            if status.status != DETECTED or status.test_index is None:
                continue
            new_index = new_index_of.get(status.test_index)
            if new_index is None:
                # The fault's dedicated test was dropped, which the
                # compactor only does when a kept test provably covers
                # the fault — point the ledger at the first such test.
                new_index = next(
                    i for i, hits in enumerate(grading) if fault in hits
                )
            status.test_index = new_index
        ctx.tests = compacted
        ctx.stage_stats[self.name] = dict(stats)


def fault_simulate(
    cssg: Cssg, faults: Sequence[Fault], patterns: Sequence[int]
) -> List[Fault]:
    """Parallel-ternary simulation of one test over many faults (§5.4).

    Returns the subset of ``faults`` the sequence definitely detects,
    in ``faults`` order, graded by one
    :func:`~repro.core.verify.verify_test_set` replay.  The
    conservativeness of ternary simulation may miss detections; the
    paper accepts this because missed faults still get their own 3-phase
    run later (§5.4, last paragraph).
    """
    if not faults:
        return []
    hits = verify_test_set(cssg, [Test(tuple(patterns), [])], faults).per_test[0]
    return [f for f in faults if f in hits]
