"""The staged ATPG pipeline: the public entry point of the flow API.

``Flow.default().run(circuit, options)`` is the paper's complete flow;
``Flow([...])`` composes any stage list over the same
:class:`~repro.flow.context.RunContext`.  ``run`` brackets every enabled
stage with ``StageStarted`` / ``StageFinished`` event records (CSSG
construction included, as the pseudo-stage ``"cssg"``), starts the run
:class:`~repro.flow.budget.Budget` before any work, and finishes by
freezing the context into an :class:`~repro.core.atpg.AtpgResult`.

Listeners subscribe per run::

    result = Flow.default().run(circuit, options, listeners=[ProgressLine()])

A listener is any callable taking one event record (a dict; see
:mod:`repro.flow.context`).  Under a recording tracer
(:func:`repro.obs.use_tracer`) :meth:`repro.obs.Tracer.event` is one
more listener: it files every record on the innermost span open at
emission time, so one span file carries the run's timeline and its
verdict narrative (``repro-atpg --spans FILE``).
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, List, Optional, Sequence

from repro.circuit.faults import Fault, fault_universe
from repro.circuit.netlist import Circuit
from repro.core.atpg import AtpgOptions, AtpgResult, cssg_for
from repro.flow.budget import Budget
from repro.flow.context import Listener, RunContext, emit
from repro.flow.stages import (
    CollapseStage,
    CompactionStage,
    RandomTpgStage,
    Stage,
    ThreePhaseStage,
)
from repro.sgraph.cssg import Cssg

__all__ = ["Flow", "DEFAULT_STAGE_NAMES"]

#: Stage order of :meth:`Flow.default`, in pipeline position.  Campaign
#: job keys embed this (see :func:`repro.campaign.plan.job_key`) so a
#: change to the default pipeline invalidates cached results.
DEFAULT_STAGE_NAMES = ("collapse", "random-tpg", "three-phase", "compaction")


class Flow:
    """An ordered list of stages run over one shared context.

    ``Flow.default()`` is the paper's complete pipeline; ``Flow([...])``
    composes any objects implementing the :class:`Stage` protocol
    (``name`` / ``enabled(ctx)`` / ``run(ctx)``) over the same
    :class:`~repro.flow.context.RunContext`.  A partial flow still
    yields a complete result — unclassified faults come back
    ``aborted`` with reason ``"unprocessed"``.

    >>> from repro import AtpgOptions, Flow, load_benchmark
    >>> flow = Flow.default()
    >>> flow.stage_names
    ['collapse', 'random-tpg', 'three-phase', 'compaction']
    >>> result = flow.run(load_benchmark("dff"), AtpgOptions(seed=0))
    >>> result.coverage
    1.0

    The run accepts any registered fault model
    (``AtpgOptions(fault_model="bridging")``; see
    :mod:`repro.faultmodels`), an optional pre-built CSSG to share one
    construction across runs, per-run event listeners, and a budget
    override — see :meth:`run`.
    """

    def __init__(self, stages: Sequence[Stage]):
        self.stages: List[Stage] = list(stages)

    @staticmethod
    def default() -> "Flow":
        """The paper's pipeline; stages gate themselves on the options
        (``collapse`` / ``use_random_tpg`` / ``compact``), so one flow
        object serves every option combination."""
        return Flow(
            [
                CollapseStage(),
                RandomTpgStage(),
                ThreePhaseStage(),
                CompactionStage(),
            ]
        )

    @property
    def stage_names(self) -> List[str]:
        return [stage.name for stage in self.stages]

    def run(
        self,
        circuit: Circuit,
        options: Optional[AtpgOptions] = None,
        faults: Optional[Sequence[Fault]] = None,
        cssg: Optional[Cssg] = None,
        listeners: Iterable[Listener] = (),
        budget: Optional[Budget] = None,
    ) -> AtpgResult:
        """Run the pipeline on ``circuit`` and return the result.

        ``faults`` defaults to the full universe of
        ``options.fault_model``; ``cssg`` may be passed in to share one
        construction across runs (the campaign runner does), and a
        replay-only flow needs no more than a
        :class:`~repro.sgraph.cssg.CssgSummary`.  ``budget``
        overrides the deadline ``options`` implies — mainly for tests
        that inject a fake clock; the per-fault caps always come from
        ``options``.
        """
        from repro.obs.trace import get_tracer

        opts = options if options is not None else AtpgOptions()
        observers = _observers(listeners)
        tracer = get_tracer()
        start = time.perf_counter()
        run_budget = budget if budget is not None else Budget.from_options(opts)
        run_budget.start()
        if faults is None:
            faults = fault_universe(circuit, opts.fault_model)
        with tracer.span(
            "flow.run", circuit=circuit.name, fault_model=opts.fault_model
        ):
            if cssg is None:
                cssg = self.build_cssg(circuit, opts, len(faults), observers)
            ctx = RunContext(
                circuit, opts, cssg, list(faults), listeners=observers,
                budget=run_budget,
            )
            for stage in self.stages:
                if not stage.enabled(ctx):
                    continue
                ctx.stage = stage.name
                if ctx.listeners:
                    emit(ctx.listeners, {
                        "event": "StageStarted", "stage": stage.name,
                        "n_remaining": len(ctx.remaining()),
                    })
                with tracer.span(f"stage.{stage.name}"):
                    stage.run(ctx)
                if ctx.listeners:
                    stats = ctx.stage_stats.get(stage.name) or {}
                    emit(ctx.listeners, {
                        "event": "StageFinished", "stage": stage.name,
                        "detail": " ".join(
                            f"{key}={value}" for key, value in sorted(stats.items())
                        ),
                    })
            ctx.stage = ""
            return ctx.finish(time.perf_counter() - start)

    @staticmethod
    def build_cssg(
        circuit: Circuit,
        opts: AtpgOptions,
        n_faults: int,
        listeners: Optional[List[Listener]] = None,
        build: Optional[Callable[[Circuit, AtpgOptions], Cssg]] = None,
    ) -> Cssg:
        """Build ``circuit``'s CSSG as the pseudo-stage ``"cssg"``, in a
        ``stage.cssg`` span between ``StageStarted`` and
        ``StageFinished`` records emitted to ``listeners``.

        ``listeners`` defaults to the ambient observers alone, so a
        construction outside a run (the campaign runner builds one
        graph for a circuit's jobs) is metered and traced as a run's
        is.  ``build`` defaults to :func:`~repro.core.atpg.cssg_for`.
        """
        from repro.obs.trace import get_tracer

        if listeners is None:
            listeners = _observers()
        if listeners:
            emit(listeners, {
                "event": "StageStarted", "stage": "cssg", "n_remaining": n_faults,
            })
        with get_tracer().span("stage.cssg"):
            cssg = (build or cssg_for)(circuit, opts)
        if listeners:
            emit(listeners, {
                "event": "StageFinished", "stage": "cssg",
                "detail": (
                    f"{cssg.n_states} states / {cssg.n_edges} edges [{cssg.method}]"
                ),
            })
        return cssg


def _observers(listeners: Iterable[Listener] = ()) -> List[Listener]:
    """``listeners`` plus the ambient observers.

    Observability is ambient, never part of the call contract: with
    metrics enabled the run also feeds a MetricsConsumer, and under a
    recording tracer :meth:`~repro.obs.trace.Tracer.event` files every
    record on the span open when it is emitted.  Both are observational
    only: the event stream and the serialized result are byte-identical
    with or without them."""
    from repro.obs import metrics as obs_metrics
    from repro.obs.trace import active as tracing_active, get_tracer

    observers: List[Listener] = list(listeners)
    if obs_metrics.enabled():
        observers.append(obs_metrics.MetricsConsumer())
    if tracing_active():
        observers.append(get_tracer().event)
    return observers
