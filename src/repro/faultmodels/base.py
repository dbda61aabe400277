"""The fault-model registry: one :class:`FaultModel` per fault universe.

The paper restricts itself to single stuck-at faults on gate inputs and
outputs, but nothing in its synchronous-test framework depends on that
choice: the CSSG abstraction and the activate / justify / differentiate
search only need, per model,

* a **universe** — which :class:`~repro.circuit.faults.Fault` records
  exist for a circuit;
* **faulty-circuit semantics** — the replacement gate functions the
  exact simulator patches onto the good circuit, plus a packed-mask
  overlay for the compiled engine;
* an **excitation predicate** — which stable states (or CSSG edges) can
  make the fault visible, used by the 3-phase activation step and the
  a-priori undetectability classifier.

Everything downstream (random TPG, fault grading, campaigns, reports,
serialization) treats faults as opaque records and works unchanged.

A model registers itself under a name (the value of
``AtpgOptions.fault_model`` and of the ``--model`` / ``--models`` CLI
flags) and claims one or more :attr:`Fault.kind` strings.  Dispatch
happens two ways:

* by **model name** (:func:`get_model`) when enumerating a universe;
* by **fault kind** (:func:`model_for_kind`) when an individual fault
  record needs its semantics (overlay masks, replacements,
  excitation) — so mixed-universe fault lists are well-defined.

>>> from repro.faultmodels import model_names
>>> model_names()
['bridging', 'input', 'output', 'transition']
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.circuit.expr import Expr
from repro.circuit.faults import Fault
from repro.circuit.netlist import Circuit
from repro.errors import ReproError


class FaultModel:
    """One fault universe and its faulty-circuit semantics.

    Subclasses override the abstract hooks (:meth:`universe`,
    :meth:`describe`, :meth:`replacements`, :meth:`engine_overlay`) and
    whichever predicate hooks their semantics support; the base-class
    defaults are always *sound* (no collapsing, no cheap
    undetectability proof) so a minimal model is immediately correct,
    just not maximally fast.
    """

    #: Registry name: the ``AtpgOptions.fault_model`` / ``--model`` value.
    name: str = ""
    #: The :attr:`Fault.kind` strings this model owns.
    kinds: Tuple[str, ...] = ()
    #: Human label used in result summaries, e.g. ``"input-stuck-at"``.
    universe_label: str = ""

    # -- universe ------------------------------------------------------

    def universe(self, circuit: Circuit) -> List[Fault]:
        """Every fault of this model for ``circuit`` (stable order)."""
        raise NotImplementedError

    def describe(self, circuit: Circuit, fault: Fault) -> str:
        """Human-readable fault name (``Fault.describe`` delegates here
        for this model's kinds)."""
        raise NotImplementedError

    # -- faulty-circuit semantics --------------------------------------

    def replacements(self, circuit: Circuit, fault: Fault) -> Dict[int, Expr]:
        """The faulty circuit's gate functions that differ from the good
        ones (gate signal index → new :class:`~repro.circuit.expr.Expr`
        over the circuit's signal names).  Together with
        :meth:`forced_reset` this is the model's whole faulty-circuit
        semantics for the exact simulator: it patches these gates onto
        the good circuit (:class:`repro.core.exact_sim.PatchedMachine`),
        and :meth:`materialize` builds the same machine as a netlist."""
        raise NotImplementedError

    def materialize(self, circuit: Circuit, fault: Fault) -> Circuit:
        """The faulty circuit as a real netlist, signal order preserved:
        :meth:`replacements` swapped in and the reset state pre-set by
        :meth:`forced_reset`.  The test-side oracle for the patched
        machine."""
        reset = circuit.reset_state
        if reset is not None:
            reset = self.forced_reset(circuit, fault, reset)
        return rebuild_faulty(
            circuit, fault, self.replacements(circuit, fault), reset
        )

    def engine_overlay(self, engine, fault: Fault, bit: int) -> None:
        """Install ``fault`` as machine ``bit`` of a packed
        :class:`~repro.sim.engine.SimEngine` under construction, by
        updating the engine's mask dictionaries (``pin_force`` /
        ``out_force`` / ``self_and`` / ``self_or`` / ``bridges``).

        These mask tables are the *only* fault contract: the engine
        passes them to the arena walk kernel (:mod:`repro.sim.arena`)
        as arguments, so a model implemented here runs on every
        simulation path without further work."""
        raise NotImplementedError

    def forced_reset(self, circuit: Circuit, fault: Fault, reset_state: int) -> int:
        """The reset state a tester forces on the *faulty* machine.

        Default: unchanged.  The output stuck-at model pre-sets the
        stuck node (it never held the fault-free reset value)."""
        return reset_state

    # -- structural collapsing -----------------------------------------

    def collapse_signature(
        self, circuit: Circuit, fault: Fault
    ) -> Optional[Hashable]:
        """A hashable signature such that equal signatures imply
        bit-identical faulty circuits (the soundness contract of
        :func:`repro.core.collapse.collapse_faults`).  ``None`` (the
        default) keeps the fault in its own class — always sound."""
        return None

    # -- excitation ----------------------------------------------------

    def excites(self, circuit: Circuit, fault: Fault, state: int) -> bool:
        """Whether stable ``state`` can start fault-effect divergence —
        the 3-phase *activation* condition (paper §5.1)."""
        raise NotImplementedError

    def activation_states(self, cssg, dist: Dict[int, int], fault: Fault) -> List[int]:
        """Justifiable CSSG states to activate ``fault`` from, ordered
        by justification distance from reset.  The default filters the
        CSSG node set through :meth:`excites`; edge-conditioned models
        (transition faults) override with a sharper target set."""
        states = [
            s
            for s in cssg.states
            if s in dist and self.excites(cssg.circuit, fault, s)
        ]
        states.sort(key=lambda s: (dist[s], s))
        return states

    # -- a-priori undetectability --------------------------------------

    def never_excited_symbolic(
        self, sym, reachable: int, fault: Fault
    ) -> bool:
        """Sound sufficient proof that ``fault`` can never start a
        divergence, over the symbolic TCSG reachable set ``reachable``
        (transient states included; a rooted BDD of ``sym.mgr``).
        Default: no proof (conservative ``False``)."""
        return False

    def never_excited_explicit(self, cssg, fault: Fault) -> bool:
        """Explicit (enumerative) counterpart of
        :meth:`never_excited_symbolic` over the CSSG's states.  Default:
        no proof (conservative ``False``)."""
        return False


def faulty_name(circuit: Circuit, fault: Fault) -> str:
    """The name of ``circuit`` under ``fault``: ``name#kind-gate-site-value``."""
    return f"{circuit.name}#{fault.kind}-{fault.gate}-{fault.site}-{fault.value}"


def rebuild_faulty(
    circuit: Circuit,
    fault: Fault,
    replacements: Dict[int, Expr],
    reset_state: Optional[int] = None,
) -> Circuit:
    """Materialization helper shared by every model: rebuild ``circuit``
    with the expressions of the gates in ``replacements`` (signal index
    → new :class:`~repro.circuit.expr.Expr`) swapped out and, when
    given, ``reset_state`` as its reset.

    Signal order, outputs and ``k`` are preserved, so states of the good
    and faulty circuits are directly comparable — the property the exact
    faulty simulator (:mod:`repro.core.exact_sim`) relies on."""
    from repro._bits import bit

    faulty = Circuit(faulty_name(circuit, fault))
    for name in circuit.input_names:
        faulty.add_input(name)
    for gate in circuit.gates:
        expr = replacements.get(gate.index, gate.expr)
        faulty.add_gate(gate.name, expr=expr)
    for name in circuit.output_names:
        faulty.mark_output(name)
    if reset_state is None:
        reset_state = circuit.reset_state
    if reset_state is not None:
        faulty.set_reset({s.name: bit(reset_state, s.index) for s in circuit.signals})
    faulty.set_k(circuit.k)
    return faulty.finalize()


_MODELS: Dict[str, FaultModel] = {}
_BY_KIND: Dict[str, FaultModel] = {}


def register_model(model: FaultModel) -> FaultModel:
    """Register ``model`` under its name and claim its fault kinds.

    Re-registering a name or kind raises — universes must stay
    unambiguous for campaign cache keys to mean anything."""
    if not model.name or not model.kinds:
        raise ReproError("fault model needs a name and at least one kind")
    if model.name in _MODELS:
        raise ReproError(f"fault model {model.name!r} already registered")
    for kind in model.kinds:
        if kind in _BY_KIND:
            raise ReproError(f"fault kind {kind!r} already registered")
    _MODELS[model.name] = model
    for kind in model.kinds:
        _BY_KIND[kind] = model
    return model


def unregister_model(name: str) -> None:
    """Remove a registered model and release its kinds.

    For experiments and tests that register throwaway models; the four
    built-ins are part of the serialized-result vocabulary and should
    never be unregistered in production code."""
    model = get_model(name)
    del _MODELS[model.name]
    for kind in model.kinds:
        _BY_KIND.pop(kind, None)


def model_names() -> List[str]:
    """Registered model names, sorted (the valid ``--model`` values)."""
    return sorted(_MODELS)


def get_model(name: str) -> FaultModel:
    """The model registered under ``name``; :class:`ReproError` naming
    the registered models otherwise."""
    model = _MODELS.get(name)
    if model is None:
        raise ReproError(
            f"unknown fault model {name!r} "
            f"(registered models: {', '.join(model_names())})"
        )
    return model


def model_for_kind(kind: str) -> FaultModel:
    """The model owning ``Fault.kind == kind``; :class:`ReproError`
    naming the registered kinds otherwise."""
    model = _BY_KIND.get(kind)
    if model is None:
        raise ReproError(
            f"unknown fault kind {kind!r} "
            f"(registered kinds: {', '.join(sorted(_BY_KIND))})"
        )
    return model
