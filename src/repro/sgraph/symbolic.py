"""Symbolic (BDD-based) construction of the test-mode state graphs.

This is the paper's §3.1/§4.2 machinery — and, since the symbolic-kernel
rewrite, the production construction path for circuits whose state space
is too large to enumerate: encode the circuit state as one BDD variable
per signal, and compute

* the TCSG reachable set by a frontier-based least fixpoint of images
  under the two test-mode relations (gate switches and input rewrites),
* the CSSG edges by iterating the gate-switch image exactly ``k`` times
  from each (stable state, input pattern) pair: the pair is a CSSG edge
  iff the k-step image is one singleton stable state (TCR_k uniqueness,
  §4.2).

**Partitioned transition relations.**  The monolithic relation
``R_delta = ∨_g (excited_g ∧ flip_g ∧ others_hold) ∨ stable-loop`` of
the seed implementation is replaced by its per-gate partition: each gate
contributes the conjunct ``excited_g ∧ (g' = ¬g) ∧ frame_g`` where the
frame holds every other signal.  Because the interleaved model switches
exactly one signal per step, the relational product against partition
``g`` quantifies *early* down to a single variable and the next-state
encoding disappears entirely:

    image_g(S)  =  (S ∧ excited_g)[g ← ¬g]

one conjunction and one cofactor swap (:meth:`BddManager.flip_var`),
with no next-state variables, no renaming, and no frame conjuncts.  The
input relation ``R_I`` partitions the same way: from stable states the
inputs are rewritten arbitrarily, so its image is
``∃ inputs . (S ∧ stable)``.  The manager therefore only carries
``n_signals`` variables instead of the seed's interleaved ``2n``.

**Memory.**  Each :class:`SymbolicTcsg` owns an append-only manager:
nothing is collected during a build, and the whole store goes when the
builder does.  The variable order is the netlist-driven
:func:`~repro.bdd.reorder.static_order`, fixed before any BDD exists.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.bdd.manager import FALSE, TRUE, BddManager
from repro.bdd.reorder import static_order
from repro.circuit.expr import OP_AND, OP_NOT, OP_OR, OP_VAR, OP_XOR
from repro.circuit.faults import Fault
from repro.circuit.netlist import Circuit
from repro.errors import StateGraphError
from repro.sgraph.cssg import Cssg

#: Frontier iterations :meth:`SymbolicTcsg.reachable` runs before it
#: gives up on convergence.
_MAX_REACH_ITERS = 100_000


class SymbolicTcsg:
    """BDD encoding of one circuit's test-mode behaviour.

    Signal *i* is BDD variable *i*; a set of states is a function over
    those variables.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.n = circuit.n_signals
        self.mgr = BddManager(self.n)
        mgr = self.mgr
        # Connectivity-driven order: declaration order places related
        # signals arbitrarily far apart (inputs first, their consumers
        # much later), which is exactly the pattern that makes
        # intermediate images exponential.  The order is fixed here,
        # before any BDD exists, and never changes.
        mgr.set_order(static_order(circuit))
        #: Gate functions over the state variables.
        self.gate_fn: Dict[int, int] = {
            g.index: self.compile_program(g.program) for g in circuit.gates
        }
        #: Per-gate partition of R_delta: the excitation condition of
        #: each gate (the image under partition g is
        #: ``flip_var(S ∧ excited[g], g)``).
        self.excited: Dict[int, int] = {
            g.index: mgr.apply_xor(mgr.var(g.index), self.gate_fn[g.index])
            for g in circuit.gates
        }
        self.stable = mgr.and_all(
            self.excited[g.index] ^ 1 for g in circuit.gates
        )
        self._input_vars = list(range(circuit.n_inputs))
        #: Image-computation step counter (reachability + settling).
        self.n_image_iterations = 0

    # -- encoding helpers -------------------------------------------------

    def compile_program(
        self, program, stuck: Optional[Dict[int, int]] = None
    ) -> int:
        """Compile a gate program to a BDD; ``stuck`` optionally forces
        source signals to constants (the input stuck-at fault model)."""
        mgr = self.mgr
        stack: List[int] = []
        for op, arg in program:
            if op == OP_VAR:
                if stuck is not None and arg in stuck:
                    stack.append(TRUE if stuck[arg] else FALSE)
                else:
                    stack.append(mgr.var(arg))
            elif op == OP_NOT:
                stack.append(stack.pop() ^ 1)
            elif op == OP_AND:
                b, a = stack.pop(), stack.pop()
                stack.append(mgr.apply_and(a, b))
            elif op == OP_OR:
                b, a = stack.pop(), stack.pop()
                stack.append(mgr.apply_or(a, b))
            elif op == OP_XOR:
                b, a = stack.pop(), stack.pop()
                stack.append(mgr.apply_xor(a, b))
            else:  # OP_CONST
                stack.append(TRUE if arg else FALSE)
        return stack[0]

    def faulty_gate_fn(self, fault: Fault) -> int:
        """The faulted gate's function under a *stuck-at* ``fault``
        (same variables).  Other fault kinds build their symbolic
        predicates from :attr:`gate_fn` directly — see the
        ``never_excited_symbolic`` hooks in :mod:`repro.faultmodels`."""
        if fault.kind == "output":
            return TRUE if fault.value else FALSE
        if fault.kind != "input":
            raise StateGraphError(
                f"faulty_gate_fn supports stuck-at kinds only, not {fault.kind!r}"
            )
        gate = next(g for g in self.circuit.gates if g.index == fault.gate)
        return self.compile_program(gate.program, stuck={fault.site: fault.value})

    def state_bdd(self, state: int) -> int:
        """Characteristic function of one concrete state."""
        return self.mgr.cube(
            {i: (state >> i) & 1 for i in range(self.n)}
        )

    # -- images ------------------------------------------------------------

    def delta_image(self, states: int) -> int:
        """Successors under one gate switch (partitioned image: one
        conjunction + one cofactor flip per gate, merged as a balanced
        OR tree — pairwise unions keep intermediate results small)."""
        mgr = self.mgr
        self.n_image_iterations += 1
        images = []
        for g, excited in self.excited.items():
            moving = mgr.apply_and(states, excited)
            if moving != FALSE:
                images.append(mgr.flip_var(moving, g))
        while len(images) > 1:
            merged = [
                mgr.apply_or(images[i], images[i + 1])
                for i in range(0, len(images) - 1, 2)
            ]
            if len(images) & 1:
                merged.append(images[-1])
            images = merged
        return images[0] if images else FALSE

    def input_image(self, states: int) -> int:
        """States reachable by rewriting the inputs of a stable state
        (the early-quantified image of R_I)."""
        self.n_image_iterations += 1
        return self.mgr.and_exists(states, self.stable, self._input_vars)

    def settle_step(self, states: int) -> int:
        """One R_delta step with the stable self-loop: gate switches plus
        stable states holding — the k-step settling iterator."""
        mgr = self.mgr
        return mgr.apply_or(
            self.delta_image(states), mgr.apply_and(states, self.stable)
        )

    # -- traversal ---------------------------------------------------------

    def reachable(self, from_states: Optional[int] = None) -> int:
        """Least fixpoint of the TCSG relation R_I ∪ R_delta from reset,
        frontier-based: each iteration computes the image of the newly
        reached states only."""
        from repro.obs.trace import get_tracer

        mgr = self.mgr
        tracer = get_tracer()
        if from_states is None:
            from_states = self.state_bdd(self.circuit.require_reset())
        reached = from_states
        frontier = from_states
        with tracer.span("cssg.reach"):
            for iteration in range(_MAX_REACH_ITERS):
                # One span per frontier *iteration*, not per image call —
                # iterations are the natural unit and stay rare enough
                # that tracing cannot perturb the kernel.
                with tracer.span("cssg.image", iteration=iteration):
                    img = mgr.apply_or(
                        self.delta_image(frontier), self.input_image(frontier)
                    )
                    new = mgr.apply_and(img, reached ^ 1)
                    if new == FALSE:
                        return reached
                    reached = mgr.apply_or(reached, new)
                    frontier = new
        raise StateGraphError("symbolic reachability did not converge")

    def enumerate_states(self, bdd: int) -> Iterator[int]:
        """Decode a state-set BDD into packed state ints."""
        for assignment in self.mgr.sat_iter(bdd, list(range(self.n))):
            state = 0
            for i in range(self.n):
                if assignment[i]:
                    state |= 1 << i
            yield state

    def count_states(self, bdd: int) -> int:
        return self.mgr.sat_count(bdd, list(range(self.n)))

    # -- symbolic CSSG -------------------------------------------------------

    def k_step_outcome(self, state: int, pattern: int, k: int) -> Tuple[bool, Optional[int]]:
        """TCR_k uniqueness test for one (stable state, input pattern).

        Iterates the R_delta image exactly ``k`` times (stable
        self-loops pad shorter paths) from the post-R_I state.  Returns
        ``(valid, successor)``: valid iff the k-step set is a single
        stable state — the paper's CSSG_k membership condition.
        """
        started = self.circuit.apply_input_pattern(state, pattern)
        return self._settle_outcome(started, k)

    def _settle_outcome(self, started: int, k: int) -> Tuple[bool, Optional[int]]:
        mgr = self.mgr
        current = self.state_bdd(started)
        for _ in range(k):
            nxt = self.settle_step(current)
            if nxt == current:
                # Fixpoint: the set at every later step equals this one.
                break
            current = nxt
        # The k-step set must be one state, and that state stable: the
        # subset test is a single conjunction, no decoding needed.
        if mgr.apply_and(current, self.stable) != current:
            return False, None
        if self.count_states(current) != 1:
            return False, None
        only = next(self.enumerate_states(current))
        return True, only

    def build_cssg(
        self,
        k: Optional[int] = None,
        reset: Optional[int] = None,
        max_input_changes: Optional[int] = None,
        cap_states: int = 100_000,
    ) -> Cssg:
        """CSSG via symbolic traversal; result-identical (states, edges,
        reset) to :func:`repro.sgraph.cssg.build_cssg` with
        ``method="exact"``.  The traversal loop is the shared
        :func:`repro.sgraph.cssg.frontier_traverse`; only the per-vector
        analysis (symbolic k-step settling) is this builder's own.
        ``cap_states`` bounds the stable-state enumeration exactly as it
        does for the explicit builders."""
        from repro.sgraph.cssg import frontier_traverse

        circuit = self.circuit
        if k is None:
            k = circuit.k
        if reset is None:
            reset = circuit.require_reset()
        if not circuit.is_stable(reset):
            valid, settled = self._settle_outcome(reset, k)
            if not valid:
                raise StateGraphError(
                    f"reset state {circuit.state_bits(reset)} is unstable and "
                    "does not settle confluently; provide a stable .reset"
                )
            assert settled is not None
            reset = settled
        cssg = Cssg(circuit=circuit, k=k, reset=reset)
        stats = cssg.stats
        stats.method = "symbolic"

        def analyse(started: int) -> Optional[int]:
            valid, succ = self._settle_outcome(started, k)
            return succ if valid else None

        frontier_traverse(cssg, analyse, max_input_changes, cap_states)
        if max_input_changes is None:
            # The paper's Table metric: total TCSG reachable states.
            stats.n_tcsg_states = self.count_states(self.reachable(
                self.state_bdd(reset)
            ))
        self._record_kernel_stats(stats)
        return cssg

    def _record_kernel_stats(self, stats) -> None:
        # Nothing is freed, so the peak is every node allocated.
        stats.peak_bdd_nodes = self.mgr.stats.n_allocated
        stats.n_image_iterations = self.n_image_iterations
        self.mgr.publish_metrics()
