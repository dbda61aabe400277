"""Structural fault collapsing.

Classic ATPG front-end step: faults whose faulty circuits are *identical*
need only one test.  Whether two faults qualify is the owning fault
model's call: each model supplies a **collapse signature**
(:meth:`repro.faultmodels.FaultModel.collapse_signature`) such that
equal signatures imply bit-identical faulty netlists — e.g. for the
stuck-at kinds the signature is the perturbed gate plus its faulty
truth table:

* an input pin stuck-at turns gate function ``F`` into the cofactor
  ``F[site := v]``;
* an output stuck-at turns it into the constant ``v``;
* a transition fault's table is taken over ``support ∪ {self}`` (its
  sticky function reads the gate's own output) — provably the identity
  partition, handled uniformly anyway;
* bridging faults return no signature (they perturb two gates; each is
  its own class).

Because equivalent faults yield bit-identical faulty netlists, running
ATPG on one representative per class and copying its verdict to the
class is *lossless* — coverage numbers over the full universe are
unchanged, only the per-fault work shrinks.  The classic examples fall
out automatically: every AND input SA0 ≡ the output SA0, every inverter
input SA-v ≡ output SA-(1-v), buffer chains collapse end to end.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple

from repro.circuit.faults import Fault
from repro.circuit.netlist import Circuit


def collapse_faults(
    circuit: Circuit, faults: Sequence[Fault]
) -> Tuple[List[Fault], Dict[Fault, Fault]]:
    """Partition ``faults`` into equivalence classes.

    Returns ``(representatives, representative_of)`` where
    ``representative_of[f]`` maps every fault to its class
    representative (representatives map to themselves).  Faults with no
    model signature — and faults on different gates, since every
    signature embeds the gate — are never merged: only local functional
    equivalence is structural and therefore sound without further
    analysis.
    """
    from repro.faultmodels import model_for_kind

    representative_of: Dict[Fault, Fault] = {}
    representatives: List[Fault] = []
    by_signature: Dict[Hashable, Fault] = {}
    for fault in faults:
        signature = model_for_kind(fault.kind).collapse_signature(circuit, fault)
        if signature is None:
            # No structural equivalence claimed: its own class.
            representative_of[fault] = fault
            representatives.append(fault)
            continue
        # Signatures are compared across kinds: the two stuck-at models
        # deliberately share the (gate, faulty-table) shape so an AND
        # input SA0 still collapses with the output SA0; models whose
        # equivalence must stay private tag their signature (the
        # transition model does).
        rep = by_signature.get(signature)
        if rep is None:
            by_signature[signature] = fault
            representative_of[fault] = fault
            representatives.append(fault)
        else:
            representative_of[fault] = rep
    return representatives, representative_of


def collapse_ratio(n_total: int, n_representatives: int) -> float:
    """Fraction of per-fault work saved by collapsing."""
    if n_total == 0:
        return 0.0
    return 1.0 - n_representatives / n_total
