"""Per-fault-cohort content hashing: the incremental re-ATPG layer.

The whole-job cache (:mod:`repro.campaign.plan`) keys a result on the
netlist *file* — edit one gate and the key changes, so the entire fault
universe re-runs.  This module refines that to fault granularity:

* Every fault gets a **cone of influence** — the forward (fanout)
  closure of its injection signals, i.e. the sub-netlist through which
  a fault effect can propagate to an observation point.
* Faults with identical cones form a **cohort**.  A cohort's content
  key hashes the *canonicalized cone sub-netlist* (signal names, gate
  expressions, output membership, reset bits — sorted by name so
  out-of-cone index shifts don't matter) plus a salt covering the
  fault-model/options signature, the stage list, the I/O interface and
  the code/schema versions.
* A run stores one **partial payload** per cohort: the cohort's fault
  verdicts and the slices of the test set that cover them.  A job's
  partials travel together as one pack (:func:`extract_partials`), in
  which the fields they share are stored once.  On a rerun
  after an edit, only cohorts whose cones contain the edited logic get
  new keys; everything else is replayed from cache
  (:class:`repro.flow.stages.ReplayStage`) and only the stale faults
  reach the generating stages.
* The CSSG itself is cached under a **name-free structural
  fingerprint** (gate programs over signal indices), so renames and
  logic-preserving rewrites reuse the state graph outright.

Merging the cached partials back into a full result payload
(:func:`merge_payload`) is a flow run of the replay stage alone, so the
payload is assembled by :meth:`AtpgResult.to_json_dict` as everywhere
else; it reproduces the producing run's payload exactly (modulo
``cpu_seconds``) when all partials come from one run — the identity
the golden tests pin on every bundled benchmark.

Cone replay is an approximation for *logic-changing* edits: the CSSG
is a global object, so an out-of-cone edit can alter reachable stable
states and invalidate a cached test sequence.  ``--refresh`` restores
full-fidelity results; docs/incremental.md spells out the contract.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuit.faults import Fault
from repro.circuit.netlist import Circuit
from repro.core.atpg import RESULT_SCHEMA_VERSION, AtpgOptions
from repro.errors import ReproError
from repro.flow import DEFAULT_STAGE_NAMES, Flow
from repro.flow.stages import ReplayPlan, ReplayStage, ReplayedStatus, ReplayTest
from repro.sgraph.cssg import Cssg, CssgStats, CssgSummary

__all__ = [
    "COHORT_SCHEMA_VERSION",
    "CSSG_CACHE_SCHEMA_VERSION",
    "Cohort",
    "IncrementalStats",
    "build_replay_plan",
    "cohort_key",
    "cohort_salt",
    "cone_doc",
    "cone_of",
    "cssg_fingerprint",
    "cssg_from_doc",
    "cssg_to_doc",
    "extract_partials",
    "merge_payload",
    "partition",
    "validate_partial",
]

#: Bump when the partial-payload layout or the cone canonicalization
#: changes; it salts every cohort key, so old partials simply miss.
#: Version 2: one pack per job instead of one file per cohort.
COHORT_SCHEMA_VERSION = 2

#: Same role for serialized CSSGs under their structural fingerprint.
#: Stats keys a reader does not know (the retired BDD cache counters of
#: older entries) are ignored, not a reason to bump.
CSSG_CACHE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Cohort:
    """Faults sharing one cone of influence, plus their content key.

    ``faults`` keeps fault-universe order; ``cone`` is the sorted
    signal-index set of the shared cone.
    """

    key: str
    cone: Tuple[int, ...]
    faults: Tuple[Fault, ...]


@dataclass
class IncrementalStats:
    """What an incremental execution reused vs re-ran (obs counters
    ``repro_incremental_cohorts_total{outcome=...}`` mirror these)."""

    cohorts_total: int = 0
    cohorts_reused: int = 0
    cohorts_executed: int = 0
    faults_reused: int = 0
    faults_executed: int = 0
    cssg_reused: bool = False

    def to_json_dict(self) -> Dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# -- cones and cohort keys ---------------------------------------------


def cone_of(circuit: Circuit, fault: Fault) -> frozenset:
    """The fault's structural cone of influence: the forward (fanout)
    closure of its injection signals.

    Every signal a fault effect can reach is in the cone, so any edit
    that could change how this fault propagates to an observation
    point changes the cone's content hash.  Side inputs of in-cone
    gates participate *by name* through the gate expressions in
    :func:`cone_doc` — renaming one invalidates the cohort — while
    edits to logic strictly upstream of a side input do not (the
    documented approximation; see docs/incremental.md).
    """
    fan = circuit.fanouts()
    seen = {fault.gate, fault.site}
    stack = list(seen)
    while stack:
        sig = stack.pop()
        for pos in fan[sig]:
            out = circuit.gates[pos].index
            if out not in seen:
                seen.add(out)
                stack.append(out)
    return frozenset(seen)


def cone_doc(circuit: Circuit, cone: Sequence[int]) -> List[List]:
    """Canonical JSON form of the cone sub-netlist.

    One row per in-cone signal, sorted by *name* (not index, so edits
    elsewhere in the file don't shift the doc): the signal name, its
    kind (``"input"`` / library gate type / ``""``), the driving
    expression's text, output membership, and the signal's reset bit.
    """
    reset = circuit.reset_state or 0
    rows = []
    for idx in sorted(cone, key=circuit.signal_name):
        sig = circuit.signals[idx]
        gate = circuit.gate_at(idx)
        if gate is None:
            kind, expr = "input", ""
        else:
            kind, expr = gate.gtype or "", str(gate.expr)
        rows.append(
            [sig.name, kind, expr, int(sig.is_output), (reset >> idx) & 1]
        )
    return rows


def cohort_salt(circuit: Circuit, style: str, options: AtpgOptions) -> str:
    """The non-structural half of every cohort key: anything that
    invalidates *all* cohorts at once (option or fault-model change,
    stage-list change, interface change, code/schema bumps)."""
    doc = {
        "cohort_schema": COHORT_SCHEMA_VERSION,
        "result_schema": RESULT_SCHEMA_VERSION,
        "code_version": _code_version(),
        "style": style,
        "options": options.to_json_dict(),
        "stages": list(DEFAULT_STAGE_NAMES),
        "inputs": list(circuit.input_names),
        "outputs": list(circuit.output_names),
        "k": options.k if options.k is not None else circuit.k,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def cohort_key(salt: str, circuit: Circuit, cone: Sequence[int]) -> str:
    """SHA-256 content key of one cohort: salt + canonical cone doc."""
    blob = salt + "\n" + json.dumps(
        cone_doc(circuit, cone), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def partition(
    circuit: Circuit, faults: Sequence[Fault], salt: str
) -> List[Cohort]:
    """Group the fault universe into cohorts by cone identity.

    Cohorts come back ordered by their first fault's universe position,
    and each cohort's fault tuple keeps universe order — so a merge
    over all cohorts reconstructs the universe exactly.
    """
    grouped: Dict[frozenset, List[Fault]] = {}
    order: List[frozenset] = []
    for fault in faults:
        cone = cone_of(circuit, fault)
        if cone not in grouped:
            grouped[cone] = []
            order.append(cone)
        grouped[cone].append(fault)
    return [
        Cohort(
            key=cohort_key(salt, circuit, cone),
            cone=tuple(sorted(cone)),
            faults=tuple(grouped[cone]),
        )
        for cone in order
    ]


def _code_version() -> str:
    from repro.campaign.plan import CODE_VERSION

    return CODE_VERSION


# -- fault (de)serialization -------------------------------------------
#
# Partials name faults by *signal name*, not index, so a cached cohort
# survives edits that renumber out-of-cone signals.  Resolution failure
# (unknown name, kind mismatch) just means a cache miss.


def _fault_names(circuit: Circuit, fault: Fault) -> List:
    return [
        fault.kind,
        circuit.signal_name(fault.gate),
        circuit.signal_name(fault.site),
        fault.value,
    ]


def validate_partial(
    circuit: Circuit, cohort: Cohort, doc: object
) -> bool:
    """Whether a cached partial payload is usable for ``cohort``: right
    schema, and its named fault list resolves to exactly the cohort's
    faults (order included)."""
    if not isinstance(doc, dict):
        return False
    if doc.get("version") != COHORT_SCHEMA_VERSION:
        return False
    named = doc.get("faults")
    statuses = doc.get("statuses")
    if not isinstance(named, list) or not isinstance(statuses, list):
        return False
    if len(named) != len(cohort.faults) or len(statuses) != len(cohort.faults):
        return False
    expected = [_fault_names(circuit, f) for f in cohort.faults]
    return [list(row) for row in named] == expected


# -- partial extraction ------------------------------------------------


def extract_partials(
    circuit: Circuit,
    payload: Dict,
    cohorts: Sequence[Cohort],
    run_key: str,
) -> Dict:
    """Slice a full result payload into one partial doc per cohort,
    packed for :meth:`~repro.campaign.store.ResultStore.put_cohort`.

    Each partial records, in cohort-fault order, the verdict docs
    (``test`` pointing at the *producing run's* final test index) and
    the tests that cover any cohort fault — with ``at`` pairs
    ``[position-in-test, cohort-fault-index]`` so a later merge can
    rebuild every test's fault list position-exactly.  The fields all
    partials share (schema ``version``, producing ``run``, ``cssg``
    summary) sit once at the pack's top level; the partials sit under
    ``"cohorts"``, keyed by cohort key.
    """
    locate: Dict[Tuple, Tuple[int, int]] = {}
    for ci, cohort in enumerate(cohorts):
        for mi, fault in enumerate(cohort.faults):
            locate[tuple(fault.to_json())] = (ci, mi)

    docs = [
        {
            "faults": [_fault_names(circuit, f) for f in cohort.faults],
            "statuses": [],
            "tests": [],
        }
        for cohort in cohorts
    ]
    for fault_json, status in zip(payload["faults"], payload["statuses"]):
        ci, _ = locate[tuple(fault_json)]
        docs[ci]["statuses"].append(
            {
                "status": status["status"],
                "phase": status["phase"],
                "reason": status["reason"],
                "test": status["test_index"],
            }
        )
    for t_idx, test in enumerate(payload["tests"]):
        per_cohort: Dict[int, List[List[int]]] = {}
        for pos, fault_json in enumerate(test["faults"]):
            ci, mi = locate[tuple(fault_json)]
            per_cohort.setdefault(ci, []).append([pos, mi])
        for ci, at in per_cohort.items():
            docs[ci]["tests"].append(
                {
                    "index": t_idx,
                    "patterns": list(test["patterns"]),
                    "source": test["source"],
                    "at": at,
                }
            )
    return {
        "version": COHORT_SCHEMA_VERSION,
        "run": run_key,
        "cssg": dict(payload["cssg"]),
        "cohorts": {cohort.key: doc for cohort, doc in zip(cohorts, docs)},
    }


# -- merge and replay --------------------------------------------------


def build_replay_plan(
    cohorts: Sequence[Cohort], docs: Sequence[Dict]
) -> ReplayPlan:
    """Turn cached partials into a :class:`ReplayPlan` for the flow's
    :class:`~repro.flow.stages.ReplayStage`.

    The partials' test slices are unioned by the producing run's
    ``(run key, test index)`` and ordered by it: deterministic, and
    equal to original test order when every partial is from one run."""
    groups: Dict[Tuple[str, int], Dict] = {}
    for cohort, doc in zip(cohorts, docs):
        for test in doc["tests"]:
            gk = (str(doc["run"]), int(test["index"]))
            patterns = [int(p) for p in test["patterns"]]
            group = groups.get(gk)
            if group is None:
                group = groups[gk] = {
                    "patterns": patterns,
                    "source": str(test["source"]),
                    "members": {},
                }
            elif (
                group["patterns"] != patterns
                or group["source"] != test["source"]
            ):
                raise ReproError(
                    "cohort partials disagree on shared test "
                    f"{gk[1]} of run {gk[0][:12]}"
                )
            for pos, mi in test["at"]:
                group["members"][int(pos)] = cohort.faults[int(mi)]
    ordered = sorted(groups)
    ref_of = {gk: i for i, gk in enumerate(ordered)}
    tests = tuple(
        ReplayTest(
            patterns=tuple(groups[gk]["patterns"]),
            source=groups[gk]["source"],
            members=tuple(sorted(groups[gk]["members"].items())),
        )
        for gk in ordered
    )
    statuses = []
    for cohort, doc in zip(cohorts, docs):
        for fault, status in zip(cohort.faults, doc["statuses"]):
            test = status["test"]
            statuses.append(
                ReplayedStatus(
                    fault=fault,
                    status=str(status["status"]),
                    phase=str(status["phase"]),
                    reason=str(status["reason"]),
                    test_ref=(
                        None
                        if test is None
                        else ref_of[(str(doc["run"]), int(test))]
                    ),
                )
            )
    return ReplayPlan(tests=tests, statuses=tuple(statuses))


def merge_payload(
    circuit: Circuit,
    options: AtpgOptions,
    universe: Sequence[Fault],
    cohorts: Sequence[Cohort],
    docs: Sequence[Dict],
    cpu_seconds: float,
) -> Dict:
    """Reassemble a full result payload from per-cohort partials: a
    flow run of the replay stage alone over the cached CSSG summary (no
    CSSG is built), serialized with ``cpu_seconds``.

    When every partial comes from one producing run, the output is
    byte-identical to that run's :meth:`AtpgResult.to_json_dict`
    except for ``cpu_seconds`` — the
    invariant ``tests/test_incremental.py`` pins against the golden
    digests on every Table-1 benchmark.
    """
    result = Flow([ReplayStage(build_replay_plan(cohorts, docs))]).run(
        circuit, options, faults=list(universe), cssg=CssgSummary(**docs[0]["cssg"])
    )
    result.cpu_seconds = cpu_seconds
    return result.to_json_dict()


# -- CSSG structural cache ---------------------------------------------


def cssg_fingerprint(
    circuit: Circuit,
    k: Optional[int],
    max_input_changes: Optional[int],
    method: str,
) -> str:
    """Name-free structural fingerprint of a CSSG construction.

    The state graph is a function of the gate *logic* (compiled truth
    programs over signal indices), the reset state, ``k``, the
    input-change limit and the resolved method — never of signal
    names.  Renames and logic-preserving rewrites therefore reuse the
    cached graph; any real logic edit changes a program and misses.
    """
    doc = {
        "schema": CSSG_CACHE_SCHEMA_VERSION,
        "code_version": _code_version(),
        "n_inputs": circuit.n_inputs,
        "n_signals": circuit.n_signals,
        "reset": circuit.reset_state,
        "k": k if k is not None else circuit.k,
        "max_input_changes": max_input_changes,
        "method": method,
        "gates": [
            [gate.index, list(gate.support), [list(row) for row in gate.program]]
            for gate in circuit.gates
        ],
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cssg_to_doc(cssg: Cssg) -> Dict:
    """Serialize a CSSG for the structural cache (states, edges, and
    the stats block the result payload's ``cssg`` summary reads)."""
    stats = {f.name: getattr(cssg.stats, f.name) for f in fields(cssg.stats)}
    return {
        "version": CSSG_CACHE_SCHEMA_VERSION,
        "k": cssg.k,
        "reset": cssg.reset,
        "states": sorted(cssg.states),
        "edges": [
            [s, sorted([p, t] for p, t in cssg.edges[s].items())]
            for s in sorted(cssg.edges)
        ],
        "stats": stats,
    }


def cssg_from_doc(circuit: Circuit, doc: object) -> Optional[Cssg]:
    """Rebuild a cached CSSG against ``circuit``; None if unusable."""
    if not isinstance(doc, dict) or doc.get("version") != CSSG_CACHE_SCHEMA_VERSION:
        return None
    try:
        known = {f.name for f in fields(CssgStats)}
        stats = CssgStats(**{k: v for k, v in doc["stats"].items() if k in known})
        return Cssg(
            circuit=circuit,
            k=int(doc["k"]),
            reset=int(doc["reset"]),
            states={int(s) for s in doc["states"]},
            edges={
                int(s): {int(p): int(t) for p, t in out}
                for s, out in doc["edges"]
            },
            stats=stats,
        )
    except (KeyError, TypeError, ValueError):
        return None
