"""ATPG result and option types.

The flow itself lives in :mod:`repro.flow`: a pipeline of composable
stages (collapse → random TPG → 3-phase + fault sim → compaction) over a
shared :class:`~repro.flow.context.RunContext`, with a run
:class:`~repro.flow.budget.Budget` and a typed event stream.  This
module keeps the *data contract* every consumer shares:

* :class:`AtpgOptions` — the tuning knobs (also the campaign cache key);
* :class:`FaultStatus` / :class:`AtpgResult` — per-fault verdicts and
  the complete Table 1/2 row, JSON round-trippable.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import ReproError

from repro.circuit.faults import Fault
from repro.circuit.netlist import Circuit
from repro.core.sequences import Test, TestSet
from repro.core.three_phase import DETECTED, UNDETECTABLE
from repro.sgraph.cssg import Cssg, CssgSummary, build_cssg


#: Version of the :meth:`AtpgResult.to_json_dict` schema.  Bump whenever
#: the serialized layout changes shape; the campaign result cache treats
#: any other version as a miss, so stale entries are recomputed rather
#: than misread.  Version 2 added :attr:`FaultStatus.reason` (why a
#: fault aborted) and the ``deadline_seconds`` / ``compact`` options.
#: Version 3 added the resolved CSSG construction method and the
#: symbolic-kernel facts (TCSG state count, peak BDD nodes, GC passes,
#: image iterations) to the ``cssg`` block.  Version 4 admits the
#: registry fault kinds (``bridging`` / ``transition``) in the
#: ``faults`` / ``statuses`` / ``tests`` arrays — same ``[kind, gate,
#: site, value]`` element shape, new ``kind`` vocabulary — so caches
#: written by stuck-at-only readers are never asked to hold records
#: they cannot interpret.  Version 5 added an optional ``telemetry``
#: block for observed runs.  The block is retired (stage times and BDD
#: cache traffic live in spans and metrics) and readers ignore a stray
#: key; the version stays 5 because a payload without the block was
#: always a valid version-5 payload.
RESULT_SCHEMA_VERSION = 5


@dataclass
class AtpgOptions:
    """Tuning knobs for the full flow (paper defaults where stated).

    ``AtpgOptions()`` is a valid everyday configuration; every field
    has the paper's (or the implementation's calibrated) default.  The
    dataclass doubles as the campaign cache key — any field change
    yields a different :func:`repro.campaign.plan.job_key` — and
    round-trips through :meth:`to_json_dict` / :meth:`from_json_dict`.

    >>> opts = AtpgOptions(fault_model="transition", seed=3)
    >>> AtpgOptions.from_json_dict(opts.to_json_dict()) == opts
    True
    """

    #: Fault universe to run: any name registered in
    #: :mod:`repro.faultmodels` — ``"input"`` / ``"output"`` stuck-at
    #: (the paper's models), ``"bridging"`` (wired-AND/OR shorts of
    #: adjacent nets), or ``"transition"`` (slow-to-rise/fall).
    fault_model: str = "input"
    k: Optional[int] = None  # test-cycle transition bound (None: circuit.k)
    max_input_changes: Optional[int] = None  # None = any subset may switch
    # CSSG validity analysis: "exact" (formal TCR_k, exponential),
    # "ternary" (GMW/Eichelberger, polynomial), "hybrid" (union of both
    # sound acceptances), "symbolic" (exact TCR_k semantics by BDD image
    # computation — the large-state-space path), or "auto" (hybrid up to
    # `auto_exact_limit` signals, i.e. 2^limit states; symbolic above —
    # enumeration is off the table there, image computation is not).
    cssg_method: str = "auto"
    auto_exact_limit: int = 20
    random_walks: int = 16
    walk_len: int = 64
    seed: int = 0
    use_random_tpg: bool = True
    use_fault_sim: bool = True
    max_product_states: int = 200_000
    max_activation_tries: int = 8
    # Faulty-machine semantics for the 3-phase generator: "exact" tracks
    # the set of possible stable states of the materialized faulty
    # netlist (recovers tests ternary conservatism would miss and makes
    # "undetectable" verdicts exact); "ternary" is the paper's original
    # machinery.  Exact falls back to ternary per fault when analysis
    # caps are hit.
    faulty_semantics: str = "exact"
    # Structural fault collapsing: run the flow on one representative
    # per same-gate equivalence class and copy verdicts to the class.
    # Lossless for coverage; reduces per-fault work.
    collapse: bool = False
    # Static test-set compaction after generation (CompactionStage):
    # re-grade, keep essential tests, greedily cover the rest.
    compact: bool = False
    # Wall-clock budget for the whole run (None = unbounded).  Stages
    # honor it cooperatively: when it expires, the untried remainder is
    # classified aborted with reason "budget" and the partial result is
    # still fully valid.
    deadline_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        # ``not value >= 0`` also refuses NaN, which every comparison fails.
        for name in ("k", "random_walks", "walk_len", "deadline_seconds"):
            value = getattr(self, name)
            if value is not None and not value >= 0:
                raise ReproError(f"AtpgOptions.{name} must be >= 0, got {value!r}")
        if self.deadline_seconds == float("inf"):
            raise ReproError(
                "AtpgOptions.deadline_seconds must be finite "
                "(None means unbounded), got inf"
            )
        if self.max_input_changes is not None and not self.max_input_changes >= 1:
            raise ReproError(
                "AtpgOptions.max_input_changes must be >= 1, "
                f"got {self.max_input_changes!r}"
            )

    def to_json_dict(self) -> Dict:
        # Every field is a scalar: asdict's deep copy buys nothing.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_json_dict(data: Dict) -> "AtpgOptions":
        known = {f.name for f in fields(AtpgOptions)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ReproError(f"unknown AtpgOptions fields: {unknown}")
        return AtpgOptions(**data)


@dataclass
class FaultStatus:
    """Final classification of one fault.

    ``reason`` records *why* an aborted fault was given up on:
    ``"budget"`` (run deadline expired before/while processing it),
    ``"product-states"`` (per-fault product-state cap hit; the only
    way three-phase gives up, since a search that ran out of activation
    targets always re-proves from reset), or
    ``"unprocessed"`` (no stage of a custom flow classified it).
    Empty for detected / undetectable faults.
    """

    fault: Fault
    status: str  # "detected" / "undetectable" / "aborted"
    phase: str = ""  # "rnd" / "3-ph" / "sim" when detected
    test_index: Optional[int] = None
    reason: str = ""  # abort reason when status == "aborted"

    def to_json_dict(self) -> Dict:
        return {
            "fault": self.fault.to_json(),
            "status": self.status,
            "phase": self.phase,
            "test_index": self.test_index,
            "reason": self.reason,
        }

    @staticmethod
    def from_json_dict(data: Dict) -> "FaultStatus":
        return FaultStatus(
            fault=Fault.from_json(data["fault"]),
            status=str(data["status"]),
            phase=str(data["phase"]),
            test_index=(
                None if data["test_index"] is None else int(data["test_index"])
            ),
            reason=str(data.get("reason", "")),
        )


@dataclass
class AtpgResult:
    """Everything one Table 1/2 row needs, plus the tests themselves."""

    circuit: Circuit
    options: AtpgOptions
    cssg: Union[Cssg, CssgSummary]
    faults: List[Fault]
    statuses: Dict[Fault, FaultStatus]
    tests: TestSet
    cpu_seconds: float
    n_random: int = 0
    n_three_phase: int = 0
    n_fault_sim: int = 0
    n_undetectable: int = 0
    n_aborted: int = 0

    @property
    def n_total(self) -> int:
        return len(self.faults)

    @property
    def n_covered(self) -> int:
        return self.n_random + self.n_three_phase + self.n_fault_sim

    @property
    def coverage(self) -> float:
        return self.n_covered / self.n_total if self.faults else 1.0

    def summary(self) -> str:
        """One-line headline: coverage, per-phase split, CSSG size."""
        from repro.faultmodels import get_model

        label = get_model(self.options.fault_model).universe_label
        return (
            f"{self.circuit.name}: {self.n_covered}/{self.n_total} "
            f"{label} faults covered "
            f"({100.0 * self.coverage:.2f}%) — rnd {self.n_random}, "
            f"3-ph {self.n_three_phase}, sim {self.n_fault_sim}, "
            f"undetectable {self.n_undetectable}, aborted {self.n_aborted}; "
            f"CSSG {self.cssg.n_states} states / {self.cssg.n_edges} edges; "
            f"{self.cpu_seconds:.2f}s"
        )

    def undetected_faults(self) -> List[Fault]:
        return [f for f in self.faults if self.statuses[f].status != DETECTED]

    def abort_reasons(self) -> Dict[str, int]:
        """Histogram of :attr:`FaultStatus.reason` over aborted faults,
        e.g. ``{"budget": 12, "product-states": 1}``."""
        return abort_histogram(
            (status.status, status.reason) for status in self.statuses.values()
        )

    # -- JSON contract (the campaign result cache stores exactly this) --

    def to_json_dict(self) -> Dict:
        """Canonical JSON form: the whole Table 1/2 row plus every test
        and per-fault verdict.  ``from_json_dict`` inverts it; two runs
        are *the same result* iff these dicts agree up to
        ``cpu_seconds``, whether or not the run was observed."""
        cssg = self.cssg
        if isinstance(cssg, Cssg):
            cssg = cssg.summary()
        doc = {
            "schema_version": RESULT_SCHEMA_VERSION,
            "circuit": {
                "name": self.circuit.name,
                "n_inputs": self.circuit.n_inputs,
                "n_signals": self.circuit.n_signals,
            },
            "options": self.options.to_json_dict(),
            # asdict's result for a flat dataclass, without its deep copy.
            "cssg": dict(vars(cssg)),
            "faults": [f.to_json() for f in self.faults],
            "statuses": [self.statuses[f].to_json_dict() for f in self.faults],
            "tests": [t.to_json_dict() for t in self.tests],
            "cpu_seconds": self.cpu_seconds,
            # Derived, but stored so payload consumers (campaign
            # artifacts, dashboards) read the headline numbers instead
            # of re-deriving the coverage arithmetic.
            "n_total": self.n_total,
            "n_covered": self.n_covered,
            "n_random": self.n_random,
            "n_three_phase": self.n_three_phase,
            "n_fault_sim": self.n_fault_sim,
            "n_undetectable": self.n_undetectable,
            "n_aborted": self.n_aborted,
        }
        return doc

    @staticmethod
    def from_json_dict(data: Dict, circuit: Circuit) -> "AtpgResult":
        """Rebuild a result against ``circuit`` (the CSSG comes back as a
        :class:`CssgSummary`).  Raises :class:`ReproError` on a schema
        version or circuit mismatch."""
        version = data.get("schema_version")
        if version != RESULT_SCHEMA_VERSION:
            raise ReproError(
                f"result schema version {version!r} != {RESULT_SCHEMA_VERSION}"
            )
        shape = data["circuit"]
        if (shape["name"], shape["n_signals"]) != (circuit.name, circuit.n_signals):
            raise ReproError(
                f"serialized result is for {shape['name']!r} "
                f"({shape['n_signals']} signals), not {circuit.name!r} "
                f"({circuit.n_signals} signals)"
            )
        faults = [Fault.from_json(f) for f in data["faults"]]
        statuses = [FaultStatus.from_json_dict(s) for s in data["statuses"]]
        tests = TestSet(circuit, [Test.from_json_dict(t) for t in data["tests"]])
        return AtpgResult(
            circuit=circuit,
            options=AtpgOptions.from_json_dict(data["options"]),
            cssg=CssgSummary(**data["cssg"]),
            faults=faults,
            statuses={s.fault: s for s in statuses},
            tests=tests,
            cpu_seconds=float(data["cpu_seconds"]),
            n_random=int(data["n_random"]),
            n_three_phase=int(data["n_three_phase"]),
            n_fault_sim=int(data["n_fault_sim"]),
            n_undetectable=int(data["n_undetectable"]),
            n_aborted=int(data["n_aborted"]),
        )


def abort_histogram(verdicts: Iterable[Tuple[str, str]]) -> Dict[str, int]:
    """Abort-reason histogram over ``(status, reason)`` verdict pairs,
    reason-sorted; an aborted fault without a reason counts as
    ``"unknown"``."""
    counts: Dict[str, int] = {}
    for status, reason in verdicts:
        if status != DETECTED and status != UNDETECTABLE:
            key = reason or "unknown"
            counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def resolve_cssg_method(circuit: Circuit, opts: AtpgOptions) -> str:
    """The concrete construction method ``opts`` selects for ``circuit``.

    ``"auto"`` picks by state-space size: the hybrid enumerative
    analysis up to ``2**auto_exact_limit`` states (``n_signals <=
    auto_exact_limit``), the symbolic builder above — explicit
    enumeration is hopeless there, BDD image computation is the paper's
    answer."""
    method = opts.cssg_method
    if method == "auto":
        return (
            "hybrid"
            if circuit.n_signals <= opts.auto_exact_limit
            else "symbolic"
        )
    return method


def cssg_for(circuit: Circuit, opts: AtpgOptions) -> Cssg:
    """Build the CSSG exactly as the flow would, resolving the
    ``"auto"`` method by circuit size (:func:`resolve_cssg_method`).
    Exposed so callers that run several option variants of one circuit
    (both fault models, many seeds — the campaign runner) can share one
    construction."""
    return build_cssg(
        circuit,
        k=opts.k,
        max_input_changes=opts.max_input_changes,
        method=resolve_cssg_method(circuit, opts),
    )

