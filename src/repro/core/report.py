"""Result tables in the layout of the paper's Tables 1 and 2.

Each row: benchmark name, output stuck-at tot/cov, input stuck-at
tot/cov, then the input-model detections split into the random ("rnd"),
3-phase ("3-ph") and fault-simulation ("sim") steps, and CPU seconds.

:func:`payload_row` is the one row builder: it reads serialized result
payloads, so campaign artifacts (cached payloads) and
:func:`result_row` (live results, serialized first) fill every column
the same way.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.atpg import AtpgResult, abort_histogram


@dataclass
class TableRow:
    """One benchmark line of a Table 1/2-style report.

    ``aborted`` and ``abort_reasons`` surface the flow's abort ledger
    (input-model run): how many faults were given up on and why, e.g.
    ``"budget:3,product-states:1"`` — empty when nothing aborted.

    ``cssg_states`` / ``cssg_edges`` are the constructed graph's size
    and ``cssg_method`` the resolved construction method;
    ``tcsg_states`` is the total test-mode reachable state count (the
    paper-table metric, computed by the symbolic builder; 0 = not
    computed).  ``peak_bdd_nodes`` (every node the append-only kernel
    allocated) and ``image_iters`` profile the symbolic kernel, zero
    for explicit constructions; ``gc_passes`` and ``reorders`` are
    always 0 (the kernel neither collects nor reorders).

    ``models`` carries the coverage of any *non-stuck-at* fault-model
    runs of the variant as compact ``model:covered/total`` entries,
    space-separated — e.g. ``"bridging:140/156 transition:44/46"`` —
    empty when only the paper's two stuck-at universes ran (whose
    counts keep their historical dedicated columns).
    """

    name: str
    out_tot: int
    out_cov: int
    in_tot: int
    in_cov: int
    rnd: int
    three_ph: int
    sim: int
    cpu: float
    aborted: int = 0
    abort_reasons: str = ""
    cssg_method: str = ""
    cssg_states: int = 0
    cssg_edges: int = 0
    tcsg_states: int = 0
    peak_bdd_nodes: int = 0
    gc_passes: int = 0  # always 0 (no GC); kept as a CSV column
    reorders: int = 0  # always 0 (no reordering); kept as a CSV column
    image_iters: int = 0
    models: str = ""

    @property
    def out_fc(self) -> float:
        return self.out_cov / self.out_tot if self.out_tot else 1.0

    @property
    def in_fc(self) -> float:
        return self.in_cov / self.in_tot if self.in_tot else 1.0

    def to_dict(self) -> Dict:
        """Plain-JSON form, derived coverages included, keyed in
        :data:`CSV_COLUMNS` order."""
        return {name: getattr(self, name) for name in CSV_COLUMNS}


def format_model_counts(counts: Dict[str, Sequence[int]]) -> str:
    """Render extra-model coverage as ``model:covered/total`` entries,
    model-name sorted — the :attr:`TableRow.models` column format.

    >>> format_model_counts({"transition": (44, 46), "bridging": (140, 156)})
    'bridging:140/156 transition:44/46'
    """
    return " ".join(
        f"{model}:{covered}/{total}"
        for model, (covered, total) in sorted(counts.items())
    )


def payload_row(
    name: str,
    out_payload: Optional[Dict],
    in_payload: Optional[Dict],
    extra_payloads: Optional[Dict[str, Dict]] = None,
) -> TableRow:
    """One table row from the serialized results
    (:meth:`AtpgResult.to_json_dict`) of a variant's fault-model runs;
    any may be absent.  The two stuck-at runs keep their historical
    dedicated columns; other registered models (``extra_payloads``,
    keyed by model name) fold into the compact ``models`` column.  The
    stored ``n_total`` / ``n_covered`` fields are authoritative; the
    coverage arithmetic lives in :class:`AtpgResult`, not here."""
    extras = extra_payloads or {}
    anchor = in_payload or out_payload or next(iter(extras.values()), {})
    cssg = anchor.get("cssg", {})
    out, inp = out_payload or {}, in_payload or {}
    reasons = abort_histogram(
        (s["status"], s["reason"]) for s in inp.get("statuses", ())
    )
    return TableRow(
        name=name,
        out_tot=out.get("n_total", 0),
        out_cov=out.get("n_covered", 0),
        in_tot=inp.get("n_total", 0),
        in_cov=inp.get("n_covered", 0),
        rnd=inp.get("n_random", 0),
        three_ph=inp.get("n_three_phase", 0),
        sim=inp.get("n_fault_sim", 0),
        cpu=out.get("cpu_seconds", 0.0)
        + inp.get("cpu_seconds", 0.0)
        + sum(p["cpu_seconds"] for p in extras.values()),
        aborted=inp.get("n_aborted", 0),
        abort_reasons=",".join(f"{k}:{v}" for k, v in reasons.items()),
        cssg_method=cssg.get("method", ""),
        cssg_states=cssg.get("n_states", 0),
        cssg_edges=cssg.get("n_edges", 0),
        tcsg_states=cssg.get("n_tcsg_states", 0),
        peak_bdd_nodes=cssg.get("peak_bdd_nodes", 0),
        gc_passes=cssg.get("n_gc_passes", 0),
        reorders=cssg.get("n_reorders", 0),
        image_iters=cssg.get("n_image_iterations", 0),
        models=format_model_counts(
            {m: (p["n_covered"], p["n_total"]) for m, p in extras.items()}
        ),
    )


def result_row(
    name: str,
    output_result: Optional[AtpgResult],
    input_result: AtpgResult,
    extra_results: Optional[Dict[str, AtpgResult]] = None,
) -> TableRow:
    """:func:`payload_row` over live results: combine the fault-model
    runs of one benchmark into a row.  ``extra_results`` maps
    non-stuck-at model names (``bridging``, ``transition``, ...) to
    their results; they land in the compact :attr:`TableRow.models`
    column."""
    return payload_row(
        name,
        output_result.to_json_dict() if output_result else None,
        input_result.to_json_dict(),
        {m: r.to_json_dict() for m, r in (extra_results or {}).items()},
    )


def format_table(rows: Sequence[TableRow], title: str = "") -> str:
    """Render rows in the paper's column layout, plus total FC lines."""
    header = (
        f"{'example':<18} {'o-tot':>6} {'o-cov':>6} {'i-tot':>6} {'i-cov':>6} "
        f"{'rnd':>5} {'3-ph':>5} {'sim':>4} {'CPU(s)':>8}"
    )
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(header)
    lines.append("-" * len(header))
    for r in rows:
        line = (
            f"{r.name:<18} {r.out_tot:>6} {r.out_cov:>6} {r.in_tot:>6} "
            f"{r.in_cov:>6} {r.rnd:>5} {r.three_ph:>5} {r.sim:>4} {r.cpu:>8.2f}"
        )
        if r.models:
            line += f"  {r.models}"  # extra fault-model runs of this variant
        lines.append(line)
    lines.append("-" * len(header))
    out_tot = sum(r.out_tot for r in rows)
    out_cov = sum(r.out_cov for r in rows)
    in_tot = sum(r.in_tot for r in rows)
    in_cov = sum(r.in_cov for r in rows)
    if out_tot:
        lines.append(f"Total output-stuck-at FC: {100.0 * out_cov / out_tot:.2f}%")
    if in_tot:
        lines.append(f"Total input-stuck-at  FC: {100.0 * in_cov / in_tot:.2f}%")
    return "\n".join(lines)


#: Column order of :func:`to_csv`, and the keys of :meth:`TableRow.to_dict`.
CSV_COLUMNS = (
    "name", "out_tot", "out_cov", "out_fc", "in_tot", "in_cov", "in_fc",
    "rnd", "three_ph", "sim", "cpu", "aborted", "abort_reasons",
    "cssg_method", "cssg_states", "cssg_edges", "tcsg_states",
    "peak_bdd_nodes", "gc_passes", "reorders", "image_iters", "models",
)


def to_csv(rows: Sequence[TableRow]) -> str:
    """Render rows as CSV with a header line — the machine-readable twin
    of :func:`format_table`; campaign artifacts use it verbatim."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row.to_dict())
    return buf.getvalue()


def to_json(rows: Sequence[TableRow], indent: Optional[int] = 2) -> str:
    """Render rows as a JSON array of :meth:`TableRow.to_dict` objects."""
    return json.dumps([row.to_dict() for row in rows], indent=indent)
