"""repro — synchronous test pattern generation for asynchronous circuits.

A from-scratch implementation of Roig, Cortadella, Peña and Pastor,
"Automatic Generation of Synchronous Test Patterns for Asynchronous
Circuits", DAC 1997.

Public API quick map:

* circuits — :class:`Circuit`, :func:`parse_netlist`, :func:`load_netlist`
* faults — :class:`Fault`, :func:`fault_universe`, and the fault-model
  registry (:class:`FaultModel`, :func:`get_model`, :func:`model_names`,
  :func:`register_model`): ``input`` / ``output`` stuck-at, ``bridging``
  wired-AND/OR shorts, ``transition`` slow-to-rise/fall
* simulation — :mod:`repro.sim` (ternary + parallel fault simulation)
* state graphs — :func:`settle_report`, :func:`build_cssg` (methods
  exact / ternary / hybrid / symbolic), :class:`SymbolicTcsg`
* BDD kernel — :class:`BddManager` (complement edges, unified ITE, an
  append-only store, a static variable order; the seed manager is a
  test-only oracle)
* STGs — :func:`parse_stg`, :func:`load_stg`, :func:`build_state_graph`,
  :func:`synthesize`
* ATPG flow — :class:`Flow` (staged pipeline; ``Flow.default()`` is the
  paper's collapse → random TPG → 3-phase → compaction), :class:`Budget`
  (the run deadline), :class:`RunContext`, the event stream (plain
  ``{"event": ..., "stage": ..., ...}`` records handed to each run
  listener; see :mod:`repro.flow.context`) and its consumers
  (:class:`ProgressLine`); options/results —
  :class:`AtpgOptions`, :class:`AtpgResult`
* campaigns — :class:`CampaignSpec`, :func:`expand`, :func:`run_campaign`,
  :class:`ResultStore` (sharded corpus runs with a content-addressed
  cache and a per-job timeout)
* benchmarks — :func:`load_benchmark`, :func:`benchmark_names`,
  :data:`TABLE1_NAMES`, :data:`TABLE2_NAMES`

Every facade in the package is lazy (PEP 562, :mod:`repro._lazy`): a
name is imported from its defining module the first time it is read, so
``import repro`` loads nothing else, and a run loads only the modules it
uses.  A ``repro-atpg`` run loads neither the BDD kernel (only the
symbolic CSSG method needs it), nor the campaign package, nor
``multiprocessing`` (only a campaign's worker pool needs it).
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "repro.circuit.netlist": ("Circuit",),
    "repro.circuit.expr": ("Expr", "parse_expr"),
    "repro.circuit.faults": (
        "Fault", "fault_universe", "input_fault_universe", "output_fault_universe",
    ),
    "repro.circuit.parser": ("parse_netlist", "load_netlist", "netlist_to_text"),
    "repro.faultmodels.base": (
        "FaultModel", "get_model", "model_for_kind", "model_names", "register_model",
    ),
    "repro.core.atpg": ("AtpgOptions", "AtpgResult"),
    "repro.core.sequences": ("Test", "TestSet"),
    "repro.core.report": ("format_table", "result_row"),
    "repro.flow.budget": ("Budget",),
    "repro.flow.flow": ("Flow",),
    "repro.flow.consumers": ("ProgressLine",),
    "repro.flow.context": ("RunContext",),
    "repro.flow.stages": ("Stage",),
    "repro.campaign.runner": ("CampaignReport", "JobOutcome", "run_campaign"),
    "repro.campaign.plan": ("CampaignSpec", "Job", "expand"),
    "repro.campaign.store": ("ResultStore",),
    "repro.campaign.artifacts": ("write_artifacts",),
    "repro.bdd.manager": ("BddManager",),
    "repro.sgraph.cssg": ("CSSG_METHODS", "Cssg", "build_cssg"),
    "repro.sgraph.explore": ("SettleReport", "settle_report"),
    "repro.sgraph.symbolic": ("SymbolicTcsg",),
    "repro.stg.petrinet": ("Stg",),
    "repro.stg.reachability": ("StateGraph", "build_state_graph", "check_csc"),
    "repro.stg.parser": ("parse_stg", "load_stg"),
    "repro.stg.synthesis": ("synthesize",),
    "repro.benchmarks_data.registry": (
        "TABLE1_NAMES", "TABLE2_NAMES", "FIGURE_NETS", "benchmark_names",
        "load_benchmark", "load_benchmark_stg", "load_figure_circuit",
    ),
    "repro.errors": ("ReproError",),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
__all__ += ["__version__"]
