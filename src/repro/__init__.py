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
* BDD kernel — :class:`BddManager` (complement edges, unified ITE, GC,
  in-place sifting; the seed manager is a test-only oracle)
* STGs — :func:`parse_stg`, :func:`load_stg`, :func:`build_state_graph`,
  :func:`synthesize`
* ATPG flow — :class:`Flow` (staged pipeline; ``Flow.default()`` is the
  paper's collapse → random TPG → 3-phase → compaction), :class:`Budget`
  (the run deadline), :class:`RunContext`, the typed event stream
  (:class:`EventBus`, :mod:`repro.flow.events`) and its consumers
  (:class:`ProgressLine`); options/results —
  :class:`AtpgOptions`, :class:`AtpgResult`
* campaigns — :class:`CampaignSpec`, :func:`expand`, :func:`run_campaign`,
  :class:`ResultStore` (sharded corpus runs with a content-addressed
  cache and a per-job timeout)
* benchmarks — :func:`load_benchmark`, :func:`benchmark_names`,
  :data:`TABLE1_NAMES`, :data:`TABLE2_NAMES`
"""

from repro.circuit import (
    Circuit,
    Expr,
    Fault,
    fault_universe,
    input_fault_universe,
    load_netlist,
    netlist_to_text,
    output_fault_universe,
    parse_expr,
    parse_netlist,
)
from repro.faultmodels import (
    FaultModel,
    get_model,
    model_for_kind,
    model_names,
    register_model,
)
from repro.core import (
    AtpgOptions,
    AtpgResult,
    Test,
    TestSet,
    format_table,
    result_row,
)
from repro.campaign import (
    CampaignReport,
    CampaignSpec,
    Job,
    JobOutcome,
    ResultStore,
    expand,
    run_campaign,
    write_artifacts,
)
from repro.flow import (
    Budget,
    EventBus,
    Flow,
    ProgressLine,
    RunContext,
    Stage,
)
from repro.bdd import BddManager
from repro.sgraph import (
    CSSG_METHODS,
    Cssg,
    SettleReport,
    build_cssg,
    settle_report,
)
from repro.sgraph.symbolic import SymbolicTcsg
from repro.stg import (
    Stg,
    StateGraph,
    build_state_graph,
    check_csc,
    load_stg,
    parse_stg,
    synthesize,
)
from repro.benchmarks_data import (
    FIGURE_NETS,
    TABLE1_NAMES,
    TABLE2_NAMES,
    benchmark_names,
    load_benchmark,
    load_benchmark_stg,
    load_figure_circuit,
)
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "Circuit",
    "Expr",
    "Fault",
    "FaultModel",
    "fault_universe",
    "get_model",
    "model_for_kind",
    "model_names",
    "register_model",
    "input_fault_universe",
    "output_fault_universe",
    "parse_expr",
    "parse_netlist",
    "load_netlist",
    "netlist_to_text",
    "AtpgOptions",
    "AtpgResult",
    "Budget",
    "EventBus",
    "Flow",
    "ProgressLine",
    "RunContext",
    "Stage",
    "Test",
    "TestSet",
    "format_table",
    "result_row",
    "CampaignReport",
    "CampaignSpec",
    "Job",
    "JobOutcome",
    "ResultStore",
    "expand",
    "run_campaign",
    "write_artifacts",
    "BddManager",
    "CSSG_METHODS",
    "Cssg",
    "SettleReport",
    "build_cssg",
    "settle_report",
    "SymbolicTcsg",
    "Stg",
    "StateGraph",
    "build_state_graph",
    "check_csc",
    "parse_stg",
    "load_stg",
    "synthesize",
    "TABLE1_NAMES",
    "TABLE2_NAMES",
    "FIGURE_NETS",
    "benchmark_names",
    "load_benchmark",
    "load_benchmark_stg",
    "load_figure_circuit",
    "ReproError",
    "__version__",
]
