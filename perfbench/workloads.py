"""The three workloads: inputs drawn from the seed, and one timed pass.

All passes are closed-loop and single-process (``workers=0``, no
threads): the next operation starts when the previous one returns.

* ``table1`` / ``table2`` — the paper's Tables 1 and 2 × the four fault
  models.  One operation is one job (one circuit × one fault model), the
  paper's per-row CPU column.  The registry's ``lru_cache``s are cleared
  before every pass, so every pass pays synthesis as the paper's run
  does, and no result store is used.
* ``edit_rerun`` — the Table-1 circuits as exported ``.net`` netlists.
  Each circuit is primed with one incremental run, then a seeded chain
  of edits; one operation is one edit plus the incremental rerun of both
  stuck-at models, against one fresh :class:`ResultStore` per pass.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.benchmarks_data import TABLE1_NAMES, TABLE2_NAMES, registry
from repro.campaign import plan, runner
from repro.campaign.plan import CampaignSpec
from repro.campaign.store import ResultStore
from repro.circuit.parser import netlist_to_text

WORKLOADS = ("table1", "table2", "edit_rerun")
MODELS = ("input", "output", "bridging", "transition")
#: ``execute_job_incremental`` raises IndexError on an empty fault
#: universe, which bridging has on 20 corpus jobs; edit_rerun keeps to
#: the stuck-at models until that is fixed (see bench_selftest.py).
EDIT_MODELS = ("input", "output")
#: Every circuit gets each edit twice, in a seeded order on seeded
#: targets: a fixed mix keeps the share of CSSG-missing edits (rewrite,
#: splice) the same on every seed.
EDIT_MIX = ("rename", "rewrite", "splice") * 2


@dataclass
class Op:
    """One operation: its latency and what it produced."""

    name: str
    seconds: float
    #: ``(job, payload, live result or None)`` per job the operation ran.
    outputs: List[Tuple[object, Dict, object]] = field(default_factory=list)
    error: str = ""
    #: The edited netlist an edit_rerun operation ran on.
    text: Optional[str] = None
    #: False for a failed priming run: counted as failed, not timed.
    timed: bool = True


@dataclass
class Pass:
    wall_s: float
    ops: List[Op]


@dataclass
class EditInputs:
    base: Dict[str, str]  #: circuit name -> exported ``.net`` text
    #: circuit name -> ``[(op, text)]``; each edit applies to the last.
    edits: Dict[str, List[Tuple[str, str]]]


def spec_for(workload: str, seed: int, netlist_dir: Optional[Path] = None):
    """The campaign a pass of ``workload`` plans."""
    if workload == "table1":
        return CampaignSpec(
            benchmarks=TABLE1_NAMES, styles=("complex",),
            fault_models=MODELS, seeds=(seed,),
        )
    if workload == "table2":
        return CampaignSpec(
            benchmarks=TABLE2_NAMES, styles=("two-level",),
            fault_models=MODELS, seeds=(seed,),
        )
    return CampaignSpec(
        benchmarks=[str(netlist_dir / f"{name}.net") for name in TABLE1_NAMES],
        fault_models=EDIT_MODELS,
        seeds=(seed,),
    )


def clear_registry_caches() -> None:
    registry.load_benchmark.cache_clear()
    registry.load_benchmark_stg.cache_clear()


def make_edit_inputs(seed: int) -> EditInputs:
    """Export every Table-1 circuit and draw its chain of edits."""
    from repro.fuzz.mutate import mutate_netlist

    rng = random.Random(seed)
    base = {
        name: netlist_to_text(registry.load_benchmark(name, "complex"))
        for name in TABLE1_NAMES
    }
    clear_registry_caches()
    edits: Dict[str, List[Tuple[str, str]]] = {}
    for name in TABLE1_NAMES:
        text, chain = base[name], []
        for op in rng.sample(EDIT_MIX, len(EDIT_MIX)):
            mutation = mutate_netlist(text, op, rng)
            if mutation is None:
                raise RuntimeError(f"edit {op!r} does not apply to {name}")
            text = mutation.text
            chain.append((op, text))
        edits[name] = chain
    return EditInputs(base, edits)


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def nothing() -> None:
    pass


def run_table_pass(spec: CampaignSpec, between: Callable[[], None] = nothing) -> Pass:
    """Plan and run every job in-process, sharing one CSSG per circuit.

    ``between`` is called after every operation, outside its latency.
    """
    clear_registry_caches()
    ops: List[Op] = []
    t0 = perf_counter()
    jobs = plan.expand(spec)
    memo: Dict = {}
    group = None
    for job in jobs:
        if job.group != group:
            memo, group = {}, job.group
        start = perf_counter()
        try:
            result = runner.execute_job(job, memo)
            payload = result.to_json_dict()
        except Exception as exc:  # counted in failed_ops; the pass goes on
            ops.append(Op(job.name, perf_counter() - start, error=_failure(exc)))
        else:
            ops.append(Op(job.name, perf_counter() - start, [(job, payload, result)]))
        between()
    return Pass(perf_counter() - t0, ops)


def rerun(path: Path, seed: int, store: ResultStore):
    """Plan one netlist and rerun both stuck-at models incrementally."""
    spec = CampaignSpec(
        benchmarks=[str(path)], fault_models=EDIT_MODELS, seeds=(seed,)
    )
    memo: Dict = {}
    outputs = []
    for job in plan.expand(spec):
        payload, live, _ = runner.execute_job_incremental(job, store, memo)
        outputs.append((job, payload, live))
    return outputs


def run_edit_pass(
    inputs: EditInputs,
    seed: int,
    workdir: Path,
    between: Callable[[], None] = nothing,
) -> Pass:
    """Prime and edit every circuit against one fresh store.

    ``between`` is called after every run, outside its latency.
    """
    root = Path(tempfile.mkdtemp(prefix="pass-", dir=workdir))
    ops: List[Op] = []
    try:
        t0 = perf_counter()
        store = ResultStore(root / "store")
        for name in TABLE1_NAMES:
            path = root / f"{name}.net"
            path.write_text(inputs.base[name])
            try:
                rerun(path, seed, store)
            except Exception as exc:
                ops.append(Op(f"{name}/prime", 0.0, error=_failure(exc), timed=False))
            between()
            for index, (op, text) in enumerate(inputs.edits[name]):
                path.write_text(text)
                label = f"{name}/edit{index}:{op}"
                start = perf_counter()
                try:
                    outputs = rerun(path, seed, store)
                except Exception as exc:
                    seconds = perf_counter() - start
                    ops.append(Op(label, seconds, error=_failure(exc), text=text))
                else:
                    ops.append(Op(label, perf_counter() - start, outputs, text=text))
                between()
        wall = perf_counter() - t0
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return Pass(wall, ops)
