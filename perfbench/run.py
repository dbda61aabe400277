"""perfbench: the paper's Table 1 / Table 2 experiment and the
edit-rerun path, timed end to end and layer by layer.

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.  Human-
readable lines come first; the last line of standard output is one JSON
object.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

# Every pass of a run repeats the same seeded work.  Other tenants of a
# shared host slow it in spells that can outlast a run: identical table2
# passes on a 2-core VM ranged from 2.3 s to 4.8 s within minutes.  So
# every end-to-end time is scaled to the speed of a fixed reference loop
# (hostspeed.py) timed alongside it, and each metric is a median.

MIN_PASSES = 5
#: setup_s samples, each in a fresh process, taken after the timed passes.
SETUP_PROBES = 9
#: Weight of the reference writes on edit_rerun, where store writes take
#: about half of a pass.
EDIT_WRITE_WEIGHT = 0.5

E2E_UNITS = {
    "wall_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def quantile(values: List[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile: the mean of all order
    statistics, weighted by the Beta(p(n+1), (1-p)(n+1)) mass on each one's
    share of [0, 1].  It moves smoothly as operations trade ranks, where a
    single order statistic jumps across the gaps between operations of
    very different cost."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 64  # midpoint-rule steps per order statistic
    total = weight = 0.0
    for k in range(n * steps):
        u = (k + 0.5) / (n * steps)
        w = math.exp((a - 1) * math.log(u) + (b - 1) * math.log1p(-u) - log_beta)
        total += w * xs[k // steps]
        weight += w
    return total / weight


def _filesystem(path: Path) -> str:
    try:
        out = subprocess.run(
            ["stat", "-f", "-c", "%T", str(path)],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _setup_sample(workload: str, seed: int, netlist_dir: Optional[Path]) -> float:
    """``import repro`` + planning, timed in a fresh process and scaled
    by that process's reference loop."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    if netlist_dir is not None:
        cmd.append(str(netlist_dir))
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    seconds, scale = map(float, out.stdout.split()[-2:])
    return seconds * scale


class Run:
    """One benchmark run: warm-up, timed passes, checks, metrics."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.checker = checks.Checker(workload, seed, workdir)
        self.attempted = 0
        self.failures: List[str] = []
        self.mismatches = 0
        self.summary = ""
        self.unbound: List[str] = []
        self.netlist_dir: Optional[Path] = None
        self.write_dir: Optional[Path] = None
        if workload == "edit_rerun":
            self.write_dir = workdir / "reference"
            inputs = workloads.make_edit_inputs(seed)
            self.netlist_dir = workdir / "base"
            self.netlist_dir.mkdir()
            for name, text in inputs.base.items():
                (self.netlist_dir / f"{name}.net").write_text(text)
            self._one_pass = lambda between: workloads.run_edit_pass(
                inputs, seed, workdir, between
            )
        else:
            spec = workloads.spec_for(workload, seed)
            self._one_pass = lambda between: workloads.run_table_pass(spec, between)

    def run_pass(
        self,
        tracer: Optional[layers.Tracer] = None,
        reference: Optional[hostspeed.Reference] = None,
    ):
        """One checked pass; with a ``reference``, its loop runs between
        operations and its time is taken out of ``wall_s``."""
        gc.collect()
        if tracer is not None:
            with layers.installed(tracer):
                result = self._one_pass(workloads.nothing)
        elif reference is not None:
            result = self._one_pass(reference.keep_up)
            result.wall_s -= reference.seconds
        else:
            result = self._one_pass(workloads.nothing)
        self.attempted += len(result.ops)
        self.failures += [f"{op.name}: {op.error}" for op in result.ops if op.error]
        self.mismatches += self.checker.check_pass(result)
        return result

    def end_to_end(self, seconds: float) -> Dict[str, float]:
        walls: List[float] = []
        repeats: Dict[str, List[float]] = defaultdict(list)  # op -> latencies
        scales: List[float] = []
        start = perf_counter()
        while perf_counter() - start < seconds or len(walls) < MIN_PASSES:
            reference = hostspeed.Reference(self.write_dir, EDIT_WRITE_WEIGHT)
            result = self.run_pass(reference=reference)
            scale = reference.scale()
            scales.append(scale)
            walls.append(result.wall_s * scale)
            for op in result.ops:
                if op.timed:
                    repeats[op.name].append(op.seconds * scale)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup = [
            _setup_sample(self.workload, self.seed, self.netlist_dir)
            for _ in range(SETUP_PROBES)
        ]
        # Pooling every repeat would mix each operation's own noise into
        # the steps between operations of very different cost; one median
        # per operation keeps the percentiles on those operations.
        latencies = [statistics.median(times) for times in repeats.values()]
        self.summary = (
            f"passes={len(walls)} ops={len(latencies)} "
            f"host_scale={min(scales):.3f}..{max(scales):.3f}"
        )
        return {
            "wall_s": statistics.median(walls),
            "op_p50_s": quantile(latencies, 0.5),
            "op_p90_s": quantile(latencies, 0.9),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }

    def per_layer(self, seconds: float) -> Dict[str, float]:
        plain: List[float] = []
        traced: List[float] = []
        rows: List[Dict[str, float]] = []
        tracers: List[layers.Tracer] = []
        start = perf_counter()
        while perf_counter() - start < seconds or len(traced) < 2:
            plain.append(self.run_pass().wall_s)
            tracer = layers.Tracer()
            wall = self.run_pass(tracer).wall_s
            traced.append(wall)
            tracers.append(tracer)
            rows.append(layers.layer_metrics(tracer, wall))
        self.unbound = layers.unbound(self.workload, tracers)
        self.summary = f"passes={len(plain)} untraced + {len(traced)} traced"
        metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics["trace.overhead_s"] = overhead
        metrics["trace.unbound_layers"] = len(self.unbound)
        metrics["check.verdict_mismatches"] = self.mismatches
        metrics["check.failed_ops"] = len(self.failures)
        return {name: metrics[name] for name, _, _ in layers.LAYER_METRICS}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    base = ROOT / ".perfbench-work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=base))
    try:
        if trace:
            layers.check_bindings()
        run = Run(workload, seed, workdir)
        run.run_pass()  # warm-up: first-use imports; checked, not timed
        if trace:
            values = run.per_layer(seconds)
            units = {name: unit for name, unit, _ in layers.LAYER_METRICS}
        else:
            values = run.end_to_end(seconds)
            units = E2E_UNITS
        store_fs = _filesystem(workdir) if workload == "edit_rerun" else "none"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass

    print(
        f"perfbench {workload} seed={seed} trace={int(trace)} {run.summary} "
        f"host={platform.node()} python={platform.python_version()} "
        f"nproc={os.cpu_count()} store_fs={store_fs}"
    )
    for name, value in values.items():
        shown = f"{value:14.6f}" if isinstance(value, float) else f"{value:14d}"
        print(f"  {name:32s} {shown} {units[name]}")
    print(f"  {'verdict_mismatches':32s} {run.mismatches:14d} ops")
    print(f"  {'failed_ops':32s} {len(run.failures) / run.attempted:14.6f} share")
    for problem in dict.fromkeys(run.checker.problems + run.failures):
        print(f"  ! {problem}")
    if trace and run.unbound:
        print(f"  ! unbound layers: {', '.join(run.unbound)}")
    return {
        "correct": run.mismatches == 0,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=workloads.WORKLOADS + ("all",)
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
