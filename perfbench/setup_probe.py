"""One ``setup_s`` sample: ``import repro`` plus job planning, timed in
the fresh process that runs this file.

    python3 perfbench/setup_probe.py WORKLOAD SEED [NETLIST_DIR]

prints the seconds, then this process's host-speed scale (hostspeed.py).
``run.py`` starts several of these and reports the median of their
products.
"""

import sys
from pathlib import Path
from time import perf_counter

t0 = perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro  # noqa: E402,F401
from repro.campaign.plan import expand  # noqa: E402

import workloads  # noqa: E402

#: Reference chunks timed after the sample, after one untimed warm-up.
CHUNKS = 40

if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    netlist_dir = Path(sys.argv[3]) if len(sys.argv) > 3 else None
    expand(workloads.spec_for(workload, seed, netlist_dir))
    seconds = perf_counter() - t0
    import hostspeed

    hostspeed.chunk()
    reference = hostspeed.Reference()
    for _ in range(CHUNKS):
        reference.run_chunk()
    print(seconds, reference.scale())
