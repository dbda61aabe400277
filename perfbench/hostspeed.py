"""Host-speed reference: fixed work timed between a pass's operations.

On a shared host, other tenants slow the whole interpreter, often by a
third or more and for tens of seconds at a time, so a run can sit inside
one slow spell from end to end.  Taking the best of a run's repeats does
not remove that.  Instead, every timed pass interleaves this reference
between its operations, at a fixed share of the pass's time.  The
reference's code never changes, so its slowdown is the host's: timings
are scaled by ``1 / slowdown`` into seconds on a host where one chunk
takes :data:`NOMINAL_CHUNK_S` and one write :data:`NOMINAL_WRITE_S`.

Two kinds of reference work:

* a pure-Python chunk (:func:`chunk`), for interpreter work;
* a store-like file write (:func:`write`: temp file, fsync, rename), for
  workloads that write a result store.  Creating and fsyncing files
  slowed down on its own, by 2x within a dozen edit_rerun passes, while
  the interpreter stayed as fast.

On a 2-core VM, scaling cut the spread of identical passes (interquartile
range over the median) from 0.21 to 0.07 on ``table2``, and from 0.19 to
0.02 on ``edit_rerun`` with writes weighted 0.5 (0.09 without writes).
"""

from __future__ import annotations

import gc
import json
import os
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Optional

#: Seconds one chunk took on a quiet 2-core VM under Python 3.11.
NOMINAL_CHUNK_S = 0.55e-3
#: Seconds one write took there, on ext4.
NOMINAL_WRITE_S = 0.4e-3
#: Share of a pass's work time spent in chunks, and in writes.
CHUNK_SHARE = 0.04
WRITE_SHARE = 0.02

_PAYLOAD = {"faults": [[i, "s-a-0", i * 7 % 13] for i in range(30)]}


def chunk() -> int:
    """Breadth-first search over 10-bit states of weight <= 6: dict, list
    and int work, like the state-graph walks of the program."""
    seen = {0: 0}
    frontier = [0]
    edges = 0
    while frontier and len(seen) < 300:
        nxt = []
        for state in frontier:
            for bit in range(10):
                succ = (state ^ (1 << bit)) & 0x3FF
                if bin(succ).count("1") <= 6 and succ not in seen:
                    seen[succ] = seen[state] + 1
                    nxt.append(succ)
                edges += 1
        frontier = nxt
    return edges


def write(directory: Path, index: int) -> None:
    """One small JSON entry, written as a result store writes one."""
    target = directory / f"{index % 16:02x}"
    target.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(target), suffix=".tmp")
    with os.fdopen(fd, "w", encoding="utf-8") as handle:
        json.dump(_PAYLOAD, handle, separators=(",", ":"))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target / f"{index % 8}.json")


class Reference:
    """The reference work within one pass.

    With a ``write_dir``, writes run there too, and the scale weighs
    their slowdown by ``write_weight`` against the chunks'.
    """

    def __init__(self, write_dir: Optional[Path] = None, write_weight: float = 0.0):
        self.write_dir = write_dir
        self.write_weight = write_weight if write_dir is not None else 0.0
        self.chunk_s = 0.0
        self.chunks = 0
        self.write_s = 0.0
        self.writes = 0
        self._start = perf_counter()

    @property
    def seconds(self) -> float:
        """Time spent in reference work."""
        return self.chunk_s + self.write_s

    def run_chunk(self) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection here would scan the program's heap
        t0 = perf_counter()
        chunk()
        self.chunk_s += perf_counter() - t0
        self.chunks += 1
        if enabled:
            gc.enable()

    def run_write(self) -> None:
        t0 = perf_counter()
        write(self.write_dir, self.writes)
        self.write_s += perf_counter() - t0
        self.writes += 1

    def keep_up(self) -> None:
        """Bring each kind of reference work up to its share of the work
        done since the start."""
        work = perf_counter() - self._start - self.seconds
        while self.chunk_s < CHUNK_SHARE * work or self.chunks == 0:
            self.run_chunk()
        if self.write_dir is not None:
            while self.write_s < WRITE_SHARE * work or self.writes == 0:
                self.run_write()

    def scale(self) -> float:
        """Factor from seconds measured here to reference-host seconds."""
        slowdown = self.chunk_s / self.chunks / NOMINAL_CHUNK_S
        if self.write_weight:
            writes = self.write_s / self.writes / NOMINAL_WRITE_S
            slowdown += self.write_weight * (writes - slowdown)
        return 1.0 / slowdown
