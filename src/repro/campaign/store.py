"""Content-addressed on-disk result cache.

The store files three entry classes under one cache directory, each a
JSON document keyed by content hash::

    <root>/results/<key>.json   whole-job AtpgResult payloads
    <root>/cohorts/<run>.json   one job's cohort partials (a pack)
    <root>/cohorts/index        ``<cohort key> <run>`` rows
    <root>/cssg/<key>.json      CSSGs by structural fingerprint

Keys already encode everything the entry depends on (netlist bytes or
cone sub-netlist, options, code version, schema versions — see
:mod:`repro.campaign.plan` and :mod:`repro.campaign.cohort`), so
invalidation is automatic: any change produces a different key, and
stale entries are simply never addressed again.

Cohort partials are written a job at a time.  A job's whole partition
is one *pack*, filed under the producing job's key; the fields every
partial of the job shares are stored once, at the pack's top level.
The append-only ``cohorts/index`` maps each cohort key to the pack that
holds it, and its latest row wins, so the index is a small log in the
manner of log-structured stores (Rosenblum & Ousterhout, SOSP 1991).

The store is a cache, not a database: a lost entry only costs a
recompute, so it promises *no wrong answer after a crash*, not
durability.  Every entry is its compact JSON body followed by a
checksum trailer, ``<json>\n<crc32 as 8 hex digits>\n`` (compact JSON
has no raw newline, so the last line is always the trailer), and a
read checks the trailer before parsing.  An entry a crash left empty,
zero-filled, cut short or with a flipped byte, and one written before
the trailer existed, all read as misses, and the next put overwrites
it.  So entries are not fsynced.  Writes still go through a temp file
and ``os.replace`` (:func:`repro.obs.export.atomic_write_text`), so
concurrent campaigns — or one campaign's parallel workers — sharing a
cache directory only ever observe one writer's complete entry or a
miss; when several writers race on the same key the last replace
wins.  An index row is appended (one ``O_APPEND`` write per pack)
only after its pack is replaced into place, so every row names a
complete pack or, after a crash, one that fails its checksum; either
way a lost or dangling row is a miss.  A torn or garbage index line,
a row whose pack is gone and a pack without the key all read as
misses, as do corrupt or foreign files.

Caches written before the flat layout filed entries one directory
deeper, under ``<class>/<key[:2]>/``.  Those entries are never read,
but listing, statistics, pruning and ``clear`` still find them.

The store is also a maintainable artifact: :meth:`ResultStore.entries`
/ :meth:`~ResultStore.prune` / :meth:`~ResultStore.prune_plan` /
:meth:`~ResultStore.stats` back the ``repro-cache`` CLI (list, age- and
size-bounded pruning with a per-class dry-run, hit statistics; cohorts
are counted and evicted as whole packs, and pruning compacts the
index), and ``track_stats=True`` appends one ``<class->hit|miss <key>``
line per lookup to ``<root>/stats.log`` (O_APPEND, crash-safe) so
``repro-cache stats`` can report hit rates across runs.  The log is
bounded: past :data:`STATS_LOG_MAX_BYTES` it is compacted into a single
``summary`` line carrying the same tallies (atomic replace; a racing
appender can at worst lose its own line, never corrupt the counts).
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
import zlib
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.obs import metrics as _obs
from repro.obs.export import atomic_write_text

#: Entry classes, in reporting order.
ENTRY_CLASSES = ("results", "cohorts", "cssg")

#: Compact ``stats.log`` once it grows past this many bytes.
STATS_LOG_MAX_BYTES = 256 * 1024

#: (log line prefix, obs counter name) per entry class.
_CLASS_META = {
    "results": ("", "repro_campaign_cache_requests_total"),
    "cohorts": ("cohort-", "repro_campaign_cohort_requests_total"),
    "cssg": ("cssg-", "repro_campaign_cssg_requests_total"),
}

#: One ``cohorts/index`` row: a cohort key and the run key of the pack
#: holding it, or ``-`` once the cohort is deleted.  Matched at the end
#: of a line, so a row appended after a torn one is still found.
_INDEX_ROW = re.compile(r"([0-9a-f]{64}) ([0-9a-f]{64}|-)$")
_DELETED = "-"

#: Bytes of an entry's checksum trailer, ``\n<crc32 as 8 hex>\n``.
_TRAILER = 10


def _trailer(body: bytes) -> bytes:
    return b"\n%08x\n" % zlib.crc32(body)


def _parse(data: bytes) -> Optional[Dict]:
    """The entry ``data`` holds if its checksum trailer matches its
    body, else ``None``."""
    body, trailer = data[:-_TRAILER], data[-_TRAILER:]
    if trailer != _trailer(body):
        return None
    try:
        payload = json.loads(body)
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, or ``$XDG_CACHE_HOME/repro``, or
    ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


class ResultStore:
    """A content-addressed JSON store under one cache directory."""

    def __init__(
        self, root: Union[str, Path, None] = None, track_stats: bool = False
    ):
        self.root = Path(root) if root is not None else default_cache_dir()
        self._results = self.root / "results"
        self._stats_log = self.root / "stats.log" if track_stats else None
        self._index = self._class_dir("cohorts") / "index"
        #: The index as ``{cohort key: run key}``, read up to
        #: ``_index_at``: the index file's ``(inode, bytes consumed)``.
        self._index_rows: Dict[str, str] = {}
        self._index_at: Optional[Tuple[int, int]] = None
        self._index_lock = threading.Lock()
        #: The last pack parsed, as ``(path, the file's (st_ino,
        #: st_size, st_mtime_ns, trailer), pack)`` (see :meth:`_pack`).
        self._last_pack: Optional[Tuple[Path, Tuple, Dict]] = None

    def _class_dir(self, entry_class: str) -> Path:
        return self.root / entry_class

    def path_for(self, key: str, entry_class: str = "results") -> Path:
        return self._class_dir(entry_class) / f"{key}.json"

    # -- lookup statistics ---------------------------------------------

    def _log_lookup(self, outcome: str, key: str, entry_class: str) -> None:
        if self._stats_log is None:
            return
        prefix = _CLASS_META[entry_class][0]
        try:
            size = _append(self._stats_log, f"{prefix}{outcome} {key}\n")
            if size > STATS_LOG_MAX_BYTES:
                self._compact_stats_log()
        except OSError:
            pass  # statistics must never fail a lookup

    def _compact_stats_log(self) -> None:
        """Fold the per-lookup lines into one ``summary`` line.

        Best-effort and lock-free: the tallies are read, summed, and
        atomically replace the log.  A lookup appended between the read
        and the replace loses that one line — an acceptable error for
        monitoring counters, and the file itself can never tear.
        """
        log = self._stats_log
        if log is None:
            return
        counts = self._read_lookup_counts(log)
        parts = []
        for entry_class in ENTRY_CLASSES:
            tag = entry_class if entry_class != "results" else ""
            h, m = counts[entry_class]
            parts.append(f"{tag}{'_' if tag else ''}hits={h}")
            parts.append(f"{tag}{'_' if tag else ''}misses={m}")
        line = "summary " + " ".join(parts) + "\n"
        atomic_write_text(log, line, prefix=".stats-")

    @staticmethod
    def _read_lookup_counts(log: Path) -> Dict[str, List[int]]:
        """Per-class ``[hits, misses]`` from the log, summary lines
        included.  Missing/unreadable log reads as all zeros."""
        counts = {entry_class: [0, 0] for entry_class in ENTRY_CLASSES}
        try:
            with open(log, "r", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("summary "):
                        for token in line.split()[1:]:
                            name, _, value = token.partition("=")
                            try:
                                n = int(value)
                            except ValueError:
                                continue
                            cls, _, kind = name.rpartition("_")
                            cls = cls or "results"
                            if cls in counts and kind in ("hits", "misses"):
                                counts[cls][0 if kind == "hits" else 1] += n
                        continue
                    word = line.split(" ", 1)[0]
                    for entry_class, (prefix, _) in _CLASS_META.items():
                        if word == f"{prefix}hit":
                            counts[entry_class][0] += 1
                        elif word == f"{prefix}miss":
                            counts[entry_class][1] += 1
        except OSError:
            pass
        return counts

    # -- generic class-aware read/write --------------------------------

    @staticmethod
    def _load(path: Path) -> Optional[Dict]:
        """The entry at ``path`` if its checksum trailer matches its
        body, else ``None``."""
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return None
        return _parse(data)

    def _pack(self, path: Path) -> Optional[Dict]:
        """The cohort pack at ``path``, as :meth:`_load` reads it, but
        not parsed again while it is the last pack parsed and its file
        stays the same: the ``(st_ino, st_size, st_mtime_ns)`` of the
        opened file and its checksum trailer must match, so a pack
        another store rewrote under the same run key (a new file,
        replaced into place) is read again.  One pack is enough: a run
        stores all of a partition's partials as one pack, so an
        incremental job's lookups read one pack (at most one per job
        on the ``edit_rerun`` benchmark).  Only packs that pass their checksum
        are kept; the pack is shared, so callers must not mutate it."""
        try:
            with open(path, "rb") as handle:
                fd = handle.fileno()
                st = os.fstat(fd)
                stamp = (
                    st.st_ino,
                    st.st_size,
                    st.st_mtime_ns,
                    os.pread(fd, _TRAILER, max(0, st.st_size - _TRAILER)),
                )
                last = self._last_pack
                if last is not None and last[:2] == (path, stamp):
                    return last[2]
                data = handle.read()
        except OSError:
            return None
        pack = _parse(data)
        self._last_pack = None if pack is None else (path, stamp, pack)
        return pack

    def _read(self, key: str, entry_class: str) -> Optional[Dict]:
        return self._counted(
            self._load(self.path_for(key, entry_class)), key, entry_class
        )

    def _counted(
        self, payload: Optional[Dict], key: str, entry_class: str
    ) -> Optional[Dict]:
        """``payload``, once its lookup is counted as a hit or a miss."""
        outcome = "miss" if payload is None else "hit"
        if _obs.enabled():
            # Keys embed the relevant schema versions, so a raw store
            # hit is a semantic cache hit: nothing stale gets a hit.
            _obs.get_registry().counter(
                _CLASS_META[entry_class][1],
                f"{entry_class.capitalize()}-store lookups, by outcome.",
                ("outcome",),
            ).labels(outcome).inc()
        self._log_lookup(outcome, key, entry_class)
        return payload

    def _write(self, key: str, payload: Dict, entry_class: str) -> Path:
        """The one entry writer: compact JSON plus its checksum trailer,
        through a ``.<key[:8]>-….tmp`` temp file and ``os.replace``,
        without ``fsync``."""
        path = self.path_for(key, entry_class)
        body = json.dumps(payload, separators=(",", ":"))
        atomic_write_text(
            path,
            body + _trailer(body.encode("ascii")).decode("ascii"),
            prefix=f".{key[:8]}-",
            fsync=False,
        )
        return path

    # -- whole-job results (the original store surface) ----------------

    def get(self, key: str) -> Optional[Dict]:
        """The stored payload, or ``None`` (missing or unreadable)."""
        return self._read(key, "results")

    def put(self, key: str, payload: Dict) -> Path:
        """Atomically persist ``payload`` under ``key``.

        The entry carries a checksum and is not fsynced: a crash can
        leave it torn or empty, which reads as a miss, or a stray
        ``.tmp`` (reaped by :meth:`prune`), but never a wrong payload.
        Concurrent same-key writers are safe: each writes its own temp
        file and the last replace wins whole.
        """
        return self._write(key, payload, "results")

    def has(self, key: str) -> bool:
        """Whether :meth:`get` would hit (uncounted): a torn entry is
        absent here too."""
        return self._load(self.path_for(key)) is not None

    def delete(self, key: str) -> bool:
        try:
            self.path_for(key).unlink()
            return True
        except OSError:
            return False

    # -- per-cohort partials (packs + index) and cached CSSGs ----------

    def get_cohort(self, key: str) -> Optional[Dict]:
        """A cached per-cohort partial payload, or ``None``: the pack's
        shared fields merged with the cohort's own, from the pack the
        latest index row names.  Its nested values belong to the
        store's last parsed pack (:meth:`_pack`): read, never mutate
        them."""
        return self._counted(self._find_partial(key), key, "cohorts")

    def put_cohort(self, run_key: str, partials: Dict) -> Path:
        """Persist one job's cohort partials as one pack, then index it.

        ``partials`` carries the fields every partial shares at its top
        level and each cohort's own fields under ``"cohorts"``, keyed by
        cohort key.  The pack is written like every entry (see
        :meth:`put`) and replaced into place before its rows go to the
        index in one ``O_APPEND`` write, so a row never names a pack
        still being written.  Neither is fsynced: after a crash a lost
        row, or a row whose pack fails its checksum, is one miss.
        Returns the pack's path.
        """
        path = self._write(run_key, partials, "cohorts")
        _append(
            self._index,
            "".join(f"{key} {run_key}\n" for key in partials["cohorts"]),
        )
        return path

    def has_cohort(self, key: str) -> bool:
        return self._find_partial(key) is not None

    def delete_cohort(self, key: str) -> bool:
        """Unindex one cohort (its pack stays for the others); later
        lookups of ``key`` miss until a pack holding it is put again."""
        if self._find_partial(key) is None:
            return False
        _append(self._index, f"{key} {_DELETED}\n")
        return True

    def _find_partial(self, key: str) -> Optional[Dict]:
        run = self._read_index().get(key, _DELETED)
        if run == _DELETED:
            return None
        pack = self._pack(self.path_for(run, "cohorts"))
        cohorts = pack.get("cohorts") if pack is not None else None
        own = cohorts.get(key) if isinstance(cohorts, dict) else None
        if not isinstance(own, dict):
            return None
        partial = {name: v for name, v in pack.items() if name != "cohorts"}
        partial.update(own)
        return partial

    def _read_index(self) -> Dict[str, str]:
        """The index rows, with every complete line appended since this
        store last looked read in (an unterminated tail waits for its
        newline).  A compaction replaces the file, so a new inode, or
        one shorter than what was read, is read again from the start."""
        with self._index_lock:
            try:
                fd = os.open(self._index, os.O_RDONLY)
            except OSError:
                self._index_rows, self._index_at = {}, None
                return self._index_rows
            try:
                st = os.fstat(fd)
                inode, done = self._index_at or (None, 0)
                if st.st_ino != inode or st.st_size < done:
                    self._index_rows, done = {}, 0
                data = os.pread(fd, st.st_size - done, done)
            finally:
                os.close(fd)
            end = data.rfind(b"\n") + 1
            for line in data[:end].decode("ascii", "replace").split("\n"):
                row = _INDEX_ROW.search(line)
                if row is not None:
                    self._index_rows[row.group(1)] = row.group(2)
            self._index_at = (st.st_ino, done + end)
            return self._index_rows

    def _compact_index(self) -> None:
        """Rewrite the index as the latest row of each cohort whose pack
        still exists, in one atomic replace.  Lock-free like
        :meth:`_compact_stats_log`: a row appended between the read and
        the replace is lost, which costs its cohort one miss."""
        if not self._index.exists():
            return
        self._index_at = None  # read the whole index afresh
        rows = self._read_index()
        alive: Dict[str, bool] = {}
        for run in rows.values():
            if run not in alive:
                alive[run] = run != _DELETED and os.path.exists(
                    self.path_for(run, "cohorts")
                )
        live = [f"{key} {run}\n" for key, run in rows.items() if alive[run]]
        atomic_write_text(self._index, "".join(live), prefix=".index-")
        self._index_at = None

    def get_cssg(self, key: str) -> Optional[Dict]:
        """A serialized CSSG by structural fingerprint, or ``None``."""
        return self._read(key, "cssg")

    def put_cssg(self, key: str, payload: Dict) -> Path:
        return self._write(key, payload, "cssg")

    # -- enumeration and maintenance -----------------------------------

    def iter_keys(self) -> Iterator[str]:
        if not self._results.exists():
            return
        for path in sorted(self._results.rglob("*.json")):
            yield path.stem

    def class_entries(
        self, entry_class: str
    ) -> List[Tuple[str, Path, int, float]]:
        """One class's entries as ``(key, path, size_bytes, mtime)``,
        oldest first — the order :meth:`prune` evicts in.  Entries of
        the old ``<key[:2]>/`` layout are listed too, so they can be
        counted and evicted, though never read."""
        out: List[Tuple[str, Path, int, float]] = []
        base = self._class_dir(entry_class)
        if not base.exists():
            return out
        for path in base.rglob("*.json"):
            try:
                st = path.stat()
            except OSError:
                continue  # deleted by a concurrent pruner
            out.append((path.stem, path, st.st_size, st.st_mtime))
        out.sort(key=lambda e: (e[3], e[0]))
        return out

    def entries(self) -> List[Tuple[str, Path, int, float]]:
        """The whole-job result entries (see :meth:`class_entries`)."""
        return self.class_entries("results")

    def _doomed(
        self,
        max_age_seconds: Optional[float],
        max_total_bytes: Optional[int],
        now: float,
    ) -> List[Tuple[str, str, Path, int]]:
        """The ``(class, key, path, size)`` list :meth:`prune` would
        evict: age rule first, then oldest-first across every class
        until the remainder fits the size bound."""
        doomed: List[Tuple[str, str, Path, int]] = []
        keep: List[Tuple[float, str, str, Path, int]] = []
        for entry_class in ENTRY_CLASSES:
            for key, path, size, mtime in self.class_entries(entry_class):
                if (
                    max_age_seconds is not None
                    and now - mtime > max_age_seconds
                ):
                    doomed.append((entry_class, key, path, size))
                else:
                    keep.append((mtime, entry_class, key, path, size))
        if max_total_bytes is not None:
            keep.sort(key=lambda e: (e[0], e[2]))
            total = sum(size for _, _, _, _, size in keep)
            for _mtime, entry_class, key, path, size in keep:
                if total <= max_total_bytes:
                    break
                doomed.append((entry_class, key, path, size))
                total -= size
        return doomed

    def prune(
        self,
        max_age_seconds: Optional[float] = None,
        max_total_bytes: Optional[int] = None,
        now: Optional[float] = None,
    ) -> Tuple[int, int]:
        """Evict entries (all classes; cohorts a whole pack at a time)
        older than ``max_age_seconds``, then — oldest first across
        classes — until the store fits ``max_total_bytes``.  Also reaps
        orphaned ``.tmp`` files abandoned by crashed writers, and
        compacts the cohort index.  Returns ``(n_removed, bytes_freed)``.
        """
        now = time.time() if now is None else now
        n_removed, bytes_freed = self._reap_tmp(now)
        for _entry_class, _key, path, size in self._doomed(
            max_age_seconds, max_total_bytes, now
        ):
            try:
                path.unlink()
            except OSError:
                continue
            n_removed += 1
            bytes_freed += size
        self._compact_index()
        return n_removed, bytes_freed

    def _reap_tmp(self, now: float) -> Tuple[int, int]:
        """Remove the ``.tmp`` files crashed writers abandoned, at
        either layout's depth; a temp file under an hour old is
        presumed in flight and spared.  Returns ``(n, bytes)``."""
        n_removed = bytes_freed = 0
        for entry_class in ENTRY_CLASSES:
            for tmp in self._class_dir(entry_class).rglob(".*.tmp"):
                try:
                    st = tmp.stat()
                    if now - st.st_mtime > 3600:
                        tmp.unlink()
                        n_removed += 1
                        bytes_freed += st.st_size
                except OSError:
                    continue
        return n_removed, bytes_freed

    def prune_plan(
        self,
        max_age_seconds: Optional[float] = None,
        max_total_bytes: Optional[int] = None,
        now: Optional[float] = None,
    ) -> Dict[str, Dict[str, int]]:
        """What :meth:`prune` *would* reclaim, per entry class — the
        ``repro-cache prune --dry-run`` report.  Returns
        ``{class: {"n_entries": n, "bytes": b}}`` plus a ``"total"``
        row; nothing is deleted."""
        now = time.time() if now is None else now
        plan = {
            entry_class: {"n_entries": 0, "bytes": 0}
            for entry_class in ENTRY_CLASSES
        }
        for entry_class, _key, _path, size in self._doomed(
            max_age_seconds, max_total_bytes, now
        ):
            plan[entry_class]["n_entries"] += 1
            plan[entry_class]["bytes"] += size
        plan["total"] = {
            "n_entries": sum(p["n_entries"] for p in plan.values()),
            "bytes": sum(p["bytes"] for p in plan.values()),
        }
        return plan

    def stats(self) -> Dict:
        """Store shape + lifetime hit statistics (from ``stats.log``
        when this store tracks them).

        Top-level ``n_entries`` / ``total_bytes`` / ``lookups`` keep
        their historical whole-job-results meaning; the ``classes``
        block breaks shape and lookups down per entry class.
        """
        per_class: Dict[str, Dict] = {}
        for entry_class in ENTRY_CLASSES:
            entries = self.class_entries(entry_class)
            per_class[entry_class] = {
                "n_entries": len(entries),
                "total_bytes": sum(size for _, _, size, _ in entries),
                "oldest_mtime": entries[0][3] if entries else None,
                "newest_mtime": entries[-1][3] if entries else None,
            }
        results = per_class["results"]
        doc: Dict = {
            "root": str(self.root),
            "n_entries": results["n_entries"],
            "total_bytes": results["total_bytes"],
            "oldest_mtime": results["oldest_mtime"],
            "newest_mtime": results["newest_mtime"],
        }
        log = self._stats_log or (self.root / "stats.log")
        counts = self._read_lookup_counts(log)
        for entry_class in ENTRY_CLASSES:
            hits, misses = counts[entry_class]
            per_class[entry_class]["lookups"] = {
                "hits": hits,
                "misses": misses,
                "hit_rate": round(hits / (hits + misses), 4)
                if hits + misses
                else None,
            }
        doc["lookups"] = dict(per_class["results"]["lookups"])
        doc["classes"] = per_class
        return doc

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_keys())

    def clear(self) -> int:
        """Remove every entry in every class, the cohort index, stray
        ``.tmp`` files (as :meth:`prune` does) and the emptied
        directories of the old ``<key[:2]>/`` layout; returns how many
        entries."""
        n = 0
        for entry_class in ENTRY_CLASSES:
            for _key, path, _size, _mtime in self.class_entries(entry_class):
                try:
                    path.unlink()
                    n += 1
                except OSError:
                    continue
        self._reap_tmp(time.time())
        for entry_class in ENTRY_CLASSES:
            for shard in self._class_dir(entry_class).glob("*/"):
                try:
                    shard.rmdir()
                except OSError:
                    continue  # not empty: an in-flight write
        try:
            self._index.unlink()
        except OSError:
            pass
        return n

    def __repr__(self):
        return f"ResultStore({str(self.root)!r})"


def _append(path: Path, text: str) -> int:
    """Append ``text`` to ``path`` in one ``O_APPEND`` write, creating
    the file (and, the first time, its directory); returns the new
    size.  One write is atomic against other appenders on POSIX, so
    concurrent processes interleave whole writes, never parts of them."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_APPEND
    try:
        fd = os.open(path, flags, 0o644)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, flags, 0o644)
    try:
        os.write(fd, text.encode("ascii"))
        return os.fstat(fd).st_size
    finally:
        os.close(fd)
