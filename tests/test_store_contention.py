"""Concurrency and maintenance guarantees of the result store.

The contention test is the shared-cache scenario: several *processes*
hammer the same content key (writers re-putting, readers getting) the
way parallel campaign workers and campaigns sharing one cache
directory do.  The store promises last-write-wins with no torn reads —
every ``get`` observes either a miss or one writer's complete payload,
never a mix.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time

import pytest

from repro.campaign import store as store_module
from repro.campaign.store import ENTRY_CLASSES, ResultStore

KEY = "ab" * 32


def _payload(writer_id: int, nonce: int) -> dict:
    """A payload whose integrity is self-checking: ``digest`` hashes
    the body, so any cross-writer mixing or truncation is detectable."""
    body = {"writer": writer_id, "nonce": nonce, "pad": "x" * 2048}
    digest = hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()
    ).hexdigest()
    return {"body": body, "digest": digest}


def _intact(doc: dict) -> bool:
    return doc["digest"] == hashlib.sha256(
        json.dumps(doc["body"], sort_keys=True).encode()
    ).hexdigest()


def _writer(root, writer_id, n_rounds, barrier):
    store = ResultStore(root)
    barrier.wait()
    for nonce in range(n_rounds):
        store.put(KEY, _payload(writer_id, nonce))


def _reader(root, n_rounds, barrier, bad_counter):
    store = ResultStore(root)
    barrier.wait()
    for _ in range(n_rounds):
        doc = store.get(KEY)
        if doc is not None and not _intact(doc):
            with bad_counter.get_lock():
                bad_counter.value += 1


def test_concurrent_same_key_writers_never_tear(tmp_path):
    n_writers, n_readers, n_rounds = 3, 2, 40
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(n_writers + n_readers)
    bad = ctx.Value("i", 0)
    procs = [
        ctx.Process(target=_writer, args=(tmp_path, wid, n_rounds, barrier))
        for wid in range(n_writers)
    ] + [
        ctx.Process(target=_reader, args=(tmp_path, n_rounds, barrier, bad))
        for _ in range(n_readers)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    assert bad.value == 0, f"{bad.value} torn reads observed"
    # Last write wins: the final entry is some writer's complete payload.
    store = ResultStore(tmp_path)
    final = store.get(KEY)
    assert final is not None and _intact(final)
    assert final["body"]["nonce"] == n_rounds - 1
    # No temp-file litter survived the stampede.
    assert not list((tmp_path / "results").glob(".*.tmp"))


# -- maintenance (repro-cache backing) ---------------------------------------


def test_entries_ordered_oldest_first(tmp_path):
    store = ResultStore(tmp_path)
    for i in range(3):
        store.put(f"{i:02d}" + "cd" * 31, {"i": i})
    paths = {key: store.path_for(key) for key in store.iter_keys()}
    now = time.time()
    for i, key in enumerate(sorted(paths)):
        os.utime(paths[key], (now - (3 - i) * 1000,) * 2)
    entries = store.entries()
    assert [e[0][:2] for e in entries] == ["00", "01", "02"]
    assert all(size > 0 for _, _, size, _ in entries)


def test_prune_by_age_and_size(tmp_path):
    store = ResultStore(tmp_path)
    keys = [f"{i:02d}" + "ef" * 31 for i in range(4)]
    for i, key in enumerate(keys):
        store.put(key, {"i": i, "pad": "y" * 500})
    now = time.time()
    # keys[0] is ancient; the rest are spaced a minute apart.
    os.utime(store.path_for(keys[0]), (now - 10 * 86400,) * 2)
    for i, key in enumerate(keys[1:], start=1):
        os.utime(store.path_for(key), (now - (4 - i) * 60,) * 2)

    n, freed = store.prune(max_age_seconds=86400)
    assert n == 1 and freed > 0
    assert not store.has(keys[0]) and all(store.has(k) for k in keys[1:])

    # Size bound evicts oldest-first until the store fits.
    one_entry = store.entries()[0][2]
    n, freed = store.prune(max_total_bytes=one_entry)
    assert n == 2
    assert [e[0] for e in store.entries()] == [keys[3]]


def test_prune_reaps_orphan_tmp_files(tmp_path):
    store = ResultStore(tmp_path)
    store.put(KEY, {"ok": True})
    orphan = store.path_for(KEY).parent / ".deadbeef-stale.tmp"
    orphan.write_text("partial garbage")
    os.utime(orphan, (time.time() - 7200,) * 2)
    fresh = store.path_for(KEY).parent / ".cafecafe-live.tmp"
    fresh.write_text("in-flight write")
    n, _freed = store.prune()
    assert n == 1
    assert not orphan.exists()
    assert fresh.exists()  # recent tmp: presumed in-flight, spared
    assert store.get(KEY) == {"ok": True}


def test_stats_counts_hits_and_misses_across_instances(tmp_path):
    store = ResultStore(tmp_path, track_stats=True)
    store.put(KEY, {"v": 1})
    store.get(KEY)
    store.get("ff" * 32)
    store.get(KEY)
    # A second instance (another process in real life) reads the same log.
    doc = ResultStore(tmp_path).stats()
    assert doc["n_entries"] == 1
    assert doc["lookups"] == {"hits": 2, "misses": 1, "hit_rate": 0.6667}


def test_repro_cache_cli_smoke(tmp_path, capsys):
    from repro.cli import cache_main

    store = ResultStore(tmp_path)
    for i in range(2):
        store.put(f"{i:02d}" + "aa" * 31, {"i": i})

    assert cache_main(["list", "--cache-dir", str(tmp_path)]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 2

    assert cache_main(["stats", "--cache-dir", str(tmp_path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_entries"] == 2

    assert cache_main(
        ["prune", "--cache-dir", str(tmp_path), "--max-size-mb", "0",
         "--dry-run"]
    ) == 0
    assert "would remove 2" in capsys.readouterr().out
    assert len(store) == 2  # dry run removed nothing

    assert cache_main(["prune", "--cache-dir", str(tmp_path)]) == 2  # no bounds
    assert cache_main(["clear", "--cache-dir", str(tmp_path)]) == 0
    assert len(store) == 0


# -- cohort packs and the cohort index -----------------------------------


def _cohort_key(i: int) -> str:
    return f"{i:02x}" + "c0" * 31


def _run_key(i: int) -> str:
    return f"{i:02x}" + "9a" * 31


def _pack(run: str, cohorts, pad: int = 0) -> dict:
    """A pack whose partials each name their producing run, so a partial
    assembled from two packs is detectable."""
    return {
        "run": run,
        "cohorts": {
            key: {"made_by": run, "pad": "z" * pad} for key in cohorts
        },
    }


def test_torn_index_tail_is_ignored_and_later_appends_are_read(tmp_path):
    store = ResultStore(tmp_path)
    store.put_cohort(_run_key(1), _pack(_run_key(1), [_cohort_key(1)]))
    index = tmp_path / "cohorts" / "index"
    with open(index, "a", encoding="ascii") as handle:
        handle.write("not a row at all\n")
        handle.write(f"{_cohort_key(2)} {_run_key(1)[:30]}")  # torn tail
    reader = ResultStore(tmp_path)
    assert reader.get_cohort(_cohort_key(1))["run"] == _run_key(1)
    assert reader.get_cohort(_cohort_key(2)) is None
    # A later put appends behind the torn line; both stores read it.
    ResultStore(tmp_path).put_cohort(
        _run_key(3), _pack(_run_key(3), [_cohort_key(3)])
    )
    for store in (reader, ResultStore(tmp_path)):
        assert store.get_cohort(_cohort_key(3))["run"] == _run_key(3)
        assert store.get_cohort(_cohort_key(1))["run"] == _run_key(1)
        assert store.get_cohort(_cohort_key(2)) is None


def test_index_row_seen_in_part_is_read_once_its_newline_lands(tmp_path):
    """A reader can see an append still in flight: the unterminated
    part waits for its newline instead of being dropped as garbage."""
    store = ResultStore(tmp_path)
    a, b = _cohort_key(1), _cohort_key(2)
    store.put_cohort(_run_key(1), _pack(_run_key(1), [a, b]))
    store.delete_cohort(b)
    row = f"{b} {_run_key(1)}\n"
    with open(tmp_path / "cohorts" / "index", "a", encoding="ascii") as handle:
        handle.write(row[:100])
        handle.flush()
        assert store.get_cohort(b) is None
        handle.write(row[100:])
    assert store.get_cohort(b)["made_by"] == _run_key(1)


def test_row_whose_pack_is_gone_or_deleted_reads_as_a_miss(tmp_path):
    store = ResultStore(tmp_path)
    a, b = _cohort_key(1), _cohort_key(2)
    pack = store.put_cohort(_run_key(1), _pack(_run_key(1), [a, b]))
    assert store.has_cohort(a) and store.has_cohort(b)

    assert store.delete_cohort(a)
    assert not store.delete_cohort(a)  # already gone
    assert store.get_cohort(a) is None and not store.has_cohort(a)
    assert store.get_cohort(b)["made_by"] == _run_key(1)  # pack kept
    assert ResultStore(tmp_path).get_cohort(a) is None

    store.put_cohort(_run_key(1), _pack(_run_key(1), [a, b]))
    assert store.get_cohort(a)["made_by"] == _run_key(1)  # put again

    pack.unlink()
    assert store.get_cohort(a) is None and store.get_cohort(b) is None
    assert not store.has_cohort(b)

    size = store.put_cohort(_run_key(2), _pack(_run_key(2), [a])).stat().st_size
    assert store.get_cohort(a)["made_by"] == _run_key(2)
    pruned = store.prune(max_age_seconds=0.0, now=time.time() + 60)
    assert pruned == (1, size)  # the one pack left; the unlinked is gone
    assert store.get_cohort(a) is None


def test_prune_evicts_whole_packs_and_compacts_the_index(tmp_path):
    store = ResultStore(tmp_path)
    a, b, c = _cohort_key(1), _cohort_key(2), _cohort_key(3)
    old = store.put_cohort(_run_key(1), _pack(_run_key(1), [a, b]))
    store.put_cohort(_run_key(2), _pack(_run_key(2), [b, c]))
    store.delete_cohort(c)
    os.utime(old, (time.time() - 10 * 86400,) * 2)
    assert [e[0] for e in store.class_entries("cohorts")] == [
        _run_key(1), _run_key(2)
    ]

    n, freed = store.prune(max_age_seconds=86400)
    assert n == 1 and freed > 0
    assert [e[0] for e in store.class_entries("cohorts")] == [_run_key(2)]
    # One row per live cohort: a's pack is gone, b's older row was
    # superseded, c was deleted.
    index = (tmp_path / "cohorts" / "index").read_text()
    assert index == f"{b} {_run_key(2)}\n"
    assert store.get_cohort(a) is None
    assert store.get_cohort(b)["made_by"] == _run_key(2)
    assert store.get_cohort(c) is None
    # Appends after the compaction are read by old and new stores.
    store.put_cohort(_run_key(3), _pack(_run_key(3), [a]))
    for reader in (store, ResultStore(tmp_path)):
        assert reader.get_cohort(a)["made_by"] == _run_key(3)
    assert not list((tmp_path / "cohorts").glob(".*.tmp"))


def test_store_sees_its_own_put_cohort_on_its_next_lookup(tmp_path):
    store, other = ResultStore(tmp_path), ResultStore(tmp_path)
    key = _cohort_key(1)
    assert store.get_cohort(key) is None
    store.put_cohort(_run_key(1), _pack(_run_key(1), [key]))
    assert store.get_cohort(key)["run"] == _run_key(1)
    other.put_cohort(_run_key(2), _pack(_run_key(2), [key]))
    assert store.get_cohort(key)["run"] == _run_key(2)  # latest row wins
    store.put_cohort(_run_key(1), _pack(_run_key(1), [key]))
    assert store.get_cohort(key)["run"] == _run_key(1)
    assert other.get_cohort(key)["run"] == _run_key(1)


def test_cohort_lookups_are_counted_on_hit_and_miss(tmp_path):
    from repro.obs import metrics as obs_metrics

    previous = obs_metrics.get_registry()
    registry = obs_metrics.enable(obs_metrics.MetricsRegistry())
    try:
        store = ResultStore(tmp_path, track_stats=True)
        store.put_cohort(_run_key(1), _pack(_run_key(1), [_cohort_key(1)]))
        assert store.get_cohort(_cohort_key(1)) is not None
        assert store.get_cohort(_cohort_key(2)) is None
        assert store.get_cohort(_cohort_key(3)) is None
    finally:
        obs_metrics.disable()
        obs_metrics.set_registry(previous)
    name = "repro_campaign_cohort_requests_total"
    assert registry.value(name, "hit") == 1
    assert registry.value(name, "miss") == 2
    lookups = ResultStore(tmp_path).stats()["classes"]["cohorts"]["lookups"]
    assert (lookups["hits"], lookups["misses"]) == (1, 2)


def _pack_writer(root, writer_id, n_rounds, barrier):
    store = ResultStore(root)
    keys = [_cohort_key(i) for i in range(6)]
    barrier.wait()
    for nonce in range(n_rounds):
        run = _run_key(16 * writer_id + nonce % 16)
        # Overlapping partitions: each writer packs a sliding window.
        window = keys[nonce % 3 : nonce % 3 + 4]
        store.put_cohort(run, _pack(run, window, pad=512))


def _pack_reader(root, n_rounds, barrier, bad_counter):
    store = ResultStore(root)
    barrier.wait()
    for nonce in range(n_rounds):
        for i in range(6):
            doc = store.get_cohort(_cohort_key(i))
            if doc is not None and (
                doc["run"] != doc["made_by"] or len(doc["pad"]) != 512
            ):
                with bad_counter.get_lock():
                    bad_counter.value += 1


def test_concurrent_overlapping_packs_never_mix_runs(tmp_path):
    """Two writers put overlapping partitions at once: every lookup is a
    miss or one complete partial of a single run."""
    n_writers, n_readers, n_rounds = 2, 2, 40
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(n_writers + n_readers)
    bad = ctx.Value("i", 0)
    procs = [
        ctx.Process(
            target=_pack_writer, args=(tmp_path, wid, n_rounds, barrier)
        )
        for wid in range(n_writers)
    ] + [
        ctx.Process(
            target=_pack_reader, args=(tmp_path, n_rounds, barrier, bad)
        )
        for _ in range(n_readers)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    assert bad.value == 0, f"{bad.value} mixed or torn partials observed"
    store = ResultStore(tmp_path)
    rows = (tmp_path / "cohorts" / "index").read_text().splitlines()
    assert len(rows) == n_writers * n_rounds * 4  # no row torn or lost
    for i in range(6):
        doc = store.get_cohort(_cohort_key(i))
        assert doc is not None and doc["run"] == doc["made_by"]
    assert not list((tmp_path / "cohorts").glob(".*.tmp"))


def test_threads_sharing_one_store_agree_with_the_index_file(tmp_path):
    """Threads that put and look up through one store keep its in-memory
    index in step with the file: a lost update would leave the shared
    store answering an older row than a fresh store reads."""
    import sys
    import threading

    store = ResultStore(tmp_path)
    key = _cohort_key(1)
    errors = []

    def work(tid):
        try:
            for nonce in range(25):
                run = _run_key(25 * tid + nonce)
                store.put_cohort(run, _pack(run, [key, _cohort_key(2 + tid)]))
                doc = store.get_cohort(key)
                assert doc is not None and doc["run"] == doc["made_by"]
        except Exception as exc:  # surfaced below, on the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    fresh = ResultStore(tmp_path)
    for k in [key] + [_cohort_key(2 + t) for t in range(4)]:
        assert store.get_cohort(k)["run"] == fresh.get_cohort(k)["run"]


def test_clear_dry_run_counts_every_class(tmp_path, capsys):
    """``repro-cache clear --dry-run`` announces exactly the number of
    entries ``clear`` then removes: results, cohort packs and CSSGs."""
    from repro.cli import cache_main

    store = ResultStore(tmp_path)
    store.put(KEY, {"ok": True})
    run = _run_key(1)
    store.put_cohort(run, _pack(run, [_cohort_key(1), _cohort_key(2)]))
    store.put_cssg("ab" * 32, {"states": 1})

    argv = ["clear", "--cache-dir", str(tmp_path)]
    assert cache_main(argv + ["--dry-run"]) == 0
    assert "would remove 3 entries" in capsys.readouterr().out
    assert cache_main(argv) == 0
    assert "removed 3 entries" in capsys.readouterr().out


# -- crash consistency: every entry checks its own bytes ---------------------


def _put_and_get(store, entry_class):
    """Put one small entry of ``entry_class``; returns the entry's path
    and a lookup that reads it back (``None`` on a miss)."""
    if entry_class == "results":
        return store.put(KEY, {"ok": [1, 2]}), lambda: store.get(KEY)
    if entry_class == "cssg":
        return store.put_cssg(KEY, {"states": 3}), lambda: store.get_cssg(KEY)
    run, cohort = _run_key(1), _cohort_key(1)
    path = store.put_cohort(run, _pack(run, [cohort, _cohort_key(2)]))
    return path, lambda: store.get_cohort(cohort)


@pytest.mark.parametrize("entry_class", ENTRY_CLASSES)
def test_torn_truncated_flipped_or_zeroed_entry_reads_as_a_miss(
    tmp_path, entry_class
):
    """What a crash can leave of an entry written without ``fsync``:
    cut at any byte offset (zero-length included), any one byte
    flipped, or zero-filled.  Each reads as a miss, never a payload."""
    store = ResultStore(tmp_path)
    path, get = _put_and_get(store, entry_class)
    good = path.read_bytes()
    expected = get()
    assert expected is not None
    damaged = [good[:n] for n in range(len(good))]
    damaged += [
        good[:i] + bytes([good[i] ^ mask]) + good[i + 1 :]
        for i in range(len(good))
        for mask in (0x01, 0x80, 0xFF)
    ]
    damaged.append(bytes(len(good)))
    for data in damaged:
        path.write_bytes(data)
        assert get() is None, data
    path.write_bytes(good)
    assert get() == expected


def test_has_agrees_with_get_on_a_torn_entry(tmp_path):
    """``has`` answers what ``get`` would: a cut entry is absent."""
    store = ResultStore(tmp_path)
    path, get = _put_and_get(store, "results")
    assert store.has(KEY)
    path.write_bytes(path.read_bytes()[:-3])
    assert get() is None
    assert not store.has(KEY)


@pytest.mark.parametrize("entry_class", ENTRY_CLASSES)
def test_entry_without_checksum_is_a_miss_until_put_again(
    tmp_path, entry_class
):
    """An entry in the format written before checksums (the bare
    compact JSON) is never trusted, and the next put overwrites it."""
    store = ResultStore(tmp_path)
    path, get = _put_and_get(store, entry_class)
    good, expected = path.read_bytes(), get()
    body = good[: good.rindex(b"\n", 0, -1)]
    json.loads(body)  # the bare body is the old format, still valid JSON
    path.write_bytes(body)
    assert get() is None
    again, get = _put_and_get(store, entry_class)
    assert again == path and path.read_bytes() == good
    assert get() == expected


def test_old_shard_layout_is_listed_counted_evicted_and_cleared(
    tmp_path, capsys
):
    """A cache from before the flat layout kept entries, and crashed
    writers' temp files, one level down in ``<class>/<key[:2]>/``.
    They are never read, but maintenance still finds all of them."""
    from repro.cli import cache_main

    def seed_old_layout():
        old = {}
        for entry_class in ENTRY_CLASSES:
            shard = tmp_path / entry_class / KEY[:2]
            shard.mkdir(parents=True, exist_ok=True)
            old[entry_class] = shard / f"{KEY}.json"
            old[entry_class].write_text('{"old":true}')
            stale = shard / ".abababab-stale.tmp"
            stale.write_text("partial")
            os.utime(stale, (time.time() - 7200,) * 2)
        return old

    store = ResultStore(tmp_path)
    old = seed_old_layout()
    store.put(KEY, {"new": True})
    assert store.get(KEY) == {"new": True}
    assert store.get_cssg(KEY) is None  # the old entry is never read
    for entry_class, path in old.items():
        assert path in [e[1] for e in store.class_entries(entry_class)]
    doc = store.stats()
    assert doc["n_entries"] == len(store) == 2
    assert doc["classes"]["cohorts"]["n_entries"] == 1
    assert doc["classes"]["cssg"]["n_entries"] == 1

    later = time.time() + 60
    plan = store.prune_plan(max_age_seconds=0.0, now=later)
    assert plan["total"]["n_entries"] == 4
    n, _freed = store.prune(max_age_seconds=0.0, now=later)
    assert n == 4 + 3  # four entries, three stale temp files
    assert not list(tmp_path.rglob("*.json"))
    assert not list(tmp_path.rglob("*.tmp"))

    seed_old_layout()
    argv = ["clear", "--cache-dir", str(tmp_path)]
    assert cache_main(argv + ["--dry-run"]) == 0
    assert "would remove 3 entries" in capsys.readouterr().out
    assert cache_main(argv) == 0
    assert "removed 3 entries" in capsys.readouterr().out
    assert not list(tmp_path.rglob("*.json"))
    assert not list(tmp_path.rglob("*.tmp"))
    assert not list(tmp_path.glob("*/*/"))  # the emptied shards are gone



def _counting_parses(monkeypatch):
    """Every entry body the store parses, in order."""
    parses = []
    real = store_module._parse

    def parse(data):
        parses.append(data)
        return real(data)

    monkeypatch.setattr(store_module, "_parse", parse)
    return parses


def test_pack_is_parsed_once_until_another_store_rewrites_it(tmp_path, monkeypatch):
    """A store's cohort lookups parse each pack once; a pack a second
    store rewrites under the same run key, even at the same size, is
    read again."""
    store, other = ResultStore(tmp_path), ResultStore(tmp_path)
    run, a, b = _run_key(1), _cohort_key(1), _cohort_key(2)
    path = store.put_cohort(run, _pack(run, [a, b]))
    parses = _counting_parses(monkeypatch)
    assert store.get_cohort(a)["made_by"] == run
    assert store.get_cohort(b)["made_by"] == run
    assert store.has_cohort(a)
    assert len(parses) == 1
    size = path.stat().st_size
    rewritten = _pack(run, [a, b])
    rewritten["cohorts"][a]["made_by"] = _run_key(2)
    assert other.put_cohort(run, rewritten).stat().st_size == size
    assert store.get_cohort(a)["made_by"] == _run_key(2)
    assert store.get_cohort(b)["made_by"] == run
    assert len(parses) == 2


def test_torn_pack_reads_as_a_miss_after_a_memoised_hit(tmp_path):
    store = ResultStore(tmp_path)
    run, a = _run_key(1), _cohort_key(1)
    path = store.put_cohort(run, _pack(run, [a]))
    assert store.get_cohort(a)["made_by"] == run
    good = path.read_bytes()
    path.write_bytes(good[: len(good) // 2])
    assert store.get_cohort(a) is None
    assert not store.has_cohort(a)
    path.write_bytes(good)
    assert store.get_cohort(a)["made_by"] == run
