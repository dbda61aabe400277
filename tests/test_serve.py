"""End-to-end tests for the ``repro-serve`` daemon.

The harness runs a real :class:`~repro.serve.server.ReproServer` —
asyncio loop on a background thread, actual TCP sockets — and drives it
with the stdlib :class:`~repro.serve.client.ServeClient`, exactly the
way a user's script (or the CI smoke job) would.  The inline back end
(``workers=0``) keeps most tests fast and deterministic; one test runs
the fork-worker back end to cover the cross-process event relay.
"""

from __future__ import annotations

import asyncio
import json
import threading
import urllib.request

import pytest

from repro.benchmarks_data import load_benchmark
from repro.campaign.store import ResultStore
from repro.core.atpg import AtpgOptions
from repro.flow import Flow
from repro.serve import QosPolicy, ReproServer, ServeClient
from repro.serve.client import ServeError


class ServerHarness:
    """One live server on an ephemeral port, loop on a daemon thread."""

    def __init__(self, **kwargs):
        self.kwargs = kwargs
        self.server = None
        self.client = None
        self.loop = None
        self._ready = threading.Event()
        self._stopped = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        self.loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self.loop)

        async def main():
            self.server = ReproServer(**self.kwargs)
            host, port = await self.server.start()
            self.client = ServeClient(f"http://{host}:{port}")
            self._ready.set()
            while not self._stopped.is_set():
                await asyncio.sleep(0.02)

        try:
            self.loop.run_until_complete(main())
        finally:
            self.loop.close()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(10), "server failed to start"
        return self

    def call(self, fn, *args, **kwargs):
        """Run a server method on the loop thread and wait for it."""
        done = threading.Event()
        out = {}

        def invoke():
            out["value"] = fn(*args, **kwargs)
            done.set()

        self.loop.call_soon_threadsafe(invoke)
        assert done.wait(10)
        return out["value"]

    def shutdown(self, **kwargs):
        fut = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(**kwargs), self.loop
        )
        fut.result(timeout=60)

    def __exit__(self, *exc):
        if not self._stopped.is_set():
            try:
                self.shutdown(drain=False, drain_timeout=2)
            except Exception:
                pass
        self._stopped.set()
        self._thread.join(timeout=10)
        return False


@pytest.fixture()
def harness(tmp_path):
    store = ResultStore(tmp_path / "cache", track_stats=True)
    with ServerHarness(
        state_dir=tmp_path / "state", store=store, workers=0
    ) as h:
        h.store = store
        yield h


def _direct_payload(benchmark, **options):
    """What ``repro-atpg`` computes for the same submission — the
    identity reference.  Comparison is modulo the two fields that are
    not content: ``cpu_seconds`` (wall clock) and ``telemetry`` (the
    direct run inherits the *server's* ambient metrics registry when it
    executes in the harness process; a served payload never carries
    it)."""
    circuit = load_benchmark(benchmark)
    result = Flow.default().run(circuit, AtpgOptions(**options))
    return _comparable(result.to_json_dict())


def _comparable(payload):
    doc = dict(payload)
    doc.pop("cpu_seconds", None)
    doc.pop("telemetry", None)
    return doc


# -- the tier-1 end-to-end contract -----------------------------------------


def test_e2e_submit_stream_result_matches_direct_run(harness):
    client = harness.client
    assert client.healthz()["status"] == "ok"

    record = client.submit(benchmark="dff", seed=1)
    assert record["state"] in ("queued", "running")

    events = list(client.events(record["id"]))
    kinds = [e["event"] for e in events]
    assert kinds[0] == "StageStarted"
    assert "StageFinished" in kinds
    assert "FaultClassified" in kinds
    assert kinds[-1] == "JobResolved"
    assert events[-1]["state"] == "done"
    # Replay semantics: reconnecting from any offset yields the tail.
    tail = list(client.events(record["id"], start=len(events) - 2))
    assert [e["event"] for e in tail] == kinds[-2:]

    final = client.job(record["id"])
    assert final["state"] == "done"
    payload = client.result(final["key"])
    assert "telemetry" not in payload
    assert _comparable(payload) == _direct_payload("dff", seed=1)


def test_e2e_warm_resubmission_executes_nothing(harness):
    client = harness.client
    first = client.wait(client.submit(benchmark="dff", seed=2)["id"])
    assert first["state"] == "done"
    executed_before = client.healthz()["executed_total"]

    again = client.submit(benchmark="dff", seed=2)
    assert again["state"] == "cached"  # answered at submit time
    assert again["key"] == first["key"]
    assert client.healthz()["executed_total"] == executed_before
    # The cached record still serves the identical payload and a
    # terminal event stream.
    assert client.result(again["key"]) == client.result(first["key"])
    events = list(client.events(again["id"]))
    assert events[-1]["event"] == "JobResolved"

    metrics = client.metrics_text()
    assert 'repro_serve_jobs_total{mode="cached"}' in metrics
    assert 'repro_campaign_cache_requests_total{outcome="hit"}' in metrics


def test_e2e_forked_workers_relay_live_events(tmp_path):
    store = ResultStore(tmp_path / "cache")
    with ServerHarness(
        state_dir=tmp_path / "state", store=store, workers=1
    ) as h:
        record = h.client.submit(benchmark="chu150", seed=3)
        events = list(h.client.events(record["id"]))
        kinds = {e["event"] for e in events}
        assert {"StageStarted", "StageFinished", "JobResolved"} <= kinds
        final = h.client.job(record["id"])
        assert final["state"] == "done"
        payload = h.client.result(final["key"])
        assert "telemetry" not in payload
        assert _comparable(payload) == _direct_payload("chu150", seed=3)


def test_forked_worker_crash_resolves_crashed_and_worker_respawns(
    tmp_path, monkeypatch
):
    from repro.campaign.runner import CRASH_ONCE_ENV

    marker = tmp_path / "crashed-once"
    monkeypatch.setenv(CRASH_ONCE_ENV, f"chu150:{marker}")
    store = ResultStore(tmp_path / "cache")
    with ServerHarness(
        state_dir=tmp_path / "state", store=store, workers=1
    ) as h:
        crashed = h.client.wait(h.client.submit(benchmark="chu150", seed=5)["id"])
        assert marker.exists()  # the simulated crash fired
        assert crashed["state"] == "crashed"
        assert crashed["error"] == "worker process died"
        events = list(h.client.events(crashed["id"]))
        assert events[-1]["event"] == "JobResolved"
        assert events[-1]["state"] == "crashed"
        # The dead worker is replaced; the next submission runs on it.
        done = h.client.wait(h.client.submit(benchmark="chu150", seed=6)["id"])
        assert done["state"] == "done"
        payload = h.client.result(done["key"])
        assert _comparable(payload) == _direct_payload("chu150", seed=6)


def test_inline_netlist_submission_runs_and_caches(harness):
    from pathlib import Path

    import repro.benchmarks_data as bench_data

    net = Path(bench_data.__file__).parent / "net" / "fig1a.net"
    text = net.read_text(encoding="utf-8")
    record = harness.client.wait(
        harness.client.submit(netlist=text, seed=4)["id"]
    )
    assert record["state"] == "done"
    # Resubmitting the same text hits the same spooled file -> cached.
    again = harness.client.submit(netlist=text, seed=4)
    assert again["state"] == "cached"
    assert again["key"] == record["key"]


# -- QoS ---------------------------------------------------------------------


def test_queue_full_and_per_client_limits_yield_429(tmp_path):
    store = ResultStore(tmp_path / "cache")
    with ServerHarness(
        state_dir=tmp_path / "state",
        store=store,
        workers=0,
        qos=QosPolicy(max_queue=2, per_client=1, retry_after_seconds=7),
    ) as h:
        h.call(h.server.pause)  # hold the queue so counts are exact
        h.client.submit(benchmark="dff", seed=10, client="alice")
        with pytest.raises(ServeError) as exc:
            h.client.submit(benchmark="dff", seed=11, client="alice")
        assert exc.value.status == 429
        assert "client concurrency" in exc.value.body["error"]

        h.client.submit(benchmark="dff", seed=12, client="bob")
        with pytest.raises(ServeError) as exc:
            h.client.submit(benchmark="dff", seed=13, client="carol")
        assert exc.value.status == 429
        assert "queue full" in exc.value.body["error"]
        h.call(h.server.resume)


def test_deadline_clamped_into_job_options(tmp_path):
    store = ResultStore(tmp_path / "cache")
    with ServerHarness(
        state_dir=tmp_path / "state",
        store=store,
        workers=0,
        qos=QosPolicy(max_deadline_seconds=30.0),
    ) as h:
        record = h.client.submit(benchmark="dff", seed=5, deadline_seconds=999.0)
        final = h.client.wait(record["id"])
        verbose = h.client.job(final["id"])
        assert verbose["options"]["deadline_seconds"] == 30.0
        # The clamp happened before hashing: a direct submission *at*
        # the clamped deadline shares the cache entry.
        again = h.client.submit(benchmark="dff", seed=5, deadline_seconds=30.0)
        assert again["state"] == "cached"
        assert again["key"] == final["key"]


def test_unknown_fields_and_bad_sources_are_400(harness):
    for body in (
        {"benchmark": "dff", "bogus_field": 1},
        {"benchmark": "dff", "netlist": "x"},
        {},
        {"benchmark": "no-such-benchmark"},
        {"benchmark": "dff", "style": "baroque"},
    ):
        with pytest.raises(ServeError) as exc:
            harness.client.submit(**body)
        assert exc.value.status == 400


def test_out_of_range_options_are_400_naming_the_field(harness):
    for body, field in (
        ({"benchmark": "dff", "k": -1}, "k"),
        ({"benchmark": "dff", "options": {"walk_len": -1}}, "walk_len"),
        ({"benchmark": "dff", "max_input_changes": 0}, "max_input_changes"),
    ):
        with pytest.raises(ServeError) as exc:
            harness.client.submit(**body)
        assert exc.value.status == 400
        assert f"AtpgOptions.{field} must be" in str(exc.value)


# -- coalescing --------------------------------------------------------------


def test_identical_inflight_submissions_coalesce(harness):
    client = harness.client
    harness.call(harness.server.pause)
    primary = client.submit(benchmark="ebergen", seed=6)
    follower = client.submit(benchmark="ebergen", seed=6)
    assert follower["primary_id"] == primary["id"]
    harness.call(harness.server.resume)

    done_primary = client.wait(primary["id"])
    done_follower = client.wait(follower["id"])
    assert done_primary["state"] == "done"
    assert done_follower["state"] == "coalesced"
    # Exactly one execution bought both answers.
    assert client.healthz()["executed_total"] == 1
    # The follower streams the primary's full event log.
    primary_events = list(client.events(primary["id"]))
    follower_events = list(client.events(follower["id"]))
    assert follower_events == primary_events


def test_client_disconnect_mid_stream_leaves_run_and_others_intact(harness):
    client = harness.client
    harness.call(harness.server.pause)
    record = client.submit(benchmark="ebergen", seed=7)

    # Subscriber 1 connects, reads the response head, then hangs up
    # before any events exist.
    url = f"{client.base_url}/jobs/{record['id']}/events"
    early = urllib.request.urlopen(url, timeout=10)
    early.fp.read(0)
    early.close()  # disconnect mid-stream

    harness.call(harness.server.resume)
    # Subscriber 2 still receives the complete stream.
    events = list(client.events(record["id"]))
    assert events[-1]["event"] == "JobResolved"
    assert events[-1]["state"] == "done"
    assert client.wait(record["id"])["state"] == "done"


# -- lifecycle ---------------------------------------------------------------


def test_cancel_queued_job_and_409_for_done(harness):
    client = harness.client
    harness.call(harness.server.pause)
    record = client.submit(benchmark="dff", seed=8)
    cancelled = client.cancel(record["id"])
    assert cancelled["state"] == "cancelled"
    harness.call(harness.server.resume)
    with pytest.raises(ServeError) as exc:
        client.cancel(record["id"])
    assert exc.value.status == 409
    events = list(client.events(record["id"]))
    assert events[-1]["event"] == "JobResolved"


def test_graceful_shutdown_persists_queue_and_restart_restores(tmp_path):
    store = ResultStore(tmp_path / "cache")
    with ServerHarness(
        state_dir=tmp_path / "state", store=store, workers=0
    ) as h:
        h.call(h.server.pause)
        a = h.client.submit(benchmark="dff", seed=20)
        b = h.client.submit(benchmark="chu150", seed=20)
        # Draining servers refuse new work with 503 but still answer
        # status queries.
        h.call(h.server.begin_drain)
        with pytest.raises(ServeError) as exc:
            h.client.submit(benchmark="dff", seed=21)
        assert exc.value.status == 503
        assert h.client.healthz()["status"] == "draining"
        h.shutdown(drain=True, drain_timeout=5)

    queue_file = tmp_path / "state" / "queue.json"
    persisted = json.loads(queue_file.read_text())
    assert {j["id"] for j in persisted["jobs"]} == {a["id"], b["id"]}

    with ServerHarness(
        state_dir=tmp_path / "state", store=store, workers=0
    ) as h2:
        restored = h2.client.jobs()
        assert {j["id"] for j in restored} == {a["id"], b["id"]}
        for job in restored:
            assert h2.client.wait(job["id"])["state"] == "done"
        assert not queue_file.exists()  # consumed on restore


def test_http_surface_basics(harness):
    client = harness.client
    # 404s: unknown route, unknown job, unknown result key.
    for path in ("/nope", "/jobs/j999999", "/results/" + "0" * 64):
        with pytest.raises(ServeError) as exc:
            client._request("GET", path)
        assert exc.value.status == 404
    # 405 names the allowed methods.
    with pytest.raises(ServeError) as exc:
        client._request("DELETE", "/jobs")
    assert exc.value.status == 405
    # Request metrics count by route and status.
    text = client.metrics_text()
    assert 'repro_serve_requests_total{route="/jobs",code="404"}' in text


def test_campaign_submission_expands_to_batch(harness):
    client = harness.client
    doc = client.submit(
        campaign={"benchmarks": ["dff", "chu150"], "seeds": [0, 1]}
    )
    assert len(doc["jobs"]) == 8  # 2 benchmarks x 2 seeds x 2 fault models
    for job in doc["jobs"]:
        final = client.wait(job["id"])
        assert final["state"] in ("done", "cached", "coalesced")
