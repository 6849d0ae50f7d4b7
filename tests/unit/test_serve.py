"""Unit tests for the evaluation service: job state machine, HTTP API,
cache-counter thread-safety, and explain-on-service-runs."""

import http.client
import json
import threading
import time

import pytest

from repro.engine.cache import SubtreeArtifactCache
from repro.obs import events
from repro.serve import (EvaluationService, InvalidTransition, JobQueue,
                         QueueClosed, QueueFull, SpecError, UnknownJob,
                         make_server)


@pytest.fixture(autouse=True)
def clean_events():
    yield
    events.disable()
    events.disable(local=True)


# ---------------------------------------------------------------------------
# Job queue state machine.

class TestJobQueue:
    def test_submit_claim_finish_lifecycle(self):
        q = JobQueue()
        job = q.submit("evaluate", {"workload": "Bert-S"})
        assert job.state == "queued"
        assert q.depth() == 1
        claimed = q.claim(timeout=1)
        assert claimed is job
        assert job.state == "running"
        assert job.started is not None
        q.finish(job, {"answer": 42})
        assert job.state == "done"
        assert job.result == {"answer": 42}
        assert job.finished is not None
        assert q.by_state()["done"] == 1

    def test_fail_path(self):
        q = JobQueue()
        job = q.submit("evaluate", {})
        q.claim(timeout=1)
        q.fail(job, "boom")
        assert job.state == "failed"
        assert job.error == "boom"

    def test_cancel_only_from_queued(self):
        q = JobQueue()
        job = q.submit("evaluate", {})
        assert q.cancel(job.id) is True
        assert job.state == "cancelled"
        # Cancelled jobs are out of the pending queue.
        assert q.depth() == 0
        # A running job cannot be cancelled.
        job2 = q.submit("evaluate", {})
        q.claim(timeout=1)
        assert q.cancel(job2.id) is False
        assert job2.state == "running"
        with pytest.raises(UnknownJob):
            q.cancel("job-999999")

    def test_invalid_transitions_raise(self):
        q = JobQueue()
        job = q.submit("evaluate", {})
        with pytest.raises(InvalidTransition):
            q.finish(job, {})  # queued, never claimed
        q.claim(timeout=1)
        q.finish(job, {})
        with pytest.raises(InvalidTransition):
            q.fail(job, "late")  # already done

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            JobQueue().submit("compile", {})

    def test_backpressure_and_close(self):
        q = JobQueue(max_queue=2)
        q.submit("evaluate", {})
        q.submit("evaluate", {})
        with pytest.raises(QueueFull):
            q.submit("evaluate", {})
        assert q.rejected_full == 1
        q.close()
        with pytest.raises(QueueClosed):
            q.submit("evaluate", {})
        assert q.rejected_closed == 1
        # Claim drains the backlog, then returns None (worker exit).
        assert q.claim(timeout=1) is not None
        assert q.claim(timeout=1) is not None
        assert q.claim(timeout=1) is None
        assert q.drained() is False  # two jobs still "running"

    def test_event_stream_wait(self):
        q = JobQueue()
        job = q.submit("evaluate", {})
        job.append_event({"kind": "a"})
        fresh, done = job.wait_events(0, timeout=0)
        assert [e["kind"] for e in fresh] == ["a"]
        assert done is False  # job not terminal yet
        q.claim(timeout=1)
        q.finish(job, {})
        fresh, done = job.wait_events(1, timeout=0)
        assert fresh == [] and done is True


# ---------------------------------------------------------------------------
# Spec validation (the HTTP 400 layer).

class TestSpecValidation:
    def test_unknown_workload_arch_dataflow(self):
        svc = EvaluationService()
        with pytest.raises(SpecError):
            svc.validate_spec("evaluate", {"workload": "nope"})
        with pytest.raises(SpecError):
            svc.validate_spec("evaluate", {"workload": "Bert-S",
                                           "arch": "tpu"})
        with pytest.raises(SpecError):
            svc.validate_spec("evaluate", {"workload": "Bert-S",
                                           "dataflow": "nope"})
        with pytest.raises(SpecError):
            svc.validate_spec("sweep", {"workload": "CC1",
                                        "dataflows": ["flat"]})

    def test_search_bounds(self):
        svc = EvaluationService()
        spec = svc.validate_spec("search", {"workload": "Bert-S"})
        assert spec["generations"] >= 1 and spec["samples"] >= 1
        with pytest.raises(SpecError):
            svc.validate_spec("search", {"workload": "Bert-S",
                                         "generations": 0})
        with pytest.raises(SpecError):
            svc.validate_spec("search", {"workload": "Bert-S",
                                         "samples": 10 ** 9})


class TestConstructorFloors:
    @pytest.mark.parametrize("kwargs", [
        {"workers": 0}, {"max_queue": 0}, {"subtree_cache_size": -1}])
    def test_service_rejects_bounds_that_stop_work(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            EvaluationService(**kwargs)

    def test_service_accepts_the_floors(self):
        svc = EvaluationService(workers=1, max_queue=1,
                                subtree_cache_size=0)
        assert (svc.workers, svc.queue.max_queue) == (1, 1)

    def test_make_server_rejects_a_zero_body_cap(self):
        svc = EvaluationService()
        with pytest.raises(ValueError, match="max_body"):
            make_server("127.0.0.1", 0, svc, max_body=0)
        httpd = make_server("127.0.0.1", 0, svc, max_body=1)
        httpd.server_close()
        assert httpd.max_body == 1


class TestTracedService:
    def test_job_streams_carry_only_events_while_serve_traces(self):
        """``repro serve --trace``: job threads' spans and counters go to
        the global profiling bus, never into a job's event stream."""
        from repro import obs
        svc = EvaluationService(workers=2).start()
        try:
            with obs.capture() as trace:
                jobs = [svc.submit("evaluate", {"workload": "Bert-S",
                                                "dataflow": "layerwise"}),
                        svc.submit("search", {
                            "workload": "Bert-S", "generations": 1,
                            "population": 4, "samples": 3})]
                assert svc.wait_drained(timeout=120)
        finally:
            svc.stop(timeout=5)
        for job in jobs:
            assert job.state == "done", job.error
            assert job.events
            assert {e["type"] for e in job.events} == {"event"}
            assert {e["cat"] for e in job.events} <= {"run", "search",
                                                      "cache"}
        recorded = list(trace.records)
        names = {r.name for r in recorded if r.type == "span"}
        assert {"model.evaluate", "mcts.sample"} <= names
        assert obs.fold_counts(recorded)["engine.evaluations"] > 0
        # No event reached the global bus: each job thread's local bus
        # shadows it.
        assert not [r for r in recorded if r.type == "event"]


# ---------------------------------------------------------------------------
# Cache counter thread-safety (satellite: concurrent readers must not
# lose hit/miss increments).

class TestCacheCounterConcurrency:
    def test_concurrent_hits_are_exact(self):
        cache = SubtreeArtifactCache(1024)
        store = cache.store("ns", "slices")
        store.put("k", "v")
        per_thread, threads = 5000, 8

        def hammer():
            for _ in range(per_thread):
                if store.data.get("k") is not None:
                    store.hit()
                store.miss()

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        assert store.hits == per_thread * threads
        assert store.misses == per_thread * threads
        assert cache.counts("ns") == (per_thread * threads,
                                      per_thread * threads)

    def test_concurrent_puts_respect_bound(self):
        cache = SubtreeArtifactCache(64)
        stores = [cache.store("ns", f"k{i}") for i in range(4)]

        def fill(store, base):
            for i in range(200):
                store.put((base, i), i)

        workers = [threading.Thread(target=fill, args=(s, n))
                   for n, s in enumerate(stores)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        live = sum(len(s.data) for s in stores)
        assert live == cache.total <= 64
        assert cache.eviction_count == 4 * 200 - live

    def test_namespace_scoped_counts(self):
        cache = SubtreeArtifactCache(64)
        a = cache.store("nsA", "slices")
        b = cache.store("nsB", "slices")
        a.hit(3), a.miss(1), b.hit(10)
        assert cache.counts("nsA") == (3, 1)
        assert cache.counts("nsB") == (10, 0)
        assert cache.counts() == (13, 1)
        assert cache.counts_by_kind("nsA") == {"slices": (3, 1, 0)}


# ---------------------------------------------------------------------------
# HTTP API via http.client on an ephemeral port.

@pytest.fixture
def server(tmp_path):
    svc = EvaluationService(workers=1, max_queue=4,
                            ledger_root=str(tmp_path / "runs")).start()
    httpd = make_server("127.0.0.1", 0, svc, max_body=2048)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd, svc
    httpd.shutdown()
    httpd.server_close()
    svc.stop(timeout=5)


def _request(httpd, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1",
                                      httpd.server_address[1], timeout=30)
    headers = {}
    data = None
    if body is not None:
        data = json.dumps(body)
        headers["Content-Type"] = "application/json"
    conn.request(method, path, body=data, headers=headers)
    resp = conn.getresponse()
    raw = resp.read()
    conn.close()
    payload = json.loads(raw) if raw else None
    return resp.status, payload, dict(resp.getheaders())


class TestHTTPAPI:
    def test_healthz_and_stats(self, server):
        httpd, _svc = server
        status, payload, _ = _request(httpd, "GET", "/healthz")
        assert status == 200 and payload["status"] == "ok"
        status, payload, _ = _request(httpd, "GET", "/stats")
        assert status == 200
        assert payload["queue"]["max"] == 4
        assert "subtree_cache" in payload

    def test_submit_poll_result(self, server):
        httpd, _svc = server
        status, job, _ = _request(httpd, "POST", "/jobs", {
            "kind": "evaluate",
            "spec": {"workload": "Bert-S", "arch": "edge",
                     "dataflow": "layerwise"}})
        assert status == 202 and job["state"] in ("queued", "running")
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            status, job, _ = _request(httpd, "GET", f"/jobs/{job['id']}")
            if job["state"] in ("done", "failed"):
                break
            time.sleep(0.05)
        assert job["state"] == "done"
        assert job["result"]["feasible"] is True
        assert job["result"]["latency_cycles"] > 0
        assert job["run_id"]  # persisted to the ledger

    def test_events_endpoint_streams_run_framing(self, server):
        httpd, svc = server
        _status, job, _ = _request(httpd, "POST", "/jobs", {
            "kind": "evaluate",
            "spec": {"workload": "Bert-S", "dataflow": "layerwise"}})
        svc.wait_drained(timeout=30)
        conn = http.client.HTTPConnection(
            "127.0.0.1", httpd.server_address[1], timeout=30)
        conn.request("GET", f"/jobs/{job['id']}/events")
        resp = conn.getresponse()
        assert resp.status == 200
        assert resp.getheader("Content-Type") == "application/x-ndjson"
        lines = [json.loads(line) for line in resp.read().splitlines()
                 if line.strip()]
        conn.close()
        kinds = [e["kind"] for e in lines]
        assert kinds[0] == "run.start" and kinds[-1] == "run.end"
        assert all(e["type"] == "event" for e in lines)

    def test_error_statuses(self, server):
        httpd, _svc = server
        # 400: bad spec.
        status, payload, _ = _request(httpd, "POST", "/jobs", {
            "kind": "evaluate", "spec": {"workload": "nope"}})
        assert status == 400 and "nope" in payload["error"]
        # 400: bad kind.
        status, _, _ = _request(httpd, "POST", "/jobs",
                                {"kind": "compile", "spec": {}})
        assert status == 400
        # 404: unknown job / unknown route.
        assert _request(httpd, "GET", "/jobs/job-999999")[0] == 404
        assert _request(httpd, "GET", "/nope")[0] == 404
        # 409: cancel of a finished job.
        _status, job, _ = _request(httpd, "POST", "/jobs", {
            "kind": "evaluate",
            "spec": {"workload": "Bert-S", "dataflow": "layerwise"}})
        _svc.wait_drained(timeout=30)
        assert _request(httpd, "DELETE", f"/jobs/{job['id']}")[0] == 409

    def test_body_cap_and_missing_length(self, server):
        httpd, _svc = server
        # 413: body over the 2 KiB cap.
        big = {"kind": "evaluate",
               "spec": {"workload": "Bert-S", "dataflow": "layerwise",
                        "pad": "x" * 4096}}
        assert _request(httpd, "POST", "/jobs", big)[0] == 413
        # 411: no Content-Length.
        conn = http.client.HTTPConnection(
            "127.0.0.1", httpd.server_address[1], timeout=10)
        conn.putrequest("POST", "/jobs")
        conn.endheaders()
        assert conn.getresponse().status == 411
        conn.close()

    @pytest.mark.parametrize("path", ["/jobs", "/admin/cache/clear"])
    @pytest.mark.parametrize("length", ["-1", "-5"])
    def test_negative_content_length_is_400(self, server, path, length):
        # Answered before any read: rfile.read(-1) would block until the
        # client hangs up, and read(-5) raises and drops the connection.
        httpd, _svc = server
        conn = http.client.HTTPConnection(
            "127.0.0.1", httpd.server_address[1], timeout=5)
        conn.putrequest("POST", path)
        conn.putheader("Content-Length", length)
        conn.endheaders()
        resp = conn.getresponse()
        assert resp.status == 400
        assert "Content-Length" in json.loads(resp.read())["error"]
        conn.close()

    def test_queue_full_returns_429(self, server):
        httpd, svc = server
        # Stall the single worker with a long-ish search, then overfill
        # the 4-slot queue with cheap jobs.
        body = {"kind": "search",
                "spec": {"workload": "Bert-S", "generations": 4,
                         "population": 6, "samples": 20}}
        cheap = {"kind": "evaluate",
                 "spec": {"workload": "Bert-S", "dataflow": "layerwise"}}
        assert _request(httpd, "POST", "/jobs", body)[0] == 202
        statuses = [_request(httpd, "POST", "/jobs", cheap)[0]
                    for _ in range(6)]
        assert 429 in statuses
        assert svc.stats()["queue"]["rejected_full"] >= 1
        svc.wait_drained(timeout=60)

    def test_drain_returns_503_with_retry_after(self, server):
        httpd, svc = server
        assert _request(httpd, "POST", "/admin/drain")[0] == 202
        status, payload, headers = _request(httpd, "POST", "/jobs", {
            "kind": "evaluate",
            "spec": {"workload": "Bert-S", "dataflow": "layerwise"}})
        assert status == 503
        assert "Retry-After" in headers
        status, payload, _ = _request(httpd, "GET", "/healthz")
        assert status == 503 and payload["status"] == "draining"

    def test_cancel_queued_job(self, server):
        httpd, svc = server
        # Block the worker, then cancel a queued successor.
        _request(httpd, "POST", "/jobs", {
            "kind": "search",
            "spec": {"workload": "Bert-S", "generations": 3,
                     "population": 6, "samples": 15}})
        _status, queued, _ = _request(httpd, "POST", "/jobs", {
            "kind": "evaluate",
            "spec": {"workload": "Bert-S", "dataflow": "layerwise"}})
        status, payload, _ = _request(httpd, "DELETE",
                                      f"/jobs/{queued['id']}")
        if status == 200:  # worker had not claimed it yet
            assert payload["state"] == "cancelled"
            status, job, _ = _request(httpd, "GET",
                                      f"/jobs/{queued['id']}")
            assert job["state"] == "cancelled"
        else:  # tiny race: the worker claimed it first
            assert status == 409
        svc.wait_drained(timeout=60)


# ---------------------------------------------------------------------------
# Cache administration: clear_cache semantics, the /admin/cache/clear
# endpoint, and what an evaluate job leaves in the shared cache.

_EVAL_SPEC = {"workload": "Bert-S", "arch": "edge", "dataflow": "layerwise"}


class TestCacheAdmin:
    def test_clear_cache_drops_entries_keeps_counters(self):
        svc = EvaluationService(workers=1).start()
        try:
            svc.submit("evaluate", dict(_EVAL_SPEC))
            assert svc.wait_drained(timeout=30)
            cache = svc.subtree_cache
            assert cache.total > 0 and cache.misses > 0
            misses = cache.misses
            out = svc.clear_cache()
            assert out["cleared"] is True
            assert out["entries_dropped"] > 0
            assert out["counters_reset"] is False
            assert cache.total == 0
            # Lifetime counters deliberately survive a clear...
            assert cache.misses == misses
            # ...and only an explicit reset zeroes them.
            out = svc.clear_cache(reset_counters=True)
            assert out["counters_reset"] is True
            assert cache.counts() == (0, 0)
            assert cache.eviction_count == 0
        finally:
            svc.stop(timeout=5)

    def test_evaluate_job_populates_only_slices_and_walkvol(self):
        from repro import arch, workloads
        from repro.analysis import TileFlowModel
        from repro.dataflows import dataflow_for
        from repro.obs.events import jsonable_cost

        specs = [dict(_EVAL_SPEC), dict(_EVAL_SPEC, dataflow="tileflow"),
                 {"workload": "CC1", "arch": "cloud",
                  "dataflow": "fused_layer"}]
        svc = EvaluationService(workers=1).start()
        try:
            jobs = [svc.submit("evaluate", dict(spec))
                    for spec in specs + specs]
            assert svc.wait_drained(timeout=60)
            stats = svc.stats()["subtree_cache"]
        finally:
            svc.stop(timeout=5)
        # One in-memory tier holding slice geometry and walk volumes.
        assert set(stats["by_kind"]) == {"slices", "walkvol"}
        assert "tiers" not in stats
        assert stats["hits"] > 0
        # Results equal a cache-free model evaluation, cold or warm.
        for job, spec in zip(jobs, specs + specs):
            spec_arch = arch.by_name(spec["arch"])
            tree = dataflow_for(workloads.by_name(spec["workload"]),
                                spec["dataflow"], spec_arch)
            ref = TileFlowModel(spec_arch).evaluate(tree)
            assert job.state == "done", job.error
            assert job.result["latency_cycles"] == jsonable_cost(
                ref.latency_cycles)
            assert job.result["energy_pj"] == jsonable_cost(ref.energy_pj)
            assert job.result["feasible"] == ref.feasible

    def test_http_cache_clear_endpoint(self, server):
        httpd, svc = server
        _request(httpd, "POST", "/jobs",
                 {"kind": "evaluate", "spec": dict(_EVAL_SPEC)})
        assert svc.wait_drained(timeout=30)
        assert svc.subtree_cache.total > 0
        status, payload, _ = _request(httpd, "POST", "/admin/cache/clear",
                                      {"reset_counters": True})
        assert status == 200
        assert payload["cleared"] is True and payload["counters_reset"]
        assert svc.subtree_cache.total == 0
        assert svc.subtree_cache.counts() == (0, 0)
        # The body is optional: no Content-Length is an empty options
        # object here, not a 411 (nothing is required to be said).
        conn = http.client.HTTPConnection(
            "127.0.0.1", httpd.server_address[1], timeout=10)
        conn.putrequest("POST", "/admin/cache/clear")
        conn.endheaders()
        resp = conn.getresponse()
        assert resp.status == 200
        assert json.loads(resp.read())["cleared"] is True
        conn.close()
        # ... and so is an explicit Content-Length: 0 (curl -X POST).
        conn = http.client.HTTPConnection(
            "127.0.0.1", httpd.server_address[1], timeout=10)
        conn.request("POST", "/admin/cache/clear", body=b"")
        resp = conn.getresponse()
        assert resp.status == 200
        assert json.loads(resp.read())["cleared"] is True
        conn.close()


# ---------------------------------------------------------------------------
# explain --run on service-produced manifests (regression: the service
# ledger is a first-class explain source).

class TestExplainServiceRun:
    def test_explain_run_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        svc = EvaluationService(workers=1,
                                ledger_root=str(tmp_path / "runs")).start()
        try:
            job = svc.submit("evaluate", {"workload": "Bert-S",
                                          "arch": "edge",
                                          "dataflow": "layerwise"})
            assert svc.wait_drained(timeout=30)
            assert job.state == "done" and job.run_id
            rc = main(["explain", "--run", job.run_id,
                       "--root", str(tmp_path / "runs"), "--json"])
            assert rc == 0
            report = json.loads(capsys.readouterr().out)
            assert report["workload"] == "Bert-S"
            assert report["result"]["violations"] == []
            assert report["prescreen"]["feasible"] is True
        finally:
            svc.stop(timeout=5)

    def test_slashed_workload_job_is_recorded(self, tmp_path):
        from repro.obs.ledger import RunLedger

        svc = EvaluationService(workers=1,
                                ledger_root=str(tmp_path / "runs")).start()
        try:
            job = svc.submit("evaluate", {"workload": "ViT/16-B",
                                          "arch": "edge",
                                          "dataflow": "layerwise"})
            assert svc.wait_drained(timeout=30)
            assert job.state == "done", job.error
            assert "ViT-16-B" in job.run_id
            assert RunLedger(str(tmp_path / "runs")).run_ids() == [
                job.run_id]
        finally:
            svc.stop(timeout=5)

    def test_explain_search_run_matches_champion(self, tmp_path):
        from repro.obs import explain as explain_mod
        from repro.obs import ledger as ledger_mod

        svc = EvaluationService(workers=1,
                                ledger_root=str(tmp_path / "runs")).start()
        try:
            job = svc.submit("search", {"workload": "Bert-S",
                                        "generations": 2, "population": 4,
                                        "samples": 5})
            assert svc.wait_drained(timeout=120)
            assert job.state == "done"
            manifest = ledger_mod.RunLedger(
                str(tmp_path / "runs")).load(job.run_id)
            tree, arch = explain_mod.tree_from_manifest(manifest)
            # The rebuilt tree is the champion: same genome description.
            assert manifest["champion"]["genome"] in tree.name
        finally:
            svc.stop(timeout=5)

    def test_explain_run_rejects_drifted_fingerprint(self, tmp_path):
        from repro.obs import explain as explain_mod
        from repro.obs.ledger import LedgerError, RunLedger

        ledger = RunLedger(str(tmp_path / "runs"))
        ledger.record({
            "run_id": "r1", "command": "evaluate",
            "workload": {"name": "Bert-S", "fingerprint": "stale"},
            "arch": {"name": "Edge"},
            "champion": {"dataflow": "layerwise"}})
        with pytest.raises(LedgerError, match="fingerprint"):
            explain_mod.tree_from_manifest(ledger.load("r1"))
