"""Unit tests for the evaluation service: job state machine, HTTP API,
cache-counter thread-safety, and explain-on-service-runs."""

import http.client
import json
import sys
import threading
import time

import pytest

from repro.engine.cache import SubtreeArtifactCache
from repro.obs import events
from repro.serve import (EvaluationService, InvalidTransition, JobQueue,
                         QueueClosed, QueueFull, ServiceClient, SpecError,
                         UnknownJob, make_server)
from repro.serve.http import DEFAULT_MAX_BODY


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


class TestJobEventCap:
    def test_search_job_over_the_cap_keeps_its_end(self, monkeypatch):
        """Past ``MAX_JOB_EVENTS`` a job stores only ``run.end`` and
        counts the rest as dropped."""
        from repro.serve import jobs as jobs_mod
        spec = {"workload": "Bert-S", "generations": 1, "population": 4,
                "samples": 5}
        # No subtree cache: both runs emit the same events.
        svc = EvaluationService(workers=1, subtree_cache_size=0).start()
        try:
            full = svc.submit("search", spec)
            assert svc.wait_drained(timeout=120)
            cap = 10
            monkeypatch.setattr(jobs_mod, "MAX_JOB_EVENTS", cap)
            capped = svc.submit("search", spec)
            assert svc.wait_drained(timeout=120)
        finally:
            svc.stop(timeout=5)
        assert full.state == capped.state == "done", capped.error
        emitted = len(full.events)
        assert full.events_dropped == 0 and emitted > cap + 1
        assert len(capped.events) == cap + 1
        assert capped.events[:cap] == [
            dict(e, t=c["t"]) for e, c in zip(full.events[:cap],
                                              capped.events)]
        assert capped.events[-1]["kind"] == "run.end"
        view = capped.to_dict()
        assert view["events"] == cap + 1
        assert view["events_dropped"] == emitted - cap - 1
        fresh, done = capped.wait_events(0, timeout=0)
        assert done and fresh[-1]["kind"] == "run.end"


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


    def test_registry_family_resolved_from_the_name(self):
        from repro import workloads
        from repro.dataflows import dataflow_names

        svc = EvaluationService()
        names = (sorted(workloads.ATTENTION_SHAPES)
                 + sorted(workloads.CONV_CHAIN_SHAPES))
        for name in names:
            spec = svc.validate_spec("sweep", {"workload": name})
            assert spec["dataflows"] == list(
                dataflow_names(workloads.by_name(name))), name

    def test_registry_names_resolve_without_building(self, monkeypatch):
        from repro.serve import service

        def refuse(name):
            raise AssertionError(f"built {name!r} to validate a spec")

        monkeypatch.setattr(service.workloads_mod, "by_name", refuse)
        monkeypatch.setattr(service.arch_mod, "by_name", refuse)
        svc = EvaluationService()
        spec = svc.validate_spec("evaluate", {"workload": "CC1",
                                              "arch": "Cloud",
                                              "dataflow": "isos"})
        assert (spec["workload"], spec["arch"]) == ("CC1", "Cloud")


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
    def test_job_streams_carry_only_events_while_serve_traces(
            self, tmp_path):
        """``repro serve --trace``: job threads' spans and counters go to
        the global profiling bus, never into a job's event stream."""
        from repro import obs
        svc = EvaluationService(workers=2,
                                ledger_root=str(tmp_path / "runs")).start()
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
        assert {"model.evaluate", "mcts.sample", "serve.validate",
                "serve.tree", "serve.evaluate", "serve.record"} <= names
        assert obs.fold_counts(recorded)["engine.evaluations"] > 0
        # No event reached the global bus: each job thread's local bus
        # shadows it.
        assert not [r for r in recorded if r.type == "event"]


# ---------------------------------------------------------------------------
# Trees and fingerprint digests memoized per engine: results and ledger
# manifests must equal freshly computed ones.

class TestMemoizedTreesAndDigests:
    def test_repeat_jobs_match_fresh_runs_and_fingerprints(self, tmp_path):
        from repro import arch, workloads
        from repro.analysis import TileFlowModel
        from repro.dataflows import dataflow_for
        from repro.engine.signature import (arch_fingerprint, digest,
                                            workload_fingerprint)
        from repro.obs.ledger import RunLedger

        def fresh(workload_name, arch_name, dataflow):
            workload = workloads.by_name(workload_name)
            spec = arch.by_name(arch_name)
            result = TileFlowModel(spec).evaluate(
                dataflow_for(workload, dataflow, spec))
            return (events.jsonable_cost(result.latency_cycles),
                    events.jsonable_cost(result.energy_pj))

        svc = EvaluationService(workers=1,
                                ledger_root=str(tmp_path / "runs")).start()
        try:
            specs = [{"workload": "Bert-S", "dataflow": "flat_hgran"},
                     {"workload": "Bert-S", "dataflow": "flat_hgran"},
                     {"workload": "CC1", "arch": "EDGE",
                      "dataflow": "isos"},
                     {"workload": "CC1", "arch": "edge",
                      "dataflow": "isos"}]
            jobs = [svc.submit("evaluate", spec) for spec in specs]
            sweep = svc.submit("sweep", {"workload": "Bert-S"})
            assert svc.wait_drained(timeout=120)
            slot = svc.engine_for("CC1", "EDGE")
            assert slot is svc.engine_for("CC1", "edge")
            assert list(slot.trees) == ["isos"]
        finally:
            svc.stop(timeout=5)

        ledger = RunLedger(str(tmp_path / "runs"))
        for spec, job in zip(specs, jobs):
            assert job.state == "done", job.error
            arch_name = spec.get("arch", "edge")
            result = job.result
            assert (result["latency_cycles"], result["energy_pj"]) == fresh(
                spec["workload"], arch_name, spec["dataflow"])
            manifest = ledger.load(job.run_id)
            engine = svc.engine_for(spec["workload"], arch_name).engine
            assert manifest["workload"]["fingerprint"] == digest(
                workload_fingerprint(workloads.by_name(spec["workload"])))
            assert manifest["arch"]["fingerprint"] == digest(
                arch_fingerprint(arch.by_name(arch_name)))
            assert manifest["namespace"] == digest(engine._base)
        # The sweep ran on the engine (and the "flat_hgran" tree) the
        # evaluate jobs warmed, and every row equals a fresh run.
        assert sweep.state == "done", sweep.error
        for row in sweep.result["rows"]:
            assert row["latency_cycles"] == fresh(
                "Bert-S", "edge", row["dataflow"])[0], row["dataflow"]


# ---------------------------------------------------------------------------
# Kept results: each slot evaluates a dataflow once; later evaluate jobs
# and sweep rows reuse the result and must answer as a fresh engine does.

def _fresh(workload_name, arch_name, dataflow):
    """(latency_cycles, energy_pj, feasible) of a fresh engine's
    evaluation of the named dataflow, as the service reports them."""
    from repro import arch, workloads
    from repro.dataflows import dataflow_for
    from repro.engine import EvaluationEngine

    workload = workloads.by_name(workload_name)
    spec = arch.by_name(arch_name)
    result = EvaluationEngine(workload, spec).evaluate_tree(
        dataflow_for(workload, dataflow, spec))
    return (events.jsonable_cost(result.latency_cycles),
            events.jsonable_cost(result.energy_pj), result.feasible)


class TestKeptResults:
    def test_sweep_after_evaluates_reuses_their_results(self):
        names = ["layerwise", "tileflow", "flat_hgran"]
        svc = EvaluationService(workers=1).start()
        try:
            evals = [svc.submit("evaluate", dict(_EVAL_SPEC, dataflow=n))
                     for n in names[:2]]
            sweep = svc.submit("sweep", {"workload": "Bert-S",
                                         "dataflows": names})
            again = svc.submit("sweep", {"workload": "Bert-S",
                                         "dataflows": names})
            assert svc.wait_drained(timeout=60)
            slot = svc.engine_for("Bert-S", "edge")
            assert sorted(slot.results) == sorted(names)
        finally:
            svc.stop(timeout=5)
        for job in evals + [sweep, again]:
            assert job.state == "done", job.error
        # The sweep ran the engine only for the dataflow no evaluate job
        # had named; the repeat sweep ran it for none.
        assert sweep.result["counters"]["evaluations"] == 1
        assert set(again.result["counters"].values()) == {0}
        for job in evals:
            row = next(r for r in sweep.result["rows"]
                       if r["dataflow"] == job.result["dataflow"])
            assert (row["latency_cycles"], row["cost"],
                    row["feasible"]) == (job.result["latency_cycles"],
                                         job.result["cost"],
                                         job.result["feasible"])
        assert again.result["rows"] == sweep.result["rows"]
        for row in sweep.result["rows"]:
            latency, _energy, feasible = _fresh("Bert-S", "edge",
                                                row["dataflow"])
            assert (row["latency_cycles"], row["feasible"]) == (
                latency, feasible), row["dataflow"]

    def test_every_registry_spec_cold_and_reused_matches_fresh(self):
        from repro import workloads
        from repro.dataflows import dataflow_names

        specs = [{"workload": w, "arch": a, "dataflow": d}
                 for w in (list(workloads.ATTENTION_SHAPES)
                           + list(workloads.CONV_CHAIN_SHAPES))
                 for a in ("edge", "cloud")
                 for d in dataflow_names(workloads.by_name(w))]
        assert len(specs) == 172
        svc = EvaluationService(workers=2, max_queue=len(specs)).start()
        try:
            rounds = []
            for _ in range(2):
                rounds.append([svc.submit("evaluate", dict(spec))
                               for spec in specs])
                assert svc.wait_drained(timeout=300)
        finally:
            svc.stop(timeout=5)
        cold, reused = rounds
        for spec, first, second in zip(specs, cold, reused):
            assert first.state == "done", (spec, first.error)
            assert second.state == "done", (spec, second.error)
            assert first.result["counters"]["evaluations"] == 1, spec
            assert set(second.result["counters"].values()) == {0}, spec
            expected = _fresh(spec["workload"], spec["arch"],
                              spec["dataflow"])
            for job in (first, second):
                assert (job.result["latency_cycles"],
                        job.result["energy_pj"],
                        job.result["feasible"]) == expected, spec


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


def _post_raw(httpd, path, raw: bytes):
    conn = http.client.HTTPConnection("127.0.0.1",
                                      httpd.server_address[1], timeout=30)
    conn.request("POST", path, body=raw,
                 headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    payload = json.loads(resp.read())
    conn.close()
    return resp.status, payload


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

    def test_client_disconnecting_mid_stream(self, server):
        """Fault injection: a follower hangs up after the first event
        line; the job, its ledger run and the worker are unaffected."""
        import socket

        httpd, svc = server
        _status, job, _ = _request(httpd, "POST", "/jobs", {
            "kind": "search",
            "spec": {"workload": "Bert-S", "generations": 2,
                     "population": 4, "samples": 10}})
        sock = socket.create_connection(
            ("127.0.0.1", httpd.server_address[1]), timeout=30)
        sock.sendall(f"GET /jobs/{job['id']}/events?follow=1 HTTP/1.0"
                     f"\r\n\r\n".encode())
        received = b""
        while b"\n" not in received.partition(b"\r\n\r\n")[2]:
            chunk = sock.recv(4096)
            assert chunk, "stream closed before the first event line"
            received += chunk
        sock.close()
        assert svc.wait_drained(timeout=120)
        record = _request(httpd, "GET", f"/jobs/{job['id']}")[1]
        assert record["state"] == "done" and record["run_id"]
        assert all(t.is_alive() for t in svc._threads)
        _status, nxt, _ = _request(httpd, "POST", "/jobs", {
            "kind": "evaluate",
            "spec": {"workload": "Bert-S", "dataflow": "layerwise"}})
        assert svc.wait_drained(timeout=60)
        record = _request(httpd, "GET", f"/jobs/{nxt['id']}")[1]
        assert record["state"] == "done" and record["run_id"]

    def test_body_stalled_mid_way_is_dropped(self, server, monkeypatch):
        """Fault injection: a client sends part of a body shorter than
        its Content-Length and stalls.  The handler's socket timeout
        closes that connection, and the server keeps serving."""
        import socket

        from repro.serve.http import (SOCKET_TIMEOUT_S,
                                      ServiceRequestHandler)

        # Every connection gets the timeout; shortened here to keep the
        # test fast.
        assert ServiceRequestHandler.timeout == SOCKET_TIMEOUT_S > 0
        monkeypatch.setattr(ServiceRequestHandler, "timeout", 0.3)
        httpd, svc = server
        body = json.dumps({"kind": "evaluate",
                           "spec": dict(_EVAL_SPEC)}).encode()
        sock = socket.create_connection(
            ("127.0.0.1", httpd.server_address[1]), timeout=10)
        sock.sendall(b"POST /jobs HTTP/1.0\r\nContent-Length: "
                     + str(len(body)).encode() + b"\r\n\r\n"
                     + body[:len(body) // 2])
        start = time.monotonic()
        assert sock.recv(4096) == b""  # closed, with no response
        assert time.monotonic() - start < 5
        sock.close()
        assert svc.queue.jobs() == []
        status, job, _ = _request(httpd, "POST", "/jobs", {
            "kind": "evaluate", "spec": dict(_EVAL_SPEC)})
        assert status == 202
        assert svc.wait_drained(timeout=30)
        assert svc.queue.get(job["id"]).state == "done"

    def test_request_trickling_in_is_dropped(self, server, monkeypatch):
        """Fault injection: a client sends its request a byte every
        0.2 s.  The request line, headers and body share one deadline,
        so the connection is closed without a response although no
        single read stalls, no job is created, and the server keeps
        serving."""
        import select
        import socket

        from repro.serve.http import ServiceRequestHandler

        monkeypatch.setattr(ServiceRequestHandler, "timeout", 1.0)
        httpd, svc = server
        body = json.dumps({"kind": "evaluate",
                           "spec": dict(_EVAL_SPEC)}).encode()
        request = (b"POST /jobs HTTP/1.0\r\nContent-Length: "
                   + str(len(body)).encode() + b"\r\n\r\n" + body)
        sock = socket.create_connection(
            ("127.0.0.1", httpd.server_address[1]), timeout=10)
        start = time.monotonic()
        received, closed = b"", False
        try:
            for byte in request:
                if time.monotonic() - start > 5:
                    break
                sock.sendall(bytes([byte]))
                ready, _, _ = select.select([sock], [], [], 0.2)
                if ready:
                    chunk = sock.recv(4096)
                    received += chunk
                    if not chunk:
                        closed = True
                        break
        except (BrokenPipeError, ConnectionResetError):
            closed = True
        finally:
            sock.close()
        assert closed and received == b""
        assert time.monotonic() - start < 5
        assert svc.queue.jobs() == []
        status, job, _ = _request(httpd, "POST", "/jobs", {
            "kind": "evaluate", "spec": dict(_EVAL_SPEC)})
        assert status == 202
        assert svc.wait_drained(timeout=30)
        assert svc.queue.get(job["id"]).state == "done"

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

    def _post_with_headers(self, httpd, path, headers, body):
        """(status, payload) of a POST carrying exactly ``headers``
        (repeats included) and ``body``."""
        conn = http.client.HTTPConnection(
            "127.0.0.1", httpd.server_address[1], timeout=10)
        conn.putrequest("POST", path)
        for name, value in headers:
            conn.putheader(name, value)
        conn.endheaders(body)
        resp = conn.getresponse()
        payload = json.loads(resp.read())
        conn.close()
        return resp.status, payload

    _JOB = json.dumps({"kind": "evaluate",
                       "spec": {"workload": "Bert-S",
                                "dataflow": "layerwise"}}).encode()

    @pytest.mark.parametrize("path", ["/jobs", "/admin/cache/clear"])
    @pytest.mark.parametrize("lengths", [
        lambda n: [f"+{n}"],
        lambda n: ["_".join(str(n))],
        lambda n: [f"{n}.0"],
        lambda n: [str(n), str(n + 1)],
        lambda n: [str(n), ""],
    ], ids=["plus-sign", "underscores", "decimal", "conflicting-repeat",
            "empty-repeat"])
    def test_malformed_content_length_is_400(self, server, path, lengths):
        # int() reads "+70" and "7_0" as 70, and the first of two
        # differing headers used to win: each is refused before any
        # body byte is read, and no job is queued.
        httpd, svc = server
        status, payload = self._post_with_headers(
            httpd, path, [("Content-Length", v)
                          for v in lengths(len(self._JOB))], self._JOB)
        assert status == 400
        assert "Content-Length" in payload["error"]
        assert _request(httpd, "GET", "/jobs")[1] == {"jobs": []}

    def test_equal_repeated_content_length_is_accepted(self, server):
        httpd, svc = server
        n = str(len(self._JOB))
        status, payload = self._post_with_headers(
            httpd, "/jobs", [("Content-Length", n), ("Content-Length", n)],
            self._JOB)
        assert status == 202 and payload["kind"] == "evaluate"
        assert svc.wait_drained(timeout=30)

    @pytest.mark.parametrize("path", ["/jobs", "/admin/cache/clear"])
    @pytest.mark.parametrize("with_length", [True, False])
    def test_transfer_encoding_is_501(self, server, path, with_length):
        httpd, _svc = server
        chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(self._JOB), self._JOB)
        headers = [("Transfer-Encoding", "chunked")]
        if with_length:
            headers.append(("Content-Length", str(len(self._JOB))))
        status, payload = self._post_with_headers(httpd, path, headers,
                                                  chunked)
        assert status == 501
        assert "Transfer-Encoding" in payload["error"]
        assert _request(httpd, "GET", "/jobs")[1] == {"jobs": []}

    @pytest.mark.parametrize("raw", [
        b"[" * 30000 + b"]" * 30000,
        b'{"kind": "search", "spec": {"seed": ' + b"1" * 5000 + b"}}",
    ], ids=["nested-30000-deep", "integer-5000-digits"])
    def test_unparseable_json_within_the_cap_is_400(self, server, raw):
        httpd, svc = server
        httpd.max_body = DEFAULT_MAX_BODY
        assert len(raw) <= httpd.max_body
        status, payload = _post_raw(httpd, "/jobs", raw)
        assert status == 400
        assert "body is not valid JSON" in payload["error"]
        assert _request(httpd, "GET", "/jobs")[1] == {"jobs": []}
        assert _request(httpd, "GET", "/healthz")[0] == 200

    @pytest.mark.parametrize("field,literal", [
        ("generations", b"1e400"), ("population", b"1e400"),
        ("samples", b"-1e400"), ("seed", b"Infinity")])
    def test_infinite_integer_field_is_400(self, server, field, literal):
        httpd, svc = server
        raw = (b'{"kind": "search", "spec": {"workload": "Bert-S", "'
               + field.encode() + b'": ' + literal + b"}}")
        status, payload = _post_raw(httpd, "/jobs", raw)
        assert status == 400 and field in payload["error"]
        assert _request(httpd, "GET", "/jobs")[1] == {"jobs": []}

    def test_queue_full_returns_429(self, server, monkeypatch):
        httpd, svc = server
        # Hold the single worker on its first job until the POSTs are
        # done, then overfill the 4-slot queue with cheap jobs.
        claimed, release = threading.Event(), threading.Event()
        execute = svc._execute

        def held(job):
            claimed.set()
            assert release.wait(timeout=60)
            return execute(job)

        monkeypatch.setattr(svc, "_execute", held)
        cheap = {"kind": "evaluate",
                 "spec": {"workload": "Bert-S", "dataflow": "layerwise"}}
        try:
            assert _request(httpd, "POST", "/jobs", cheap)[0] == 202
            assert claimed.wait(timeout=30)
            statuses = [_request(httpd, "POST", "/jobs", cheap)[0]
                        for _ in range(6)]
        finally:
            release.set()
        assert statuses == [202] * 4 + [429] * 2
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
# Keep-alive: one connection per client, and what must close it.

def _count_connections(httpd):
    """The list of client addresses the server accepts from now on."""
    accepted = []
    get_request = httpd.get_request

    def counting():
        request = get_request()
        accepted.append(request[1])
        return request

    httpd.get_request = counting
    return accepted


def _client(httpd, **kwargs) -> ServiceClient:
    return ServiceClient(f"http://127.0.0.1:{httpd.server_address[1]}",
                         **kwargs)


def _exchange(httpd, raw: bytes) -> bytes:
    """Send ``raw`` on a fresh socket; everything received until the
    server closes the connection (a reset after it ends the read too)."""
    import socket

    sock = socket.create_connection(
        ("127.0.0.1", httpd.server_address[1]), timeout=10)
    received = b""
    try:
        sock.sendall(raw)
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            received += chunk
    except ConnectionResetError:
        pass
    finally:
        sock.close()
    return received


@pytest.fixture
def idle_server():
    """An HTTP server over a service whose workers never start, so a
    submitted job stays queued."""
    svc = EvaluationService(workers=1, max_queue=4)
    httpd = make_server("127.0.0.1", 0, svc, max_body=2048)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd, svc
    httpd.shutdown()
    httpd.server_close()
    svc.stop(timeout=5)


class TestKeepAlive:
    def test_one_client_thread_uses_one_connection(self, server):
        httpd, _svc = server
        accepted = _count_connections(httpd)
        client = _client(httpd)
        for _ in range(5):
            job = client.submit("evaluate", dict(_EVAL_SPEC))
            kinds = [e["kind"] for e in client.watch(job["id"])]
            assert kinds[0] == "run.start" and kinds[-1] == "run.end"
            assert client.status(job["id"])["state"] == "done"
        client.close()
        assert len(accepted) == 1

    def test_events_stream_is_chunked_on_a_kept_alive_connection(
            self, server):
        httpd, svc = server
        _status, job, _ = _request(httpd, "POST", "/jobs", {
            "kind": "evaluate", "spec": dict(_EVAL_SPEC)})
        assert svc.wait_drained(timeout=30)
        accepted = _count_connections(httpd)
        conn = http.client.HTTPConnection(
            "127.0.0.1", httpd.server_address[1], timeout=30)
        conn.request("GET", f"/jobs/{job['id']}/events")
        resp = conn.getresponse()
        assert resp.getheader("Transfer-Encoding") == "chunked"
        lines = [json.loads(line) for line in resp.read().splitlines()]
        assert lines[0]["kind"] == "run.start"
        assert lines[-1]["kind"] == "run.end"
        conn.request("GET", f"/jobs/{job['id']}")
        resp = conn.getresponse()
        assert json.loads(resp.read())["state"] == "done"
        conn.close()
        assert len(accepted) == 1

    def test_http10_events_reader_gets_a_stream_ending_at_eof(
            self, server):
        httpd, svc = server
        _status, job, _ = _request(httpd, "POST", "/jobs", {
            "kind": "evaluate", "spec": dict(_EVAL_SPEC)})
        assert svc.wait_drained(timeout=30)
        raw = _exchange(httpd, f"GET /jobs/{job['id']}/events HTTP/1.0"
                               f"\r\n\r\n".encode())
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200")
        assert b"Transfer-Encoding" not in head
        kinds = [json.loads(line)["kind"] for line in body.splitlines()]
        assert kinds[0] == "run.start" and kinds[-1] == "run.end"

    def test_connection_close_events_reader_is_told_the_stream_ends_at_eof(
            self, server):
        httpd, svc = server
        _status, job, _ = _request(httpd, "POST", "/jobs", {
            "kind": "evaluate", "spec": dict(_EVAL_SPEC)})
        assert svc.wait_drained(timeout=30)
        raw = _exchange(httpd, f"GET /jobs/{job['id']}/events HTTP/1.1\r\n"
                               f"Host: x\r\nConnection: close\r\n\r\n"
                               .encode())
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200")
        assert b"Connection: close" in head
        assert b"Transfer-Encoding" not in head
        kinds = [json.loads(line)["kind"] for line in body.splitlines()]
        assert kinds[0] == "run.start" and kinds[-1] == "run.end"

    def test_unread_get_body_is_not_run_as_a_request(self, idle_server):
        """A GET whose body holds a complete DELETE request: the GET is
        answered, the connection closes, and the queued job stays
        queued."""
        httpd, svc = idle_server
        job = svc.submit("evaluate", dict(_EVAL_SPEC))
        smuggled = (f"DELETE /jobs/{job.id} HTTP/1.1\r\n"
                    f"Host: x\r\n\r\n").encode()
        raw = _exchange(httpd, b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                        + f"Content-Length: {len(smuggled)}\r\n\r\n"
                        .encode() + smuggled)
        assert raw.startswith(b"HTTP/1.1 200")
        assert raw.count(b"HTTP/1.1") == 1
        assert b"Connection: close" in raw
        assert svc.queue.get(job.id).state == "queued"

    def test_unread_post_body_closes_the_connection(self, server):
        """``POST /admin/drain`` does not read its body: the 202 closes
        the connection."""
        httpd, svc = server
        raw = _exchange(httpd, b"POST /admin/drain HTTP/1.1\r\nHost: x"
                               b"\r\nContent-Length: 2\r\n\r\n{}")
        assert raw.startswith(b"HTTP/1.1 202")
        assert b"Connection: close" in raw
        assert svc.draining

    def test_error_response_closes_the_connection(self, server):
        httpd, _svc = server
        raw = _exchange(httpd, b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"
                               b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 404")
        assert raw.count(b"HTTP/1.1") == 1
        assert b"Connection: close" in raw

    def test_idle_connection_is_closed_and_the_client_reconnects(
            self, server, monkeypatch):
        import select

        from repro.serve.http import ServiceRequestHandler

        monkeypatch.setattr(ServiceRequestHandler, "timeout", 0.3)
        httpd, _svc = server
        accepted = _count_connections(httpd)
        client = _client(httpd)
        # Each request restarts the deadline: a connection in use for
        # twice the timeout stays open.
        assert client.health() == {"status": "ok"}
        for _ in range(6):
            time.sleep(0.1)
            assert client.health() == {"status": "ok"}
        # The connection goes idle with the last response.
        start = time.monotonic()
        assert len(accepted) == 1
        (idle,) = client._idle
        sock = idle.sock
        assert select.select([sock], [], [], 5)[0] == [sock]
        assert sock.recv(1) == b""  # the server closed it
        assert 0.2 < time.monotonic() - start < 5
        assert client.health() == {"status": "ok"}
        client.close()
        assert len(accepted) == 2

    def test_threads_sharing_a_client_never_share_a_connection(
            self, server):
        """Stress: more threads than cores share one client under a
        tiny switch interval.  Each request holds its connection alone,
        so no response goes astray and no more connections open than
        threads."""
        import sys

        httpd, svc = server
        job = svc.submit("evaluate", dict(_EVAL_SPEC))
        assert svc.wait_drained(timeout=30)
        accepted = _count_connections(httpd)
        client = _client(httpd)
        errors = []

        def user(n):
            try:
                for _ in range(25):
                    if n % 2:
                        assert client.status(job.id)["id"] == job.id
                    else:
                        events = list(client.watch(job.id))
                        assert events[-1]["kind"] == "run.end"
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=user, args=(n,))
                       for n in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(accepted) <= 6
        assert len(set(map(id, client._idle))) == len(client._idle) <= 6
        client.close()


# ---------------------------------------------------------------------------
# Fault injection: oversized requests.

class TestOversizedRequests:
    _BODY = json.dumps({"kind": "evaluate", "spec": {
        "workload": "Bert-S", "dataflow": "layerwise"}}).encode()

    @pytest.mark.parametrize("line,headers,status", [
        (b"POST /jobs?pad=" + b"x" * 65536 + b" HTTP/1.1", [], 414),
        (b"POST /jobs HTTP/1.1", [b"X-Pad-%d: x" % i for i in range(101)],
         431),
        (b"POST /jobs HTTP/1.1", [b"X-Pad: " + b"x" * 65536], 431),
    ], ids=["request-line-over-65536", "101-headers",
            "header-line-over-65536"])
    def test_oversized_request_is_refused_and_closed(
            self, server, line, headers, status):
        httpd, svc = server
        raw = _exchange(httpd, b"\r\n".join(
            [line, b"Host: x", *headers,
             b"Content-Length: %d" % len(self._BODY), b""])
            + b"\r\n" + self._BODY)
        assert raw.startswith(b"HTTP/1.1 %d" % status)
        assert b"Connection: close" in raw
        assert svc.queue.jobs() == []
        assert _request(httpd, "GET", "/healthz")[0] == 200


class TestExpectContinue:
    """``Expect: 100-continue`` gets its interim response only for a
    body the server goes on to read."""

    @pytest.mark.parametrize("headers,status", [
        ([], 411),
        ([b"Content-Length: 1e3"], 400),
        ([b"Content-Length: 4096"], 413),
        ([b"Transfer-Encoding: chunked"], 501),
    ], ids=["no-length", "bad-length", "over-the-cap", "transfer-encoding"])
    def test_refused_request_gets_only_its_final_status(
            self, server, headers, status):
        httpd, svc = server
        raw = _exchange(httpd, b"\r\n".join(
            [b"POST /jobs HTTP/1.1", b"Host: x",
             b"Expect: 100-continue", *headers, b""]) + b"\r\n")
        assert raw.startswith(b"HTTP/1.1 %d" % status)
        assert b" 100 " not in raw
        assert svc.queue.jobs() == []

    def test_accepted_request_gets_100_continue_before_its_final_status(
            self, server):
        httpd, svc = server
        body = json.dumps({"kind": "evaluate",
                           "spec": dict(_EVAL_SPEC)}).encode()
        raw = _exchange(httpd, b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                               b"Connection: close\r\nExpect: 100-continue"
                               b"\r\nContent-Length: %d\r\n\r\n%s"
                               % (len(body), body))
        assert raw.startswith(b"HTTP/1.1 100 Continue\r\n\r\n"
                              b"HTTP/1.1 202")
        assert len(svc.queue.jobs()) == 1


# ---------------------------------------------------------------------------
# ServiceClient.result follows the event stream instead of polling.

class TestClientResult:
    @staticmethod
    def _slow_evaluate(monkeypatch, seconds):
        run_evaluate = EvaluationService._run_evaluate

        def slow(self, job):
            time.sleep(seconds)
            return run_evaluate(self, job)

        monkeypatch.setattr(EvaluationService, "_run_evaluate", slow)

    def test_result_returns_when_the_job_ends(self, server, monkeypatch):
        httpd, _svc = server
        client = _client(httpd)
        warm = client.submit("evaluate", dict(_EVAL_SPEC))
        assert client.result(warm["id"])["state"] == "done"
        self._slow_evaluate(monkeypatch, 0.05)
        start = time.perf_counter()
        job = client.submit("evaluate", dict(_EVAL_SPEC))
        status = client.result(job["id"])
        elapsed = time.perf_counter() - start
        client.close()
        assert status["state"] == "done" and status["result"]
        assert 0.05 <= elapsed < 0.2  # the old poll interval

    def test_result_times_out_on_a_live_job(self, server, monkeypatch):
        httpd, svc = server
        self._slow_evaluate(monkeypatch, 1.0)
        client = _client(httpd)
        job = client.submit("evaluate", dict(_EVAL_SPEC))
        start = time.monotonic()
        with pytest.raises(TimeoutError, match="still"):
            client.result(job["id"], timeout=0.3)
        assert time.monotonic() - start < 0.9
        client.close()
        assert svc.wait_drained(timeout=30)

    def test_result_times_out_on_a_job_that_keeps_sending_events(
            self, server, monkeypatch):
        httpd, svc = server
        run_evaluate = EvaluationService._run_evaluate

        def chatty(self, job):
            for tick in range(20):  # one event every 50 ms for 1 s
                job.append_event({"kind": "test.tick", "tick": tick})
                time.sleep(0.05)
            return run_evaluate(self, job)

        monkeypatch.setattr(EvaluationService, "_run_evaluate", chatty)
        client = _client(httpd)
        job = client.submit("evaluate", dict(_EVAL_SPEC))
        start = time.monotonic()
        with pytest.raises(TimeoutError, match="still"):
            client.result(job["id"], timeout=0.3)
        assert time.monotonic() - start < 0.7
        client.close()
        assert svc.wait_drained(timeout=30)

    def test_stream_handler_ends_when_the_client_leaves_a_quiet_job(
            self, server, monkeypatch):
        httpd, svc = server
        self._slow_evaluate(monkeypatch, 3.0)
        client = _client(httpd)
        job = client.submit("evaluate", dict(_EVAL_SPEC))
        with pytest.raises(TimeoutError):
            client.result(job["id"], timeout=0.3)
        client.close()
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline and any(
                t.name.endswith("(process_request_thread)")
                for t in threading.enumerate()):
            time.sleep(0.05)
        assert svc.queue.get(job["id"]).state == "running"
        assert not any(t.name.endswith("(process_request_thread)")
                       for t in threading.enumerate())
        assert svc.wait_drained(timeout=30)


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
            assert out["results_dropped"] == 1
            assert out["counters_reset"] is False
            assert cache.total == 0
            assert svc.engine_for("Bert-S", "edge").results == {}
            # Lifetime counters deliberately survive a clear...
            assert cache.misses == misses
            # ...and only an explicit reset zeroes them.
            out = svc.clear_cache(reset_counters=True)
            assert out["counters_reset"] is True
            assert out["results_dropped"] == 0
            assert cache.counts() == (0, 0)
            assert cache.eviction_count == 0
            # The next job runs cold: an engine run that misses.
            job = svc.submit("evaluate", dict(_EVAL_SPEC))
            assert svc.wait_drained(timeout=30)
            assert job.result["counters"]["evaluations"] == 1
            assert job.result["counters"]["subtree_misses"] > 0
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
        # Only the first round ran the engine; its hits are walk volumes
        # one evaluation reads more than once.  The second round reused
        # the kept results and touched no cache.
        assert stats["hits"] > 0
        assert [job.result["counters"]["evaluations"] for job in jobs] \
            == [1] * len(specs) + [0] * len(specs)
        # Results equal a cache-free model evaluation, cold or reused.
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
        assert payload["results_dropped"] == 1
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
# Ledger runs of repeat evaluate jobs: a slot's first evaluation of a
# dataflow is recorded once; every later job of that spec carries its
# run id and writes nothing.

class TestRepeatJobRuns:
    def test_repeat_jobs_share_one_run(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.ledger import RunLedger

        runs = str(tmp_path / "runs")
        tileflow = dict(_EVAL_SPEC, dataflow="tileflow")
        svc = EvaluationService(workers=1, ledger_root=runs).start()
        try:
            jobs = [svc.submit("evaluate", dict(_EVAL_SPEC))
                    for _ in range(5)]
            # A sweep keeps a result but records no run; the first
            # evaluate job of that dataflow records it.
            sweep = svc.submit("sweep", {"workload": "Bert-S",
                                         "dataflows": ["tileflow"]})
            later = [svc.submit("evaluate", dict(tileflow))
                     for _ in range(2)]
            searches = [svc.submit("search", {
                "workload": "Bert-S", "generations": 1, "population": 4,
                "samples": 3}) for _ in range(2)]
            assert svc.wait_drained(timeout=120)
        finally:
            svc.stop(timeout=5)
        for job in jobs + [sweep] + later + searches:
            assert job.state == "done", job.error
        ledger = RunLedger(runs)
        run_id = jobs[0].run_id
        assert run_id
        assert {job.result["run_id"] for job in jobs} == {run_id}
        assert {job.to_dict()["run_id"] for job in jobs} == {run_id}
        assert ledger.load(run_id)["counters"] == jobs[0].result["counters"]
        assert sweep.run_id is None
        assert later[0].result["counters"]["evaluations"] == 0
        assert later[0].run_id and later[1].run_id == later[0].run_id
        assert (ledger.load(later[0].run_id)["counters"]
                == later[0].result["counters"])
        # One manifest per first evaluation, one per search job.
        assert len({job.run_id for job in searches}) == 2
        assert sorted(ledger.run_ids()) == sorted(
            [run_id, later[0].run_id] + [job.run_id for job in searches])
        assert main(["explain", "--run", run_id, "--root", runs,
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["workload"] == "Bert-S"

    def test_concurrent_first_jobs_write_once(self, tmp_path):
        """More workers than cores and a short switch interval: however
        jobs of one spec interleave, each spec is recorded once."""
        from repro.obs.ledger import RunLedger

        names = ["layerwise", "tileflow", "flat_hgran"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        svc = EvaluationService(workers=6, ledger_root=str(
            tmp_path / "runs")).start()
        try:
            jobs = [svc.submit("evaluate", dict(_EVAL_SPEC, dataflow=name))
                    for _ in range(8) for name in names]
            assert svc.wait_drained(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            svc.stop(timeout=5)
        by_name = {}
        for job in jobs:
            assert job.state == "done", job.error
            by_name.setdefault(job.spec["dataflow"], set()).add(job.run_id)
        assert all(len(ids) == 1 and None not in ids
                   for ids in by_name.values())
        assert sorted(RunLedger(str(tmp_path / "runs")).run_ids()) == \
            sorted(ids.pop() for ids in by_name.values())

    def test_failed_ledger_write_keeps_no_run_id(self, tmp_path,
                                                 monkeypatch):
        from repro.obs.ledger import LedgerError, RunLedger

        record = RunLedger.record
        calls = []

        def fail_once(ledger, manifest):
            calls.append(manifest["run_id"])
            if len(calls) == 1:
                raise LedgerError("cannot write manifest: disk full")
            return record(ledger, manifest)

        monkeypatch.setattr(RunLedger, "record", fail_once)
        runs = str(tmp_path / "runs")
        svc = EvaluationService(workers=2, ledger_root=runs).start()
        try:
            first = svc.submit("evaluate", dict(_EVAL_SPEC))
            assert svc.wait_drained(timeout=60)
            assert svc.engine_for("Bert-S", "edge").run_ids == {}
            jobs = [svc.submit("evaluate", dict(_EVAL_SPEC))
                    for _ in range(6)]
            assert svc.wait_drained(timeout=60)
        finally:
            svc.stop(timeout=5)
        # The first job fails with the ledger error and carries no run.
        assert first.state == "failed"
        assert first.error == "LedgerError: cannot write manifest: disk full"
        assert first.run_id is None
        # The next job reuses the kept result, writes the manifest and
        # publishes its id; the rest carry that id and write nothing.
        assert len(calls) == 2
        for job in jobs:
            assert job.state == "done", job.error
            assert set(job.result["counters"].values()) == {0}
        ledger = RunLedger(runs)
        assert ledger.run_ids() == [calls[1]]
        assert {job.run_id for job in jobs} == {calls[1]}
        # No job carries the id of a run the ledger cannot read.
        for job in [first] + jobs:
            assert job.run_id is None or ledger.load(job.run_id)

    def test_ledgerless_service_reports_no_run(self):
        svc = EvaluationService(workers=1).start()
        try:
            jobs = [svc.submit("evaluate", dict(_EVAL_SPEC))
                    for _ in range(2)]
            assert svc.wait_drained(timeout=30)
            assert svc.engine_for("Bert-S", "edge").run_ids == {}
        finally:
            svc.stop(timeout=5)
        for job in jobs:
            assert job.state == "done", job.error
            assert job.run_id is None and job.result["run_id"] is None


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
