"""Service-vs-CLI equivalence and cross-job cache warmth.

The evaluation service must be a *transport*, not a different mapper:
a search submitted over HTTP produces byte-identical results to the
same search run by the CLI — same champion signature, same
search-category event stream — and its ledger runs diff cleanly
against CLI runs.  Separately, a second identical evaluate job must
reuse the result its engine slot kept from the first, without touching
the engine, and answer exactly as the first did.
"""

import json
import threading
import time

import pytest

from repro.cli import main
from repro.obs import ledger as ledger_mod
from repro.serve import EvaluationService, ServiceClient, make_server

SEARCH = {"workload": "Bert-S", "arch": "edge",
          "generations": 2, "population": 4, "samples": 6, "seed": 0}


def _search_events(records):
    """(kind, payload) pairs of the search-category slice of a stream."""
    return [(e["kind"], e["payload"]) for e in records
            if e["type"] == "event" and e["cat"] == "search"]


class TestServiceCLIEquivalence:
    @pytest.fixture(scope="class")
    def cli_run(self, tmp_path_factory):
        """One CLI search with --trace and --ledger captured."""
        root = tmp_path_factory.mktemp("cli")
        events_file = root / "trace.jsonl"
        ledger_dir = root / "runs"
        rc = main(["search", SEARCH["workload"],
                   "--arch", SEARCH["arch"],
                   "--generations", str(SEARCH["generations"]),
                   "--population", str(SEARCH["population"]),
                   "--samples", str(SEARCH["samples"]),
                   "--seed", str(SEARCH["seed"]),
                   "--trace", str(events_file),
                   "--ledger", str(ledger_dir), "--quiet"])
        assert rc == 0
        events = [json.loads(line)
                  for line in events_file.read_text().splitlines()
                  if line.strip()]
        ledger = ledger_mod.RunLedger(str(ledger_dir))
        manifest = ledger.load(ledger.run_ids()[-1])
        return events, manifest

    @pytest.fixture(scope="class")
    def service_run(self, tmp_path_factory):
        """The same search through a fresh (cold-cache) service."""
        ledger_dir = tmp_path_factory.mktemp("svc") / "runs"
        svc = EvaluationService(workers=1,
                                ledger_root=str(ledger_dir)).start()
        try:
            job = svc.submit("search", dict(SEARCH))
            assert svc.wait_drained(timeout=300)
            assert job.state == "done", job.error
            manifest = ledger_mod.RunLedger(
                str(ledger_dir)).load(job.run_id)
            return list(job.events), manifest
        finally:
            svc.stop(timeout=5)

    def test_champion_signature_is_byte_identical(self, cli_run,
                                                  service_run):
        _events_a, manifest_a = cli_run
        _events_b, manifest_b = service_run
        sig_a = manifest_a["champion"]["signature"]
        sig_b = manifest_b["champion"]["signature"]
        assert sig_a and sig_a == sig_b
        assert (manifest_a["champion"]["cost"]
                == manifest_b["champion"]["cost"])
        assert (manifest_a["champion"]["genome"]
                == manifest_b["champion"]["genome"])
        assert (manifest_a["champion"]["factors"]
                == manifest_b["champion"]["factors"])

    def test_search_event_streams_are_identical(self, cli_run,
                                                service_run):
        events_a, _ = cli_run
        events_b, _ = service_run
        search_a = _search_events(events_a)
        search_b = _search_events(events_b)
        assert search_a  # the stream is non-trivial
        assert search_a == search_b
        # The CLI trace also carries spans and counters; the job stream
        # carries only run/search/cache events.
        assert {e["type"] for e in events_a} == {"event", "span", "count"}
        assert {(e["type"], e["cat"]) for e in events_b} == {
            ("event", "run"), ("event", "search"), ("event", "cache")}

    def test_manifests_diff_cleanly(self, cli_run, service_run):
        _ea, manifest_a = cli_run
        _eb, manifest_b = service_run
        diff = ledger_mod.diff_manifests(manifest_a, manifest_b)
        assert diff["comparable"] is True
        assert diff["champion"]["same_signature"] is True
        assert diff["champion"]["regressed"] is False
        # Identical structure: CLI and service manifests carry the same
        # keys (shared builder), so every consumer treats them alike —
        # the service only adds the job-id provenance field.
        assert set(manifest_b) - set(manifest_a) == {"job"}
        assert set(manifest_a) <= set(manifest_b)
        assert (set(manifest_a["champion"])
                == set(manifest_b["champion"]))


class TestCrossJobCacheWarmth:
    def test_second_concurrent_job_runs_warm(self, tmp_path):
        """Two identical evaluate jobs through a 2-worker server: the
        engine lock serializes them; whichever runs first evaluates the
        slot's tree, keeps the result and records the one ledger run,
        and the other reuses both with a zero counter delta.  Then 16
        concurrent jobs of another spec leave one more manifest, whose
        run id all 16 carry."""
        svc = EvaluationService(workers=2,
                                ledger_root=str(tmp_path / "runs")).start()
        httpd = make_server("127.0.0.1", 0, svc)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(
            f"http://127.0.0.1:{httpd.server_address[1]}")
        ledger = ledger_mod.RunLedger(str(tmp_path / "runs"))
        try:
            spec = {"workload": "Bert-S", "arch": "edge",
                    "dataflow": "layerwise"}
            ids = [client.submit("evaluate", spec)["id"],
                   client.submit("evaluate", spec)["id"]]
            results = [client.result(jid, timeout=60) for jid in ids]
            assert all(r["state"] == "done" for r in results)
            cold, warm = sorted(
                (r["result"] for r in results),
                key=lambda result: result["counters"]["evaluations"],
                reverse=True)
            # The first job ran the engine once, cold...
            assert cold["counters"]["evaluations"] == 1
            assert cold["counters"]["subtree_misses"] > 0
            # ...and the second did no engine work at all...
            assert set(warm["counters"].values()) == {0}
            # ...yet answered exactly as the first did.
            for key in ("latency_cycles", "energy_pj", "feasible", "cost"):
                assert warm[key] == cold[key], key
            # Both jobs carry the one run the cold job recorded.
            assert cold["run_id"]
            assert {r["run_id"] for r in results} == {cold["run_id"]}
            assert {r["result"]["run_id"] for r in results} == {
                cold["run_id"]}
            assert ledger.run_ids() == [cold["run_id"]]
            assert ledger.load(cold["run_id"])["counters"] == \
                cold["counters"]
            # GET /stats shows one engine evaluation for two done jobs.
            stats = client.stats()
            assert stats["engines"]["Bert-S/edge"]["evaluations"] == 1
            assert stats["jobs"]["done"] == 2

            # 16 jobs of a fresh spec, queued back to back for the two
            # workers: one writes, every job carries its run id.
            spec = dict(spec, dataflow="tileflow")
            ids = [client.submit("evaluate", spec)["id"]
                   for _ in range(16)]
            results = [client.result(jid, timeout=60) for jid in ids]
            assert all(r["state"] == "done" for r in results)
            run_ids = {r["run_id"] for r in results}
            assert len(run_ids) == 1 and None not in run_ids
            (run_id,) = run_ids
            assert {r["result"]["run_id"] for r in results} == run_ids
            assert sorted(ledger.run_ids()) == sorted(
                [cold["run_id"], run_id])
            assert ledger.load(run_id)["counters"]["evaluations"] == 1
        finally:
            httpd.shutdown()
            httpd.server_close()
            svc.stop(timeout=5)

    def test_jobs_on_different_engines_attribute_exactly(self, tmp_path):
        """Concurrent jobs on different (workload, arch) engines share
        one cache but never pollute each other's counter deltas: each
        cold job sees only its own namespace's misses."""
        svc = EvaluationService(workers=2).start()
        try:
            a = svc.submit("evaluate", {"workload": "Bert-S",
                                        "arch": "edge",
                                        "dataflow": "layerwise"})
            b = svc.submit("evaluate", {"workload": "CC1",
                                        "arch": "edge",
                                        "dataflow": "isos"})
            assert svc.wait_drained(timeout=60)
            assert a.state == "done" and b.state == "done"
            ca, cb = a.result["counters"], b.result["counters"]
            # Both are cold in their own namespace.
            assert ca["subtree_misses"] > 0
            assert cb["subtree_misses"] > 0
            # The shared cache holds the union.
            assert (svc.subtree_cache.misses
                    == ca["subtree_misses"] + cb["subtree_misses"])
        finally:
            svc.stop(timeout=5)


class TestServiceLedgerRuns:
    def test_service_runs_consumable_by_runs_cli(self, tmp_path, capsys):
        """A cache clear starts a new run: the evaluate jobs before and
        after it record two cold manifests, which diff via `repro runs
        diff --fail-on-regression` exactly like CLI-produced runs."""
        runs = str(tmp_path / "runs")
        svc = EvaluationService(workers=1, ledger_root=runs).start()
        try:
            spec = {"workload": "Bert-S", "arch": "edge",
                    "dataflow": "layerwise"}
            j1 = svc.submit("evaluate", spec)
            repeat = svc.submit("evaluate", spec)
            assert svc.wait_drained(timeout=30)
            assert svc.clear_cache()["cleared"] is True
            j2 = svc.submit("evaluate", spec)
            assert svc.wait_drained(timeout=30)
        finally:
            svc.stop(timeout=5)
        assert j1.run_id and repeat.run_id == j1.run_id
        assert j2.run_id and j2.run_id != j1.run_id
        ledger = ledger_mod.RunLedger(runs)
        assert sorted(ledger.run_ids()) == sorted([j1.run_id, j2.run_id])
        for job in (j1, j2):
            counters = ledger.load(job.run_id)["counters"]
            assert counters == job.result["counters"]
            assert counters["evaluations"] == 1
            assert counters["subtree_misses"] > 0
        rc = main(["runs", "diff", j1.run_id, j2.run_id, "--root", runs,
                   "--fail-on-regression", "--json"])
        assert rc == 0  # identical dataflow: no champion regression
        diff = json.loads(capsys.readouterr().out)
        assert (diff["run_a"], diff["run_b"]) == (j1.run_id, j2.run_id)
        assert diff["counters"] == {}  # both runs are cold
        assert diff["champion"]["regressed"] is False
        assert diff["comparable"] is True
        rc = main(["runs", "list", "--root", runs, "--quiet"])
        assert rc == 0
