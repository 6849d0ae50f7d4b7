"""Service-vs-CLI equivalence and cross-job cache warmth.

The evaluation service must be a *transport*, not a different mapper:
a search submitted over HTTP produces byte-identical results to the
same search run by the CLI — same champion signature, same
search-category event stream — and its ledger runs diff cleanly
against CLI runs.  Separately, the shared subtree artifact cache must
actually carry across jobs: a second identical evaluate job runs
entirely on warm artifacts.
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
        engine lock serializes them, and whichever lands second runs
        entirely on the first job's subtree artifacts (zero misses)."""
        svc = EvaluationService(workers=2,
                                ledger_root=str(tmp_path / "runs")).start()
        httpd = make_server("127.0.0.1", 0, svc)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(
            f"http://127.0.0.1:{httpd.server_address[1]}")
        try:
            spec = {"workload": "Bert-S", "arch": "edge",
                    "dataflow": "layerwise"}
            ids = [client.submit("evaluate", spec)["id"],
                   client.submit("evaluate", spec)["id"]]
            results = [client.result(jid, timeout=60) for jid in ids]
            assert all(r["state"] == "done" for r in results)
            ordered = sorted(results, key=lambda r: r["finished"])
            cold = ordered[0]["result"]["counters"]
            warm = ordered[1]["result"]["counters"]
            # The first job populated the shared cache...
            assert cold["subtree_misses"] > 0
            # ...and the second ran entirely on warm artifacts.
            assert warm["subtree_misses"] == 0
            assert warm["subtree_hits"] > 0
            assert warm["subtree_hits"] > cold["subtree_hits"]
            # The warmth is visible at the API: GET /stats reports the
            # shared cache's nonzero hit total.
            stats = client.stats()
            assert stats["subtree_cache"]["hits"] > 0
            assert stats["jobs"]["done"] == 2
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
        """Two service evaluate runs diff via `repro runs diff
        --fail-on-regression` exactly like CLI-produced runs."""
        runs = str(tmp_path / "runs")
        svc = EvaluationService(workers=1, ledger_root=runs).start()
        try:
            spec = {"workload": "Bert-S", "arch": "edge",
                    "dataflow": "layerwise"}
            j1 = svc.submit("evaluate", spec)
            svc.wait_drained(timeout=30)
            j2 = svc.submit("evaluate", spec)
            assert svc.wait_drained(timeout=30)
            assert j1.run_id and j2.run_id
        finally:
            svc.stop(timeout=5)
        rc = main(["runs", "diff", j1.run_id, j2.run_id, "--root", runs,
                   "--fail-on-regression", "--json"])
        assert rc == 0  # identical dataflow: no champion regression
        diff = json.loads(capsys.readouterr().out)
        assert diff["champion"]["regressed"] is False
        assert diff["comparable"] is True
        rc = main(["runs", "list", "--root", runs, "--quiet"])
        assert rc == 0
