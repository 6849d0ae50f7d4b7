"""Unit tests for the run ledger, diff, Chrome export, and explain."""

import errno
import json

import pytest

from repro import arch, obs, workloads
from repro.obs import events
from repro.obs import ledger as ledger_mod


@pytest.fixture(autouse=True)
def clean_obs():
    yield
    events.disable()


def _manifest(run_id, cost, signature="sig-a", counters=None, config=None):
    return ledger_mod.build_manifest(
        run_id=run_id, command="search",
        workload={"name": "Bert-S", "fingerprint": "wfp"},
        arch={"name": "Edge", "fingerprint": "afp"},
        config=config or {"generations": 2},
        seeds={"seed": 0},
        champion={"cost": cost, "signature": signature},
        counters=counters or {"evaluations": 10},
        wall_s=1.5)


class TestLedger:
    def test_record_and_load_roundtrip(self, tmp_path):
        ledger = ledger_mod.RunLedger(str(tmp_path / "runs"))
        manifest = _manifest("runA", 100.0)
        path = ledger.record(manifest)
        assert path.endswith("manifest.json")
        assert ledger.run_ids() == ["runA"]
        loaded = ledger.load("runA")
        assert loaded == json.loads(json.dumps(manifest))
        assert loaded["version"] == ledger_mod.MANIFEST_VERSION

    def test_record_writes_the_bytes_json_dump_did(self, tmp_path):
        # The manifest is written in one call; its bytes must be those
        # of the streaming json.dump it replaced.
        import io
        ledger = ledger_mod.RunLedger(str(tmp_path / "runs"))
        manifest = _manifest("runB", 1234.5678,
                             counters={"evaluations": 3, "é": 1},
                             config={"nested": {"b": [1, 2.5, None],
                                                "a": True}})
        path = ledger.record(manifest)
        expected = io.StringIO()
        json.dump(manifest, expected, indent=2, sort_keys=True,
                  allow_nan=False)
        expected.write("\n")
        with open(path, "rb") as fh:
            assert fh.read() == expected.getvalue().encode()

    def test_new_run_id_never_collides(self, tmp_path):
        ledger = ledger_mod.RunLedger(str(tmp_path / "runs"))
        first = ledger.new_run_id(salt="x")
        ledger.record(_manifest(first, 1.0))
        second = ledger.new_run_id(salt="x")
        assert second != first

    def test_new_run_id_replaces_path_separators(self, tmp_path):
        ledger = ledger_mod.RunLedger(str(tmp_path / "runs"))
        run_id = ledger.new_run_id(salt="ViT/16-B-job7")
        assert run_id.endswith("-ViT-16-B-job7")
        ledger.record(_manifest(run_id, 1.0))
        assert ledger.run_ids() == [run_id]

    def test_bad_run_id_rejected(self, tmp_path):
        ledger = ledger_mod.RunLedger(str(tmp_path))
        with pytest.raises(ledger_mod.LedgerError):
            ledger.record(_manifest("../escape", 1.0))
        with pytest.raises(ledger_mod.LedgerError):
            ledger.record(_manifest("", 1.0))

    def test_full_disk_raises_ledger_error_and_leaves_nothing(
            self, tmp_path, monkeypatch):
        class FullDisk:
            """A file opened for real whose writes fail as on a full
            disk, so the half-made temporary file must be removed."""

            def __init__(self, path, mode="r"):
                self.fh = open(path, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                raise OSError(errno.ENOSPC, "No space left on device")

        ledger = ledger_mod.RunLedger(str(tmp_path / "runs"))
        monkeypatch.setattr(ledger_mod, "open", FullDisk, raising=False)
        with pytest.raises(ledger_mod.LedgerError) as info:
            ledger.record(_manifest("runA", 100.0))
        assert info.value.__cause__.errno == errno.ENOSPC
        run_dir = tmp_path / "runs" / "runA"
        assert not (run_dir / "manifest.json.tmp").exists()
        assert not (run_dir / "manifest.json").exists()
        assert ledger.run_ids() == []

    def test_load_missing_run_lists_known(self, tmp_path):
        ledger = ledger_mod.RunLedger(str(tmp_path))
        ledger.record(_manifest("runA", 1.0))
        with pytest.raises(ledger_mod.LedgerError, match="runA"):
            ledger.load("nope")


class TestDiff:
    def test_detects_injected_champion_regression(self):
        a = _manifest("runA", 100.0)
        b = _manifest("runB", 150.0, signature="sig-b")
        diff = ledger_mod.diff_manifests(a, b)
        assert diff["champion"]["regressed"] is True
        assert diff["champion"]["ratio"] == pytest.approx(1.5)
        assert not diff["champion"]["same_signature"]
        assert "REGRESSION" in ledger_mod.render_diff(diff)

    def test_improvement_and_tolerance_are_ok(self):
        a = _manifest("runA", 100.0)
        assert not ledger_mod.diff_manifests(
            a, _manifest("runB", 90.0))["champion"]["regressed"]
        # 3% worse within a 5% tolerance is not a regression.
        assert not ledger_mod.diff_manifests(
            a, _manifest("runB", 103.0),
            tolerance=0.05)["champion"]["regressed"]
        assert ledger_mod.diff_manifests(
            a, _manifest("runB", 106.0),
            tolerance=0.05)["champion"]["regressed"]

    def test_lost_feasibility_is_a_regression(self):
        a = _manifest("runA", 100.0)
        b = _manifest("runB", None)
        assert ledger_mod.diff_manifests(a, b)["champion"]["regressed"]
        # Baseline infeasible: any finite champion is an improvement.
        assert not ledger_mod.diff_manifests(b, a)["champion"]["regressed"]

    def test_counter_and_config_changes_reported(self):
        a = _manifest("runA", 100.0, counters={"evaluations": 10})
        b = _manifest("runB", 100.0, counters={"evaluations": 12},
                      config={"generations": 4})
        diff = ledger_mod.diff_manifests(a, b)
        assert diff["counters"]["evaluations"] == {"a": 10, "b": 12}
        assert diff["config"]["generations"] == {"a": 2, "b": 4}
        assert diff["comparable"] is True


class TestChromeExport:
    def test_spans_become_complete_events(self):
        from repro.obs.export import chrome_trace
        with obs.capture() as sink:
            with obs.span("outer", "mapper", tree="t"):
                with obs.span("inner", "analysis"):
                    obs.count("engine.evaluations", 2)
        doc = chrome_trace(sink.records)
        phases = [e["ph"] for e in doc["traceEvents"]]
        assert phases.count("X") == 2 and phases.count("M") == 1
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in xs)
        outer = next(e for e in xs if e["name"] == "outer")
        assert outer["args"]["tree"] == "t"
        assert doc["otherData"] == {"engine.evaluations": 2}
        # Strict JSON end to end.
        json.dumps(doc, allow_nan=False)


class TestExplain:
    def test_provenance_matches_engine_counters(self):
        from repro.obs.explain import explain_tree, render_explain
        from repro.engine import EvaluationEngine
        from repro.dataflows import attention_dataflow
        wl = workloads.self_attention(2, 32, 64, expand_softmax=False)
        spec = arch.edge()
        tree = attention_dataflow("flat_rgran", wl, spec)
        engine = EvaluationEngine(wl, spec)
        report = explain_tree(tree, spec, engine=engine)

        warm = report["rounds"]["warm"]
        warm_hits = sum(d["hits"] for d in warm["subtree_by_kind"].values())
        warm_misses = sum(d["misses"]
                          for d in warm["subtree_by_kind"].values())
        # The per-kind provenance is exactly the engine's own counter
        # movement during the warm round.
        assert warm_hits == warm["engine_delta"].get("subtree_hits", 0)
        assert warm_misses == warm["engine_delta"].get("subtree_misses", 0)
        assert warm_hits > 0, "warm round should reuse cached artifacts"

        cold = report["rounds"]["cold"]
        cold_misses = sum(d["misses"]
                          for d in cold["subtree_by_kind"].values())
        assert cold_misses == cold["engine_delta"].get("subtree_misses", 0)
        assert report["provenance"]["context_memo_hits"] > 0
        assert report["prescreen"]["feasible"] is True
        assert report["prescreen"]["codes"] == []

        text = render_explain(report)
        assert "artifact provenance" in text
        assert "passes every cheap bound" in text
        json.dumps(report, allow_nan=False)

    def test_reports_the_bound_that_fired(self):
        from repro.obs.explain import explain_tree, render_explain
        from repro.dataflows import attention_dataflow
        wl = workloads.self_attention(2, 32, 64, expand_softmax=False)
        tight = arch.edge().with_level("L1", capacity_bytes=64)
        tree = attention_dataflow("flat_rgran", wl, tight)
        report = explain_tree(tree, tight)
        pre = report["prescreen"]
        assert pre["feasible"] is False
        assert any(c.startswith(("memory.capacity:", "compute."))
                   for c in pre["codes"])
        assert len(pre["codes"]) == len(pre["violations"])
        assert "REJECTED" in render_explain(report)


class TestScope:
    def test_scope_isolates_sequential_runs(self):
        # A capture sees only the records of its own block, so per-run
        # numbers need no reset of what an outer observer is recording.
        with obs.capture() as outer:
            obs.count("engine.evaluations", 5)
            with obs.capture() as run:
                obs.count("engine.evaluations", 3)
            with obs.capture() as idle:
                pass
        assert obs.fold_counts(run.records) == {"engine.evaluations": 3}
        assert list(idle.records) == []
        assert obs.fold_counts(outer.records) == {"engine.evaluations": 8}

    def test_tune_template_reports_per_run_metrics(self):
        from repro.mapper.mapper import tune_template
        from repro.dataflows import attention_dataflow
        wl = workloads.self_attention(2, 32, 64, expand_softmax=False)
        spec = arch.edge()

        def template(w, a, factors):
            return attention_dataflow("flat_rgran", w, a)

        with obs.capture() as outer:
            with obs.capture() as first_run:
                first = tune_template(template, {"b": [1, 2]}, wl, spec,
                                      samples=4)
            with obs.capture() as second_run:
                tune_template(template, {"b": [1, 2]}, wl, spec, samples=4)
        f = obs.fold_counts(first_run.records)["engine.evaluations"]
        s = obs.fold_counts(second_run.records)["engine.evaluations"]
        assert f > 0 and s > 0
        assert obs.fold_counts(outer.records)["engine.evaluations"] == f + s
        # Recording changes nothing in the serialized result payload.
        untraced = tune_template(template, {"b": [1, 2]}, wl, spec,
                                 samples=4)
        assert first.to_dict() == untraced.to_dict()
