"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_evaluate_defaults(self):
        args = build_parser().parse_args(["evaluate", "Bert-S",
                                          "tileflow"])
        assert args.arch == "edge"
        assert not args.show_tree

    @pytest.mark.parametrize("flag, value", [
        ("--workers", "0"), ("--max-queue", "0"), ("--max-body-kb", "0"),
        ("--max-body-kb", "-1"), ("--cache-bound", "-1")])
    def test_serve_rejects_numeric_flags_that_stop_work(self, flag, value,
                                                        capsys):
        # Each value would start a service that refuses every job (429,
        # 413) or silently runs other than asked; argparse exits 2.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: must be >=" in capsys.readouterr().err

    def test_search_rejects_zero_workers(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["search", "Bert-S", "--workers", "0"])
        assert exc.value.code == 2

    def test_events_flag_is_gone(self, capsys):
        # --trace carries every record the old event file did.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["search", "Bert-S", "--events",
                                       "ev.jsonl"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("verb", ["status", "watch", "result"])
    @pytest.mark.parametrize("id_first", [True, False])
    def test_client_job_id_before_or_after_options(self, verb, id_first):
        # The optional job id used to be bound, empty, together with the
        # verb, so an id after --url was an "unrecognized argument".
        options = ["--url", "http://127.0.0.1:1"]
        argv = (["client", verb, "job-000007", *options] if id_first
                else ["client", verb, *options, "job-000007"])
        args = build_parser().parse_args(argv)
        assert (args.verb, args.job_id, args.url) == (
            verb, "job-000007", "http://127.0.0.1:1")

    def test_runs_ids_may_follow_options(self):
        args = build_parser().parse_args(
            ["runs", "diff", "--root", "ledger", "run-a", "run-b"])
        assert (args.verb, args.run_ids, args.root) == (
            "diff", ["run-a", "run-b"], "ledger")

    def test_stray_positionals_still_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["client", "watch", "job-1", "job-2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: job-2" in capsys.readouterr().err

    def test_serve_accepts_numeric_flag_floors(self):
        args = build_parser().parse_args(
            ["serve", "--workers", "1", "--max-queue", "1",
             "--max-body-kb", "1", "--cache-bound", "0"])
        assert (args.workers, args.max_queue, args.max_body_kb,
                args.cache_bound) == (1, 1, 1, 0)


class TestCommands:
    def test_evaluate_attention(self, capsys):
        assert main(["evaluate", "Bert-S", "flat_rgran"]) == 0
        out = capsys.readouterr().out
        assert "latency" in out

    def test_evaluate_conv_with_tree(self, capsys):
        assert main(["evaluate", "CC3", "fused_layer", "--arch", "cloud",
                     "--show-tree", "--show-notation"]) == 0
        out = capsys.readouterr().out
        assert "fused_layer" in out and "level" in out

    def test_compare(self, capsys):
        assert main(["compare", "ViT/16-B"]) == 0
        out = capsys.readouterr().out
        assert "tileflow" in out and "speedup" in out

    def test_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["evaluate", "GPT-7", "tileflow"])

    def test_search_small(self, capsys):
        assert main(["search", "ViT/16-B", "--generations", "2",
                     "--population", "4", "--samples", "5"]) == 0
        assert "best ordering/binding" in capsys.readouterr().out

    def test_experiment_tab6(self, capsys):
        assert main(["experiment", "tab6"]) == 0
        assert "Table 6" in capsys.readouterr().out

    def test_experiment_unknown(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_validate_small(self, capsys):
        assert main(["validate", "--mappings", "40"]) == 0
        assert "Figure 8" in capsys.readouterr().out

    def test_search_ledger_accepts_slashed_workload(self, tmp_path):
        from repro.obs.ledger import RunLedger
        root = str(tmp_path / "runs")
        assert main(["search", "ViT/16-B", "--generations", "1",
                     "--population", "4", "--samples", "3",
                     "--ledger", root, "--quiet"]) == 0
        [run_id] = RunLedger(root).run_ids()
        assert "ViT-16-B" in run_id
        assert RunLedger(root).load(run_id)["command"] == "search"


class TestJsonOutput:
    def test_evaluate_json(self, capsys):
        import json
        assert main(["evaluate", "Bert-S", "tileflow", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["arch"] == "Edge"
        assert payload["latency_cycles"] > 0
        assert "traffic" in payload and "violations" in payload

    def test_evaluate_json_is_clean_despite_show_tree(self, capsys):
        import json
        # --show-tree headers must not interleave with the JSON payload.
        assert main(["evaluate", "Bert-S", "tileflow", "--json",
                     "--show-tree", "--show-notation"]) == 0
        json.loads(capsys.readouterr().out)

    def test_search_json(self, capsys):
        import json
        assert main(["search", "ViT/16-B", "--generations", "1",
                     "--population", "4", "--samples", "3",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "best_factors" in payload and "trace" in payload
        assert payload["result"]["latency_cycles"] > 0
        assert payload["normalized_trace"][-1] in (0.0, 1.0)

    def test_compare_json(self, capsys):
        import json
        assert main(["compare", "ViT/16-B", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["dataflow"] for r in payload["dataflows"]]
        assert all("latency_cycles" in r for r in payload["dataflows"])


class TestQuiet:
    def test_quiet_suppresses_output(self, capsys):
        assert main(["evaluate", "Bert-S", "tileflow", "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_quiet_keeps_exit_code(self):
        # infeasible mapping still signals through the return code
        assert main(["evaluate", "Bert-S", "tileflow", "--quiet"]) in (0, 1)


class TestCacheCommand:
    def test_cache_flags_parse(self):
        args = build_parser().parse_args(["serve", "--cache-bound", "128"])
        assert args.cache_bound == 128
        # The cache is in-memory only: no disk-tier flags, no `cache`
        # subcommand, and search prices its tunes off the cache.
        for argv in (["serve", "--cache-dir", "/tmp/x"],
                     ["serve", "--no-cache-persist"],
                     ["search", "Bert-S", "--cache-bound", "128"],
                     ["cache", "stats"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)


class TestObservabilityFlags:
    def test_profile_prints_breakdown_to_stderr(self, capsys):
        assert main(["evaluate", "Bert-S", "tileflow", "--profile"]) == 0
        captured = capsys.readouterr()
        assert "latency" in captured.out  # normal output untouched
        assert "spans by self-time" in captured.err
        assert "model.pass.datamovement" in captured.err
        assert "model.evaluate " in captured.err

    def test_profile_does_not_pollute_json(self, capsys):
        import json
        assert main(["evaluate", "Bert-S", "tileflow", "--json",
                     "--profile"]) == 0
        json.loads(capsys.readouterr().out)

    def test_search_profile_has_search_counters(self, capsys):
        assert main(["search", "ViT/16-B", "--generations", "1",
                     "--population", "4", "--samples", "3",
                     "--profile"]) == 0
        err = capsys.readouterr().err
        assert "mapper.evaluations" in err
        assert "engine.evaluations" in err
        assert "mcts.sample " in err
        assert "ga.generation" in err
        # Counters that only repeated a span or event are gone.
        for repeated in ("mcts.samples", "ga.generations",
                         "mapper.best_cost", "ga.fitness_reused"):
            assert repeated not in err

    def test_trace_then_stats_reproduces_summary(self, tmp_path, capsys):
        trace = str(tmp_path / "search.jsonl")
        assert main(["search", "ViT/16-B", "--generations", "1",
                     "--population", "4", "--samples", "3",
                     "--profile", "--trace", trace]) == 0
        live = capsys.readouterr().err.strip()
        assert main(["stats", trace]) == 0
        replayed = capsys.readouterr().out.strip()
        assert replayed == live

    def test_stats_json(self, tmp_path, capsys):
        import json
        trace = str(tmp_path / "eval.jsonl")
        assert main(["evaluate", "Bert-S", "tileflow", "--quiet",
                     "--trace", trace]) == 0
        capsys.readouterr()
        assert main(["stats", trace, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        spans = {s["name"]: s for s in payload["spans"]}
        assert spans["model.evaluate"]["count"] == 1
        assert set(payload) >= {"spans", "counts", "gauges"}

    def test_tracing_disabled_after_command(self):
        from repro import obs
        assert main(["evaluate", "Bert-S", "tileflow", "--quiet",
                     "--profile"]) == 0
        assert not obs.is_enabled()


class TestClientClosedStdout:
    def test_watch_into_a_reader_that_closes_early_exits_141(self):
        """`repro client watch JOB | head -1`: the reader closing the
        pipe ends the command with the SIGPIPE exit code, not with a
        report that the server cannot be reached."""
        import json
        import os
        import subprocess
        import sys
        import threading

        import repro
        from repro.serve import EvaluationService, make_server

        # No worker threads: the job and its stream are made by hand,
        # far longer than a pipe buffers.
        svc = EvaluationService(workers=1)
        job = svc.queue.submit("evaluate", {})
        svc.queue.claim(timeout=1)
        for seq in range(5000):
            job.append_event({"type": "event", "kind": "run.start",
                              "seq": seq, "pad": "x" * 64})
        svc.queue.finish(job, {})
        httpd = make_server("127.0.0.1", 0, svc)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(repro.__file__)))
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "client", "watch",
                 "--url", f"http://127.0.0.1:{httpd.server_address[1]}",
                 job.id],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
            first = proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            httpd.shutdown()
            httpd.server_close()
        assert json.loads(first)["seq"] == 0
        assert proc.returncode == 141, err
        assert b"cannot reach" not in err
        assert b"Traceback" not in err


class TestClientResultTimeout:
    def test_live_job_past_the_timeout_is_reported_as_such(self):
        """`repro client result --timeout` on a job that is still live
        names the job's state, not an unreachable server (the
        TimeoutError it raises is an OSError too)."""
        import threading

        from repro.serve import EvaluationService, make_server

        svc = EvaluationService(workers=1)  # never started: stays queued
        job = svc.submit("evaluate", {"workload": "Bert-S",
                                      "dataflow": "layerwise"})
        httpd = make_server("127.0.0.1", 0, svc)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        try:
            with pytest.raises(SystemExit) as exc:
                main(["client", "result", job.id, "--timeout", "0.3",
                      "--url",
                      f"http://127.0.0.1:{httpd.server_address[1]}"])
        finally:
            httpd.shutdown()
            httpd.server_close()
        assert "still 'queued'" in str(exc.value.code)
        assert "cannot reach" not in str(exc.value.code)
