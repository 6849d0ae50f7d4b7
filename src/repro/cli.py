"""Command-line interface: ``python -m repro <command>``.

Thin wrappers over the library for the common flows:

* ``evaluate``  — build a named dataflow for a workload and print the
  evaluation summary (optionally the tree and notation).
* ``compare``   — run the dataflow comparison for one workload family.
* ``search``    — run the GA+MCTS mapper on one workload.
* ``validate``  — run the Fig. 8 validation sweeps.
* ``experiment``— regenerate one paper table/figure by id (fig10, tab7,
  ...), the same output the benches print.
* ``stats``     — replay a ``--trace`` JSONL file into the profile
  summary ``--profile`` prints.
* ``runs``      — list/show/diff the persistent run ledger written by
  ``search --ledger DIR``.
* ``explain``   — per-pass self-time and artifact provenance (context
  memo vs subtree cache vs fresh) of one evaluation, plus the exact
  pre-screen bound that would fire.

Every command accepts the observability flags ``--trace FILE``
(``--trace-format jsonl|chrome``) and ``--profile`` (see
:mod:`repro.obs` and docs/OBSERVABILITY.md) plus the output-mode
flags ``--json`` / ``--quiet``.  All output is routed
through one :class:`OutputWriter`: in ``--json`` mode only the JSON
payload reaches stdout (no interleaved headers), and the ``--profile``
summary goes to stderr so it never corrupts machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, IO, List, Optional

from . import arch as arch_mod
from . import obs
from . import workloads as workloads_mod
from .analysis import TileFlowModel
from .dataflows import dataflow_for, dataflow_names
from .mapper import TileFlowMapper
from .obs import events as events_mod
from .obs import ledger as ledger_mod
from .tile import render_notation


class OutputWriter:
    """Single sink for all CLI output.

    ``emit`` carries human-readable text (suppressed by ``--quiet`` and
    in ``--json`` mode); ``emit_json`` carries the machine-readable
    payload (printed only in ``--json`` mode).  A command's result is
    therefore exactly one of the two streams, never an interleaving.
    """

    def __init__(self, json_mode: bool = False, quiet: bool = False,
                 stream: Optional[IO[str]] = None):
        self.json_mode = json_mode
        self.quiet = quiet
        self.stream = stream if stream is not None else sys.stdout

    def emit(self, text: str = "") -> None:
        if not (self.quiet or self.json_mode):
            print(text, file=self.stream)

    def emit_json(self, payload: Any, indent: Optional[int] = 2) -> None:
        if self.json_mode:
            json.dump(payload, self.stream, indent=indent, allow_nan=False)
            self.stream.write("\n")


def _int_at_least(low: int):
    """An argparse ``type=``: an int no smaller than ``low`` (else the
    parser exits with status 2)."""
    def parse(text: str) -> int:
        value = int(text)  # ValueError: argparse's "invalid int value"
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


def _workload(args):
    try:
        return workloads_mod.by_name(args.workload)
    except KeyError as exc:
        raise SystemExit(exc.args[0] if exc.args else str(exc))


def _dataflow(workload, name, spec):
    return dataflow_for(workload, name, spec)


def cmd_evaluate(args) -> int:
    w = args.writer
    workload = _workload(args)
    spec = arch_mod.by_name(args.arch)
    tree = _dataflow(workload, args.dataflow, spec)
    result = TileFlowModel(spec).evaluate(tree)
    w.emit_json(result.to_dict())
    if args.show_tree:
        w.emit(tree.render())
        w.emit()
    if args.show_notation:
        w.emit(render_notation(tree))
        w.emit()
    w.emit(result.summary())
    return 0 if result.feasible else 1


def cmd_compare(args) -> int:
    w = args.writer
    workload = _workload(args)
    spec = arch_mod.by_name(args.arch)
    names = dataflow_names(workload)
    model = TileFlowModel(spec)
    base = None
    rows = []
    w.emit(f"{'dataflow':12s} {'cycles':>12s} {'speedup':>8s} "
           f"{'DRAM words':>12s}")
    for name in names:
        result = model.evaluate(_dataflow(workload, name, spec))
        base = base or result.latency_cycles
        w.emit(f"{name:12s} {result.latency_cycles:12.4g} "
               f"{base / result.latency_cycles:7.2f}x "
               f"{result.dram_words():12.4g}")
        rows.append({"dataflow": name,
                     "latency_cycles": result.latency_cycles,
                     "speedup": base / result.latency_cycles,
                     "dram_words": result.dram_words(),
                     "feasible": result.feasible})
    w.emit_json({"workload": args.workload, "arch": spec.name,
                 "dataflows": rows})
    return 0


def cmd_search(args) -> int:
    import time

    from .engine import EvaluationEngine
    from .engine.manifest import search_run_manifest

    w = args.writer
    workload = _workload(args)
    spec = arch_mod.by_name(args.arch)
    engine = EvaluationEngine(workload, spec, workers=args.workers)
    mapper = TileFlowMapper(workload, spec, seed=args.seed,
                            workers=args.workers, engine=engine)
    start = time.perf_counter()
    try:
        result = mapper.explore(generations=args.generations,
                                population=args.population,
                                mcts_samples=args.samples)
        wall_s = time.perf_counter() - start
    finally:
        engine.shutdown()
    if args.ledger:
        ledger = ledger_mod.RunLedger(args.ledger)
        run_id = args.run_id or ledger.new_run_id(salt=args.workload)
        manifest = search_run_manifest(
            run_id=run_id, engine=engine, result=result,
            generations=args.generations,
            population=args.population, samples=args.samples,
            workers=args.workers, seed=args.seed, wall_s=wall_s)
        try:
            path = ledger.record(manifest)
        except ledger_mod.LedgerError as exc:
            raise SystemExit(str(exc))
        w.emit(f"run recorded: {run_id} -> {path}")
    w.emit_json(result.to_dict())
    w.emit(f"best ordering/binding: "
           f"{result.best_genome.describe(workload)}")
    w.emit(f"best factors         : {result.best_factors}")
    w.emit(result.best_result.summary())
    return 0


def cmd_validate(args) -> int:
    from .experiments.validation import (format_validation,
                                         validate_against_accelerator,
                                         validate_against_polyhedron)
    poly = validate_against_polyhedron(limit=args.mappings)
    accel = validate_against_accelerator(limit=min(131, args.mappings))
    text = format_validation(poly, accel)
    args.writer.emit(text)
    args.writer.emit_json({"experiment": "fig8", "output": text,
                           "data": {"polyhedron": poly.to_dict(),
                                    "accelerator": accel.to_dict()}},
                          indent=None)
    return 0


_EXPERIMENTS = ("fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
                "fig14", "tab6", "tab7", "tab8", "ablation")


def cmd_experiment(args) -> int:
    """Print one experiment's blocks; ``--json`` prints them as
    ``output`` next to the numbers behind them as ``data``, on one line
    (the payload is data for tools; ``python -m json.tool`` indents it)."""
    from .experiments import ablation, comparison as cmp, gpu
    from .experiments import energy_breakdown as energy, exploration as ex
    from .experiments import sensitivity as sens
    w = args.writer
    eid = args.id.lower()
    if eid == "fig8":
        return cmd_validate(argparse.Namespace(mappings=1152, writer=w))
    if eid == "fig9":
        budget = dict(generations=4, population=6, mcts_samples=10)
        traces = {
            "9a": ex.factor_tuning_trace(samples=40),
            "9b": ex.space_exploration_trace(ex.attention_space_workloads(
                ("Bert-S", "Bert-B", "ViT/14-B")), **budget),
            "9c": ex.space_exploration_trace(ex.conv_space_workloads(
                ("CC3", "CC4")), **budget)}
        titles = ("Figure 9a", "Figure 9b: 3D-space tuning (self-attention)",
                  "Figure 9c: 3D-space tuning (conv chains)")
        blocks = [ex.format_traces(t, title)
                  for t, title in zip(traces.values(), titles)]
        data = {fig: t.to_dict() for fig, t in traces.items()}
    elif eid in ("fig10", "fig11"):
        result = cmp.attention_comparison(
            arch_mod.edge() if eid == "fig10" else arch_mod.cloud())
        blocks = [cmp.format_normalized_cycles(result, f"Figure {eid[3:]}a")]
        if eid == "fig10":
            blocks += [
                cmp.format_dram_movement(
                    result, "Figure 10b: normalized DRAM data movement"),
                cmp.format_onchip_movement(
                    result, 1, "Figure 10c: normalized L1 data movement"),
                cmp.format_l1_breakdown(
                    result, "Bert-B",
                    "Figure 10d: L1 movement breakdown (Bert-B)")]
        else:
            blocks += [
                cmp.format_onchip_movement(
                    result, 2, "Figure 11b: normalized L2 data movement"),
                cmp.format_onchip_movement(
                    result, 1, "Figure 11c: normalized L1 data movement"),
                cmp.format_utilization(
                    result, "Figure 11d: level-1 instances occupied")]
        data = result.to_dict()
    elif eid == "fig12":
        result = cmp.conv_comparison()
        blocks = [cmp.format_normalized_cycles(result, "Figure 12a"),
                  cmp.format_dram_movement(
                      result, "Figure 12b: normalized DRAM access")]
        data = result.to_dict()
    elif eid == "fig13":
        breakdown = energy.energy_breakdown()
        blocks, data = ([energy.format_breakdown(breakdown)],
                        breakdown.to_dict())
    elif eid == "fig14":
        sweeps = [sens.bandwidth_sensitivity(shape) for shape in ("CC1",
                                                                  "CC2")]
        blocks = [sens.format_bandwidth_sweep(s) for s in sweeps]
        data = {s.shape: s.to_dict() for s in sweeps}
    elif eid == "tab6":
        data = sens.pe_size_sweep()
        blocks = [sens.format_pe_sweep(data)]
    elif eid == "tab7":
        tables = {scenario: sens.granularity_study(scenario)
                  for scenario in ("fixed", "explored", "limited")}
        blocks = [sens.format_granularity(scenario, rows)
                  for scenario, rows in tables.items()]
        data = {scenario: {r.dataflow: r.to_dict() for r in rows}
                for scenario, rows in tables.items()}
    elif eid == "tab8":
        rows = gpu.gpu_evaluation()
        blocks, data = [gpu.format_gpu(rows)], {}
        for r in rows:
            data.setdefault(r.model, {}).setdefault(
                r.dataflow, {})[str(r.seq_len)] = r.to_dict()
    elif eid == "ablation":
        rules = {rule: ablation.movement_rule_ablation(rule)
                 for rule in ("eviction", "rmw")}
        binding = ablation.binding_ablation()
        blocks = [ablation.format_rule_ablation(rule, rows)
                  for rule, rows in rules.items()]
        blocks.append(ablation.format_binding_ablation(binding))
        data = {rule: {r.dataflow: r.to_dict() for r in rows}
                for rule, rows in rules.items()}
        data["binding"] = binding
    else:
        raise SystemExit(f"unknown experiment {args.id!r}; "
                         f"choose from {_EXPERIMENTS}")
    for block in blocks:
        w.emit(block)
    w.emit_json({"experiment": eid, "output": "\n".join(blocks),
                 "data": data}, indent=None)
    return 0


def cmd_stats(args) -> int:
    """Replay a trace file into the ``--profile`` summary."""
    try:
        records = obs.load_jsonl(args.trace_file)
    except OSError as exc:
        raise SystemExit(f"cannot read trace file: {exc}")
    except ValueError as exc:
        raise SystemExit(
            f"{args.trace_file} is not a JSONL trace file ({exc}); "
            f"expected a file written by --trace")
    args.writer.emit(obs.render_profile(records, top=args.top))
    args.writer.emit_json(obs.profile_dict(records))
    return 0


def cmd_runs(args) -> int:
    """Inspect the persistent run ledger (list | show | diff)."""
    w = args.writer
    ledger = ledger_mod.RunLedger(args.root)
    try:
        if args.verb == "list":
            manifests = ledger.manifests()
            w.emit(ledger_mod.render_run_list(manifests))
            w.emit_json({"runs": manifests})
            return 0
        if args.verb == "show":
            ids = args.run_ids or ledger.run_ids()[-1:]
            if not ids:
                raise SystemExit("runs show: ledger is empty")
            manifest = ledger.load(ids[0])
            w.emit(ledger_mod.render_manifest(manifest))
            w.emit_json(manifest)
            return 0
        # diff: explicit A B, or the two most recent runs.
        ids = args.run_ids or ledger.run_ids()[-2:]
        if len(ids) != 2:
            raise SystemExit("runs diff: need two run ids (or a ledger "
                             "with at least two runs)")
        diff = ledger_mod.diff_manifests(ledger.load(ids[0]),
                                         ledger.load(ids[1]),
                                         tolerance=args.tolerance)
        w.emit(ledger_mod.render_diff(diff))
        w.emit_json(diff)
        if args.fail_on_regression and diff["champion"]["regressed"]:
            return 1
        return 0
    except ledger_mod.LedgerError as exc:
        raise SystemExit(str(exc))


def cmd_explain(args) -> int:
    """Per-pass timing + artifact provenance of one evaluation."""
    from .obs import explain as explain_mod  # lazy: imports the engine

    w = args.writer
    if args.run:
        # Explain a recorded ledger run (CLI- or service-produced): the
        # champion tree is rebuilt from the manifest's genome encoding
        # or dataflow name.
        try:
            manifest = ledger_mod.RunLedger(args.root).load(args.run)
            tree, spec = explain_mod.tree_from_manifest(manifest)
        except ledger_mod.LedgerError as exc:
            raise SystemExit(str(exc))
        w.emit(f"run {args.run}: champion of "
               f"{(manifest.get('workload') or {}).get('name')} on "
               f"{(manifest.get('arch') or {}).get('name')}")
    else:
        if not (args.workload and args.dataflow):
            raise SystemExit("explain: give WORKLOAD DATAFLOW, or "
                             "--run RUN_ID to explain a ledger run")
        workload = _workload(args)
        spec = arch_mod.by_name(args.arch)
        tree = _dataflow(workload, args.dataflow, spec)
    report = explain_mod.explain_tree(tree, spec)
    w.emit(explain_mod.render_explain(report))
    w.emit_json(report)
    return 0


def cmd_serve(args) -> int:
    """Run the long-lived evaluation service (see docs/SERVICE.md)."""
    import signal
    import threading

    from .serve import EvaluationService, make_server

    w = args.writer
    service = EvaluationService(workers=args.workers,
                                max_queue=args.max_queue,
                                ledger_root=args.ledger,
                                subtree_cache_size=args.cache_bound).start()
    httpd = make_server(args.host, args.port, service,
                        max_body=args.max_body_kb * 1024)
    host, port = httpd.server_address[:2]
    w.emit(f"serving on http://{host}:{port} "
           f"(workers={args.workers}, max-queue={args.max_queue}, "
           f"ledger={args.ledger or 'off'})")

    def drain(_signum=None, _frame=None):
        # First signal: drain gracefully (finish in-flight jobs, flush
        # the ledger, then stop accepting connections).
        if service.draining:
            return
        service.begin_drain()
        w.emit("draining: waiting for in-flight jobs "
               "(submit returns 503 + Retry-After)")

        def finish():
            service.wait_drained()
            httpd.shutdown()

        threading.Thread(target=finish, daemon=True).start()

    signal.signal(signal.SIGINT, drain)
    signal.signal(signal.SIGTERM, drain)
    try:
        httpd.serve_forever(poll_interval=0.2)
    finally:
        httpd.server_close()
        service.stop()
        w.emit("drained; all jobs flushed")
    return 0


def cmd_client(args) -> int:
    """Submit jobs to / inspect a running evaluation service."""
    from .serve import ServiceClient, ServiceError

    w = args.writer
    try:
        client = ServiceClient(args.url)
    except ValueError as exc:
        raise SystemExit(f"client: {exc}")
    if args.verb in ("status", "watch", "result") and not args.job_id:
        raise SystemExit(f"client {args.verb}: a job id is required")
    try:
        if args.verb == "submit":
            spec = {"workload": args.workload, "arch": args.arch}
            if args.kind == "evaluate":
                if not args.dataflow:
                    raise SystemExit("client submit evaluate: --dataflow "
                                     "is required")
                spec["dataflow"] = args.dataflow
            elif args.kind == "search":
                spec.update(generations=args.generations,
                            population=args.population,
                            samples=args.samples, seed=args.seed)
            job = client.submit(args.kind, spec)
            w.emit(f"submitted {job['id']} ({args.kind}, "
                   f"state {job['state']})")
            if args.wait:
                job = client.result(job["id"], timeout=args.timeout)
                w.emit(f"{job['id']}: {job['state']}")
            w.emit_json(job)
            return 0 if job.get("state") in ("queued", "running",
                                             "done") else 1
        if args.verb == "status":
            job = client.status(args.job_id)
            w.emit(f"{job['id']}: {job['state']} "
                   f"({job['events']} events, run {job.get('run_id')})")
            w.emit_json(job)
            return 0
        if args.verb == "result":
            job = client.result(args.job_id, timeout=args.timeout)
            w.emit(f"{job['id']}: {job['state']}")
            if job.get("error"):
                w.emit(f"error: {job['error']}")
            w.emit_json(job)
            return 0 if job.get("state") == "done" else 1
        if args.verb == "watch":
            # NDJSON passthrough: each event line straight to stdout
            # (machine-readable even without --json).
            for event in client.watch(args.job_id):
                print(json.dumps(event, sort_keys=True))
            return 0
        if args.verb == "cache-clear":
            outcome = client.clear_cache(
                reset_counters=args.reset_counters)
            if outcome.get("cleared"):
                w.emit(f"cache cleared: {outcome.get('entries_dropped')} "
                       f"entries and {outcome.get('results_dropped')} "
                       f"kept results dropped across "
                       f"{outcome.get('engines')} engine(s)")
            else:
                w.emit(f"cache clear failed: {outcome.get('error')}")
            w.emit_json(outcome)
            return 0 if outcome.get("cleared") else 1
        # stats
        stats = client.stats()
        jobs = stats.get("jobs", {})
        cache = stats.get("subtree_cache", {})
        w.emit(f"status {stats.get('status')} | uptime "
               f"{stats.get('uptime_s', 0.0):.0f}s | jobs "
               + " ".join(f"{k}={v}" for k, v in sorted(jobs.items()))
               + f" | queue {stats.get('queue', {}).get('depth')}/"
                 f"{stats.get('queue', {}).get('max')}")
        w.emit(f"subtree cache: {cache.get('hits')} hits / "
               f"{cache.get('misses')} misses / "
               f"{cache.get('entries')} entries")
        for name, engine in sorted(stats.get("engines", {}).items()):
            w.emit(f"engine {name}: " + " ".join(
                f"{k}={engine[k]}" for k in ("evaluations", "subtree_hits")
                if k in engine))
        w.emit_json(stats)
        return 0
    except ServiceError as exc:
        raise SystemExit(f"service error: {exc}")
    except BrokenPipeError:  # our stdout closed, e.g. `... | head`
        raise
    except TimeoutError as exc:  # an OSError: caught before the next
        raise SystemExit(str(exc))
    except (ConnectionError, OSError) as exc:
        raise SystemExit(f"cannot reach {args.url}: {exc}")


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser: positionals may follow options.

    argparse binds an optional positional (``client``'s job id,
    ``runs``' run ids, ``explain``'s names) as soon as the positionals
    before an option are consumed, so ``client watch --url URL JOB``
    would reject ``JOB``.  Intermixed parsing reads the options first
    and then every positional, wherever it stands.
    """

    _intermixing = False

    def parse_known_args(self, args=None, namespace=None):
        if self._intermixing:  # the two passes of the intermixed parse
            return super().parse_known_args(args, namespace)
        self._intermixing = True
        try:
            return self.parse_known_intermixed_args(args, namespace)
        finally:
            self._intermixing = False


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    out = common.add_argument_group("output")
    out.add_argument("--json", action="store_true",
                     help="emit only machine-readable JSON on stdout")
    out.add_argument("--quiet", action="store_true",
                     help="suppress human-readable output")
    prof = common.add_argument_group("observability")
    prof.add_argument("--trace", metavar="FILE", default=None,
                      help="record every span, counter and event to a "
                           "trace file (replay JSONL traces with "
                           "`repro stats FILE`; schema: "
                           "tests/data/event_schema.json)")
    prof.add_argument("--trace-format", choices=("jsonl", "chrome"),
                      default="jsonl",
                      help="trace file format: line-based JSONL (default) "
                           "or a Chrome Trace Event JSON for "
                           "chrome://tracing / ui.perfetto.dev")
    prof.add_argument("--profile", action="store_true",
                      help="print a profile summary (spans by self-time, "
                           "counters) to stderr when the command finishes")

    from .engine.cache import DEFAULT_SUBTREE_CACHE_SIZE

    parser = argparse.ArgumentParser(
        prog="repro", description="TileFlow reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_CommandParser)

    p = sub.add_parser("evaluate", parents=[common],
                       help="evaluate one dataflow")
    p.add_argument("workload", help="shape name (Bert-S, CC1, ...)")
    p.add_argument("dataflow", help="dataflow template name")
    p.add_argument("--arch", default="edge")
    p.add_argument("--show-tree", action="store_true")
    p.add_argument("--show-notation", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", parents=[common],
                       help="compare all dataflows")
    p.add_argument("workload")
    p.add_argument("--arch", default="edge")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("search", parents=[common],
                       help="run the GA+MCTS mapper")
    p.add_argument("workload")
    p.add_argument("--arch", default="edge")
    p.add_argument("--generations", type=int, default=6)
    p.add_argument("--population", type=int, default=10)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=_int_at_least(1), default=1,
                   help="worker processes for population evaluation "
                        "(results are identical for any value; see "
                        "docs/PERFORMANCE.md)")
    p.add_argument("--ledger", metavar="DIR", default=None,
                   help="record a run manifest under DIR (inspect with "
                        "`repro runs list|show|diff`)")
    p.add_argument("--run-id", default=None,
                   help="explicit run id for --ledger (default: "
                        "timestamp-<workload>)")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("validate", parents=[common],
                       help="Fig. 8 validation sweeps")
    p.add_argument("--mappings", type=int, default=256)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("experiment", parents=[common],
                       help="regenerate a table/figure")
    p.add_argument("id", help=f"one of {_EXPERIMENTS}")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("stats", parents=[common],
                       help="summarize a JSONL trace file")
    p.add_argument("trace_file", help="file written by --trace")
    p.add_argument("--top", type=int, default=20,
                   help="span names to show (by self-time)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("runs", parents=[common],
                       help="inspect the run ledger")
    p.add_argument("verb", choices=("list", "show", "diff"))
    p.add_argument("run_ids", nargs="*",
                   help="run id for show / two ids (A B) for diff; "
                        "defaults to the most recent run(s)")
    p.add_argument("--root", default=ledger_mod.DEFAULT_RUNS_ROOT,
                   help="ledger directory (default: runs/)")
    p.add_argument("--tolerance", type=float, default=0.0,
                   help="relative champion-cost slack before diff calls "
                        "a regression")
    p.add_argument("--fail-on-regression", action="store_true",
                   help="exit nonzero when diff detects a champion-cost "
                        "regression")
    p.set_defaults(func=cmd_runs)

    p = sub.add_parser("explain", parents=[common],
                       help="per-pass timing + artifact provenance of "
                            "one evaluation")
    p.add_argument("workload", nargs="?", default=None,
                   help="shape name (Bert-S, CC1, ...); omit with --run")
    p.add_argument("dataflow", nargs="?", default=None,
                   help="dataflow template name; omit with --run")
    p.add_argument("--arch", default="edge")
    p.add_argument("--run", default=None, metavar="RUN_ID",
                   help="explain a recorded ledger run's champion "
                        "(CLI- or service-produced) instead of a named "
                        "dataflow")
    p.add_argument("--root", default=ledger_mod.DEFAULT_RUNS_ROOT,
                   help="ledger directory for --run (default: runs/)")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("serve", parents=[common],
                       help="run the long-lived evaluation service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8731)
    p.add_argument("--workers", type=_int_at_least(1), default=2,
                   help="worker threads executing jobs")
    p.add_argument("--max-queue", type=_int_at_least(1), default=64,
                   help="pending-job bound (submissions beyond it get "
                        "HTTP 429)")
    p.add_argument("--ledger", metavar="DIR",
                   default=ledger_mod.DEFAULT_RUNS_ROOT,
                   help="record completed jobs under DIR (default: "
                        "runs/; empty string disables)")
    p.add_argument("--max-body-kb", type=_int_at_least(1), default=64,
                   help="request-body cap in KiB (HTTP 413 beyond it)")
    p.add_argument("--cache-bound", type=_int_at_least(0),
                   default=DEFAULT_SUBTREE_CACHE_SIZE,
                   help="in-memory subtree artifact cache entry bound "
                        "(0 disables incremental reuse)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("client", parents=[common],
                       help="talk to a running evaluation service")
    p.add_argument("verb", choices=("submit", "status", "watch",
                                    "result", "stats", "cache-clear"))
    p.add_argument("--url", default="http://127.0.0.1:8731",
                   help="service endpoint")
    p.add_argument("--kind", choices=("evaluate", "search", "sweep"),
                   default="evaluate", help="job kind for submit")
    p.add_argument("--workload", default="Bert-S")
    p.add_argument("--arch", default="edge")
    p.add_argument("--dataflow", default=None,
                   help="dataflow name (evaluate jobs)")
    p.add_argument("--generations", type=int, default=3)
    p.add_argument("--population", type=int, default=6)
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--wait", action="store_true",
                   help="submit: block until the job is terminal")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="seconds to wait in result/--wait")
    p.add_argument("--reset-counters", action="store_true",
                   help="cache-clear: also zero the cache's lifetime "
                        "hit/miss/eviction counters")
    p.add_argument("job_id", nargs="?", default=None,
                   help="job id for status/watch/result")
    p.set_defaults(func=cmd_client)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    import time

    args = build_parser().parse_args(argv)
    args.writer = OutputWriter(json_mode=getattr(args, "json", False),
                               quiet=getattr(args, "quiet", False))
    trace_path = getattr(args, "trace", None)
    chrome = getattr(args, "trace_format", "jsonl") == "chrome"
    profile = getattr(args, "profile", False)
    trace_fh = None
    sinks: List[events_mod.Sink] = []
    if trace_path:
        try:  # open eagerly so a bad path fails before the run, not after
            trace_fh = open(trace_path, "w")
        except OSError as exc:
            raise SystemExit(f"cannot write trace file: {exc}")
        if not chrome:
            sinks.append(events_mod.JsonlSink(trace_fh))
    ring = None
    if profile or (trace_fh is not None and chrome):
        ring = events_mod.RingSink(capacity=None)
        sinks.append(ring)
    bus = (events_mod.enable(sinks=sinks, profiling=True) if sinks
           else None)
    if bus is not None:
        bus.emit("run.start", command=args.command,
                 label=getattr(args, "workload", "") or "")
    start = time.perf_counter()
    rc: Optional[int] = None
    try:
        rc = args.func(args)
    except BrokenPipeError:  # e.g. `repro stats trace.jsonl | head`
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        rc = 141  # 128 + SIGPIPE, the conventional shell exit code
    finally:
        if bus is not None:
            bus.emit("run.end", command=args.command,
                     outcome="ok" if rc == 0 else
                     ("error" if rc is None else f"exit:{rc}"),
                     wall_s=time.perf_counter() - start)
            events_mod.disable()
            bus.close()
        if trace_fh is not None:
            with trace_fh:
                if chrome:
                    obs.dump_chrome(trace_fh, ring.records)
        if profile:
            print(obs.render_profile(ring.records), file=sys.stderr)
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
