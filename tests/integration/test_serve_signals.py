"""Fault injection: ``repro serve`` receives SIGTERM while a job runs.

The server drains: the running job finishes, its ledger manifest is
written, and the process exits 0 after printing "drained".  The job's
champion equals a direct :class:`~repro.mapper.TileFlowMapper` run with
the same seed.
"""

import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
import time

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    os.pardir)
SPEC = {"workload": "Bert-S", "arch": "edge", "generations": 3,
        "population": 6, "samples": 20, "seed": 5}

pytestmark = pytest.mark.skipif(not hasattr(signal, "SIGTERM")
                                or os.name != "posix",
                                reason="needs POSIX signals")


def _request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(method, path,
                     body=None if body is None else json.dumps(body),
                     headers={} if body is None else
                     {"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def _serving_port(proc, timeout=60.0):
    """The port from the server's "serving on http://host:port" line."""
    deadline = time.monotonic() + timeout
    seen = b""
    while time.monotonic() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 0.5)
        if not ready:
            assert proc.poll() is None, seen.decode(errors="replace")
            continue
        line = proc.stdout.readline()
        assert line, f"server exited before serving: {seen!r}"
        seen += line
        match = re.search(rb"serving on http://[^:]+:(\d+)", line)
        if match:
            return int(match.group(1))
    raise AssertionError(f"server did not start: {seen!r}")


def test_sigterm_while_a_search_job_runs_drains_it(tmp_path):
    from repro import arch, workloads
    from repro.mapper import TileFlowMapper
    from repro.obs.events import jsonable_cost
    from repro.obs.ledger import RunLedger

    ledger = tmp_path / "runs"
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
         "--port", "0", "--ledger", str(ledger)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
    try:
        port = _serving_port(proc)
        status, job = _request(port, "POST", "/jobs",
                               {"kind": "search", "spec": SPEC})
        assert status == 202
        deadline = time.monotonic() + 60
        while job["state"] == "queued" and time.monotonic() < deadline:
            time.sleep(0.01)
            job = _request(port, "GET", f"/jobs/{job['id']}")[1]
        assert job["state"] == "running"
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, out.decode(errors="replace")
    assert b"drained" in out

    runs = RunLedger(str(ledger))
    (run_id,) = runs.run_ids()
    assert (ledger / run_id / "manifest.json").is_file()
    manifest = runs.load(run_id)
    assert manifest["job"] == job["id"]

    workload = workloads.by_name(SPEC["workload"])
    direct = TileFlowMapper(workload, arch.by_name(SPEC["arch"]),
                            seed=SPEC["seed"]).explore(
        generations=SPEC["generations"], population=SPEC["population"],
        mcts_samples=SPEC["samples"])
    champion = manifest["champion"]
    assert champion["genome"] == direct.best_genome.describe(workload)
    assert champion["factors"] == dict(direct.best_factors)
    assert champion["cost"] == jsonable_cost(direct.best_cost)
