"""Long searches price every MCTS point on the scalar genome plan.

One subprocess runs a ``repro search`` whose tunes have at least
``BATCH_MIN_SAMPLES`` samples each, the budget from which the engine
used to hand points to the batched cohort layer, and then one service
``evaluate`` job.  Neither may load NumPy or ``repro.analysis.batched``,
and the search's champion stays the one the batched layer priced.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: 1 generation x 4 genomes x 1100 samples of CC1 on edge.
SEARCH = ["search", "CC1", "--generations", "1", "--population", "4",
          "--samples", "1100", "--json", "--quiet"]
#: The champion of that search, as priced with the batched layer
#: engaged (1280 of its points were swept).
CHAMPION_LATENCY = 4064256.0
CHAMPION_SIGNATURE = "92ad3732a0b4125a"
CHAMPION_FACTORS = {"g0_c1": 192, "g0_p": 110, "g0_q": 1}

SCRIPT = r"""
import contextlib, io, json, sys

from repro.cli import main
from repro.obs.ledger import RunLedger
from repro.serve.service import EvaluationService

ledger, argv = sys.argv[1], json.loads(sys.argv[2])
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = main(argv + ["--ledger", ledger, "--run-id", "search"])
search = json.loads(out.getvalue())
champion = RunLedger(ledger).load("search")["champion"]

service = EvaluationService(workers=1).start()
try:
    job = service.submit("evaluate", {"workload": "Bert-S",
                                      "dataflow": "layerwise"})
    assert service.wait_drained(timeout=60)
finally:
    service.stop()

print(json.dumps({
    "rc": rc, "latency_cycles": search["result"]["latency_cycles"],
    "factors": search["best_factors"], "signature": champion["signature"],
    "job_state": job.state,
    "loaded": sorted(m for m in sys.modules
                     if m == "numpy" or m.startswith("repro.analysis.batched")),
}))
"""


@pytest.fixture(scope="module")
def long_search(tmp_path_factory):
    ledger = tmp_path_factory.mktemp("ledger")
    # CC1's energy depends on the hash seed (ROADMAP item 5); its
    # latency and champion do not, but a fixed seed keeps runs alike.
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ledger), json.dumps(SEARCH)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_budget_reaches_the_old_batching_threshold():
    from repro.analysis.batched.sweep import BATCH_MIN_SAMPLES
    assert int(SEARCH[SEARCH.index("--samples") + 1]) >= BATCH_MIN_SAMPLES


def test_search_and_evaluate_job_never_load_batched_or_numpy(long_search):
    assert long_search["rc"] == 0
    assert long_search["job_state"] == "done"
    assert long_search["loaded"] == []


def test_champion_equals_the_batched_layers(long_search):
    assert long_search["latency_cycles"] == CHAMPION_LATENCY
    assert long_search["signature"] == CHAMPION_SIGNATURE
    assert long_search["factors"] == CHAMPION_FACTORS
