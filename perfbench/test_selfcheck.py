"""Self-check of the benchmark: exact counts, metric names, refusal.

    python3 -m pytest perfbench/test_selfcheck.py -q

Runs each serial search workload twice at the smallest size (one
search) with different workload seeds, traced and untraced, in
processes with the same ``PYTHONHASHSEED``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Per-layer counts that must repeat exactly on a serial search.
EXACT_COUNTS = ("mapper.tunes", "mapper.evals", "tile.builds",
                "engine.evaluations", "engine.early_exits",
                "cache.subtree_misses", "cache.subtree_evictions",
                "batched.evaluations", "batched.fill",
                "analysis.datamovement_calls")


def run(workload, seed, trace, cwd=ROOT, hash_seed="0"):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
        env=dict(os.environ, PYTHONHASHSEED=hash_seed))


def result(workload, seed, trace, hash_seed="0"):
    proc = run(workload, seed, trace, hash_seed=hash_seed)
    assert proc.returncode == 0, proc.stderr
    *_, provenance, last = proc.stdout.strip().splitlines()
    return json.loads(provenance)["provenance"], json.loads(last)


def check_names_and_units(res, declared):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    units = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == units


@pytest.mark.parametrize("workload", ["search-default", "search-long"])
def test_serial_search_repeats_exactly(workload):
    (_, a), (_, b) = result(workload, 1, 0), result(workload, 2, 0)
    for res in (a, b):
        check_names_and_units(res, SPEC["end_to_end"])
        assert res["correct"] and res["failed"] == 0
    assert (a["metrics"]["result_cycles"]["value"]
            == b["metrics"]["result_cycles"]["value"])

    (pa, ta), (pb, tb) = result(workload, 1, 1), result(workload, 2, 1)
    for prov, res in ((pa, ta), (pb, tb)):
        check_names_and_units(res, SPEC["per_layer"])
        assert res["correct"] and prov["traced_champions_match"]
    for name in EXACT_COUNTS:
        assert (ta["metrics"][name]["value"]
                == tb["metrics"][name]["value"]), name
    batched = ta["metrics"]["batched.evaluations"]["value"]
    assert (batched > 0) == (workload == "search-long")


@pytest.mark.xfail(strict=True, reason=(
    "program defect: with analysis.batched engaged, subtree cache misses "
    "and evictions depend on PYTHONHASHSEED (champions do not)"))
def test_search_long_counts_do_not_depend_on_hash_seed():
    _, a = result("search-long", 1, 1, hash_seed="0")
    _, b = result("search-long", 1, 1, hash_seed="7")
    for name in EXACT_COUNTS:
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"], name


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("search-default", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
