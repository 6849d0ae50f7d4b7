"""The paper's §7 claims, checked against the pinned experiment data.

Each test reads the ``data`` of ``tests/data/experiments/<id>.json``
(what ``repro experiment <id> --json`` prints) and runs no experiment:
``test_experiment_goldens.py`` proves the files current.  A claim this
reproduction does not meet is listed with its numbers under "Known
gaps" in EXPERIMENTS.md instead of being asserted.  The last test
checks every measured value EXPERIMENTS.md quotes against the files.
"""

import functools
import json
import os
import re

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    os.pardir)
GOLDEN_DIR = os.path.join(ROOT, "tests", "data", "experiments")
FUSED_ATTENTION = ("flat_hgran", "flat_rgran", "chimera", "tileflow")


@functools.lru_cache(maxsize=None)
def data(eid):
    with open(os.path.join(GOLDEN_DIR, f"{eid}.json")) as fh:
        return json.load(fh)["data"]


def non_increasing(values):
    return all(a >= b for a, b in zip(values, values[1:]))


def test_fig8_model_tracks_both_references():
    poly, accel = data("fig8")["polyhedron"], data("fig8")["accelerator"]
    # 8a/8b: 1152 matmul mappings (paper: cycle R^2 = 0.999).
    assert poly["mappings"] == 1152
    assert poly["cycle_r2"] > 0.99 and poly["energy_r2"] > 0.99
    assert poly["cycle_error"] < 0.05
    # 8c/8d: 131 fused mappings; the tree model beats the graph-based
    # scheme (paper: 5.4% vs 48.8%), energy within the paper's 6.1%.
    assert accel["mappings"] == 131
    assert accel["cycle_error"] < accel["extra_cycle_errors"]["graph_based"]
    assert accel["energy_error"] < 0.061


@pytest.mark.parametrize("fig,series,length", [
    ("9a", ["layerwise", "unipipe", "flat_hgran", "flat_rgran", "chimera",
            "tileflow"], 40),
    ("9b", ["Bert-S", "Bert-B", "ViT/14-B"], 4),
    ("9c", ["CC3", "CC4"], 4),
])
def test_fig9_traces_rise_to_the_best_found(fig, series, length):
    traces = data("fig9")[fig]
    assert list(traces) == series
    for trace in traces.values():
        assert len(trace) == length and trace[-1] == 1.0
        assert non_increasing(trace[::-1])
    if fig == "9c":  # the 3D search improves CC3 within 4 generations
        assert traces["CC3"][0] < 1.0


def test_fig10_tileflow_is_fastest_on_edge_and_fusion_cuts_dram():
    fig = data("fig10")
    assert len(fig["shapes"]) == 11
    for per_df in fig["shapes"].values():
        # 10a: every fusion dataflow beats Layerwise; TileFlow wins.
        others = [row["cycles"] for name, row in per_df.items()
                  if name not in ("layerwise", "tileflow")]
        assert per_df["tileflow"]["cycles"] < min(others)
        assert max(others) < per_df["layerwise"]["cycles"]
        # 10b/10c: FLAT removes at least 90% of DRAM traffic (paper
        # ~90%), while L1 movement stays on Layerwise's order.
        assert per_df["flat_hgran"]["dram_ratio"] < 0.1
        assert per_df["flat_rgran"]["dram_ratio"] < 0.1
        base_l1 = per_df["layerwise"]["onchip_words"]["1"]
        assert all(per_df[name]["onchip_words"]["1"] > 0.3 * base_l1
                   for name in FUSED_ATTENTION)
        # 10d: reads dominate FLAT-RGran's L1 movement (paper 80.9%).
        assert per_df["flat_rgran"]["l1_shares"]["read"] > 0.5
    assert fig["geomean_speedups"]["flat_hgran"] > 1.5
    shares = fig["shapes"]["Bert-B"]["flat_rgran"]["l1_shares"]
    assert shares["read"] > shares["update"] > shares["fill"]


def test_fig11_fusion_dataflows_cluster_far_above_layerwise_on_cloud():
    fig = data("fig11")
    gm = fig["geomean_speedups"]
    assert len(fig["shapes"]) == 9
    fused = [gm[name] for name in FUSED_ATTENTION]
    assert min(fused) > 3.0 and max(fused) < 2 * min(fused)
    assert gm["unipipe"] < 2.0
    # 11d: FLAT-HGran occupies fewer sub-cores than RGran and TileFlow.
    for per_df in fig["shapes"].values():
        assert per_df["flat_hgran"]["l1_instances"] < min(
            per_df[name]["l1_instances"] for name in ("flat_rgran",
                                                      "tileflow"))


def test_fig12_fused_layer_cuts_dram_and_isos_gains_little():
    fig = data("fig12")
    assert all(per_df["fused_layer"]["dram_ratio"] < 0.6
               for per_df in fig["shapes"].values())
    assert fig["mean_dram_ratios"]["fused_layer"] < 0.5
    gm = fig["geomean_speedups"]
    assert gm["isos"] < min(1.6, gm["fused_layer"])


def test_fig13_a_larger_l1_dominates_the_energy():
    small, large = data("fig13")["200KB"], data("fig13")["1024KB"]
    for shape, shares in small["shapes"].items():
        assert large["shapes"][shape]["L1"] > shares["L1"]
        assert large["shapes"][shape]["DRAM"] < shares["DRAM"]
    average = large["average"]
    assert average["L1"] > 0.4 and average["L1"] == max(average.values())


@pytest.mark.parametrize("shape", ["CC1", "CC2"])
def test_fig14_tileflow_needs_more_l1_bandwidth(shape):
    sweep = data("fig14")[shape]
    knee = sweep["suitable_gbs"]
    assert knee["fused_layer"] == knee["isos"] == sweep["bandwidths_gbs"][0]
    assert knee["tileflow"] is not None and knee["tileflow"] > knee["isos"]
    assert non_increasing(sweep["slowdown"]["tileflow"])


def test_tab6_tileflow_is_faster_until_the_array_is_large():
    cycles = data("tab6")
    for side in ("8", "16", "32", "64", "128"):
        assert cycles[side]["tileflow"] < cycles[side]["baseline"]
    for name in ("baseline", "tileflow"):
        assert non_increasing([row[name] for row in cycles.values()])
    assert cycles["256"]["baseline"] < cycles["8"]["baseline"] / 10


def test_tab7_finer_granularity_is_faster_and_smaller():
    fixed, explored, limited = (data("tab7")[s] for s in
                                ("fixed", "explored", "limited"))
    flat = ("MGran", "BGran", "HGran", "RGran")
    cycles = [fixed[name]["cycles_1e6"] for name in flat]
    assert non_increasing(cycles) and cycles[0] > cycles[-1]
    l2 = [fixed[name]["l2_used_mb"] for name in flat]
    assert non_increasing(l2) and len(set(l2)) == 4
    assert all(explored[name]["cycles_1e6"] <= row["cycles_1e6"]
               for name, row in fixed.items())
    for name in ("MGran", "BGran"):
        assert limited[name] == {"cycles_1e6": None, "l1_used_mb": None,
                                 "l2_used_mb": None, "oom": True}
    for name in ("RGran", "TileFlow"):
        assert not limited[name]["oom"]
        assert limited[name]["cycles_1e6"] is not None
    assert limited["TileFlow"]["l1_used_mb"] < limited["RGran"]["l1_used_mb"]


@pytest.mark.parametrize("model", ["T5", "XLM"])
def test_tab8_tileflow_scales_past_the_baselines_oom(model):
    baseline, tileflow = (data("tab8")[model][df]
                          for df in ("baseline", "TileFlow"))
    assert baseline["262144"] == {"runtime_ms": None, "oom": True}
    assert all(cell["runtime_ms"] is not None and not cell["oom"]
               for cell in tileflow.values())
    assert all(tileflow[seq]["runtime_ms"] < cell["runtime_ms"]
               for seq, cell in baseline.items() if not cell["oom"])


@pytest.mark.parametrize("rule", ["eviction", "rmw"])
def test_ablating_a_movement_rule_never_adds_traffic_or_cycles(rule):
    rows = data("ablation")[rule]
    assert list(rows) == ["layerwise", "unipipe", "flat_hgran",
                          "flat_rgran", "chimera", "tileflow"]
    assert all(row["dram_ratio"] <= 1.0 and row["cycle_ratio"] <= 1.0
               for row in rows.values())


def test_pipe_binding_is_fastest():
    cycles = data("ablation")["binding"]
    assert cycles["Pipe"] < cycles["Shar"] <= cycles["Seq"]


#: A value EXPERIMENTS.md quotes, then ``<!--<id>:<path>-->`` naming it
#: in ``data``; a ``%`` value is the share times 100, ``OOM`` a null.
QUOTE = re.compile(r"(\d+(?:\.\d+)?|OOM)(%|×)?<!--(\w+):(\S+?)-->")


def test_experiments_md_quotes_the_pinned_numbers():
    with open(os.path.join(ROOT, "EXPERIMENTS.md"), encoding="utf-8") as fh:
        doc = fh.read()
    quotes = QUOTE.findall(doc)
    assert len(quotes) == doc.count("<!--")
    assert {eid for _, _, eid, _ in quotes} == {
        name[:-len(".json")] for name in os.listdir(GOLDEN_DIR)}
    for text, unit, eid, path in quotes:
        value = data(eid)
        for key in path.split("."):
            value = value[int(key) if isinstance(value, list) else key]
        if text == "OOM":
            assert value is None, (eid, path)
            continue
        places = len(text.partition(".")[2])
        scale = 100 if unit == "%" else 1
        assert f"{value * scale:.{places}f}" == text, (eid, path, value)
