"""Persistent run ledger: one manifest per search/evaluation run.

A *run* is one mapper search (or template tune) the user wants to be
able to audit, compare, and regress against later.  The ledger stores
one directory per run::

    runs/
      20260808T101500-1a2b3c4d/
        manifest.json

``manifest.json`` carries everything needed to compare two runs without
re-executing them: the workload/arch namespace fingerprints (the same
digests the engine's caches key on), the seeds and search
configuration, the engine's counters (``EngineStats``),
the champion's canonical signature and scores, and wall-clock.

The CLI verbs sit on top (``repro runs list|show|diff``);
:func:`diff_manifests` is the cross-run regression check CI smoke-runs
(a champion-cost regression between two ledger entries is flagged, and
``--fail-on-regression`` turns it into a nonzero exit).

This module is deliberately stdlib-only and engine-agnostic: callers
(the CLI, bench drivers, a future evaluation server) assemble the
manifest dict via :func:`build_manifest`; nothing here imports the
engine, so ``repro.obs`` stays import-cycle-free.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Mapping, Optional

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"
DEFAULT_RUNS_ROOT = "runs"


class LedgerError(Exception):
    """A ledger directory or manifest is missing, malformed or cannot be
    written."""


def build_manifest(*, run_id: str, command: str,
                   workload: Mapping[str, Any],
                   arch: Mapping[str, Any],
                   config: Mapping[str, Any],
                   seeds: Mapping[str, int],
                   champion: Mapping[str, Any],
                   counters: Mapping[str, Any],
                   wall_s: float,
                   started: Optional[str] = None,
                   namespace: Optional[str] = None,
                   extra: Optional[Mapping[str, Any]] = None
                   ) -> Dict[str, Any]:
    """Assemble a schema-versioned manifest dict.

    ``workload``/``arch`` are ``{"name": ..., "fingerprint": <digest>}``
    mappings; ``champion`` carries at least ``cost`` (finite number or
    None for infeasible) and ``signature`` (the canonical mapping
    digest); ``counters`` is a flat name->number mapping (engine
    stats).
    """
    manifest: Dict[str, Any] = {
        "version": MANIFEST_VERSION,
        "run_id": run_id,
        "command": command,
        "started": started if started is not None else _now_iso(),
        "wall_s": float(wall_s),
        "workload": dict(workload),
        "arch": dict(arch),
        "namespace": namespace,
        "config": dict(config),
        "seeds": {k: int(v) for k, v in seeds.items()},
        "champion": dict(champion),
        "counters": dict(counters),
    }
    if extra:
        manifest.update(dict(extra))
    return manifest


def _now_iso() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.localtime())


class RunLedger:
    """The on-disk ledger rooted at ``root`` (created on first record)."""

    def __init__(self, root: str = DEFAULT_RUNS_ROOT):
        self.root = root

    # -- writing ---------------------------------------------------------
    def new_run_id(self, salt: str = "") -> str:
        """A collision-free ``<timestamp>-<salt>`` run id.

        Path separators in ``salt`` (``ViT/16-B``) become ``-``.
        """
        for sep in filter(None, (os.sep, os.altsep)):
            salt = salt.replace(sep, "-")
        stamp = time.strftime("%Y%m%dT%H%M%S", time.localtime())
        base = f"{stamp}-{salt}" if salt else stamp
        run_id, n = base, 1
        while os.path.exists(self._dir(run_id)):
            n += 1
            run_id = f"{base}-{n}"
        return run_id

    def record(self, manifest: Mapping[str, Any]) -> str:
        """Write ``manifest`` under its ``run_id``; returns the path."""
        run_id = str(manifest.get("run_id") or "")
        if not run_id or os.sep in run_id or run_id in (".", ".."):
            raise LedgerError(f"bad run_id {run_id!r}")
        run_dir = self._dir(run_id)
        os.makedirs(run_dir, exist_ok=True)
        path = os.path.join(run_dir, MANIFEST_NAME)
        tmp = path + ".tmp"
        try:
            with open(tmp, "w") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True,
                          allow_nan=False)
                fh.write("\n")
            os.replace(tmp, path)  # readers never see a half-written one
        except OSError as exc:  # e.g. a full disk
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise LedgerError(f"cannot write {path}: {exc}") from exc
        return path

    # -- reading ---------------------------------------------------------
    def _dir(self, run_id: str) -> str:
        return os.path.join(self.root, run_id)

    def run_ids(self) -> List[str]:
        """Recorded run ids, sorted (timestamps sort chronologically)."""
        if not os.path.isdir(self.root):
            return []
        return sorted(
            name for name in os.listdir(self.root)
            if os.path.isfile(os.path.join(self.root, name, MANIFEST_NAME)))

    def load(self, run_id: str) -> Dict[str, Any]:
        path = os.path.join(self._dir(run_id), MANIFEST_NAME)
        try:
            with open(path) as fh:
                manifest = json.load(fh)
        except OSError:
            known = ", ".join(self.run_ids()) or "(ledger is empty)"
            raise LedgerError(f"no run {run_id!r} under {self.root!r}; "
                              f"known runs: {known}") from None
        except json.JSONDecodeError as exc:
            raise LedgerError(f"{path} is not valid JSON: {exc}") from None
        if not isinstance(manifest, dict):
            raise LedgerError(f"{path} does not hold a manifest object")
        return manifest

    def manifests(self) -> List[Dict[str, Any]]:
        return [self.load(run_id) for run_id in self.run_ids()]


# ---------------------------------------------------------------------------
# Cross-run comparison.

def diff_manifests(a: Mapping[str, Any], b: Mapping[str, Any],
                   tolerance: float = 0.0) -> Dict[str, Any]:
    """Structured comparison of two run manifests (A = baseline).

    ``champion.regressed`` is True when B's champion cost is worse than
    A's by more than ``tolerance`` (relative), or when B lost
    feasibility A had.  Changed counters and config values are
    reported per-key; identical keys are omitted.
    """
    champ_a = dict(a.get("champion") or {})
    champ_b = dict(b.get("champion") or {})
    cost_a = champ_a.get("cost")
    cost_b = champ_b.get("cost")
    if cost_a is None and cost_b is None:
        regressed = False
    elif cost_a is None:
        regressed = False  # baseline infeasible; anything finite improves
    elif cost_b is None:
        regressed = True
    else:
        regressed = float(cost_b) > float(cost_a) * (1.0 + tolerance)
    ratio = (float(cost_b) / float(cost_a)
             if cost_a not in (None, 0) and cost_b is not None else None)

    counters: Dict[str, Dict[str, Any]] = {}
    counters_a = dict(a.get("counters") or {})
    counters_b = dict(b.get("counters") or {})
    for name in sorted(set(counters_a) | set(counters_b)):
        va, vb = counters_a.get(name), counters_b.get(name)
        if va != vb:
            counters[name] = {"a": va, "b": vb}

    config: Dict[str, Dict[str, Any]] = {}
    config_a = dict(a.get("config") or {})
    config_b = dict(b.get("config") or {})
    for name in sorted(set(config_a) | set(config_b)):
        va, vb = config_a.get(name), config_b.get(name)
        if va != vb:
            config[name] = {"a": va, "b": vb}

    return {
        "run_a": a.get("run_id"),
        "run_b": b.get("run_id"),
        "comparable": (a.get("workload") == b.get("workload")
                       and a.get("arch") == b.get("arch")),
        "champion": {
            "cost_a": cost_a, "cost_b": cost_b, "ratio": ratio,
            "regressed": regressed,
            "same_signature": (champ_a.get("signature") is not None
                               and champ_a.get("signature")
                               == champ_b.get("signature")),
        },
        "wall_s": {"a": a.get("wall_s"), "b": b.get("wall_s")},
        "counters": counters,
        "config": config,
    }


# ---------------------------------------------------------------------------
# Renderers (pure functions, shared by CLI text mode and tests).

def render_run_list(manifests: List[Mapping[str, Any]]) -> str:
    if not manifests:
        return "(no runs recorded)"
    lines = [f"{'run id':28s} {'command':10s} {'workload':12s} "
             f"{'arch':8s} {'champion cost':>14s} {'wall':>8s}"]
    for m in manifests:
        cost = (m.get("champion") or {}).get("cost")
        lines.append(
            f"{str(m.get('run_id')):28s} {str(m.get('command')):10s} "
            f"{str((m.get('workload') or {}).get('name')):12s} "
            f"{str((m.get('arch') or {}).get('name')):8s} "
            f"{'infeasible' if cost is None else format(cost, '14.6g'):>14s} "
            f"{m.get('wall_s', 0.0):7.2f}s")
    return "\n".join(lines)


def render_manifest(m: Mapping[str, Any]) -> str:
    champ = dict(m.get("champion") or {})
    lines = [
        f"run       : {m.get('run_id')} ({m.get('command')}, "
        f"started {m.get('started')}, {m.get('wall_s', 0.0):.2f}s)",
        f"workload  : {(m.get('workload') or {}).get('name')} "
        f"[{(m.get('workload') or {}).get('fingerprint')}]",
        f"arch      : {(m.get('arch') or {}).get('name')} "
        f"[{(m.get('arch') or {}).get('fingerprint')}]",
        f"namespace : {m.get('namespace')}",
        f"config    : " + ", ".join(
            f"{k}={v}" for k, v in sorted((m.get('config') or {}).items())),
        f"seeds     : " + ", ".join(
            f"{k}={v}" for k, v in sorted((m.get('seeds') or {}).items())),
        f"champion  : cost="
        f"{'infeasible' if champ.get('cost') is None else champ.get('cost')}"
        f" signature={champ.get('signature')}",
    ]
    for key in ("genome", "factors", "latency_cycles", "energy_pj"):
        if key in champ:
            lines.append(f"  {key:14s}: {champ[key]}")
    counters = dict(m.get("counters") or {})
    if counters:
        lines.append("counters  :")
        for name in sorted(counters):
            lines.append(f"  {name:30s} {counters[name]:>12g}")
    return "\n".join(lines)


def render_diff(diff: Mapping[str, Any]) -> str:
    champ = dict(diff.get("champion") or {})
    lines = [f"runs diff: {diff.get('run_a')} (A) vs {diff.get('run_b')} (B)"]
    if not diff.get("comparable", True):
        lines.append("  WARNING: runs have different workload/arch "
                     "fingerprints; cost comparison is apples-to-oranges")

    def cost_s(c: Any) -> str:
        return "infeasible" if c is None else format(c, "g")

    verdict = "REGRESSION" if champ.get("regressed") else "ok"
    ratio = champ.get("ratio")
    lines.append(f"  champion cost : A={cost_s(champ.get('cost_a'))} "
                 f"B={cost_s(champ.get('cost_b'))}"
                 + (f" (B/A = {ratio:.4f})" if ratio is not None else "")
                 + f" -> {verdict}")
    lines.append(f"  same champion : "
                 f"{'yes' if champ.get('same_signature') else 'no'}")
    wall = dict(diff.get("wall_s") or {})
    if wall.get("a") is not None and wall.get("b") is not None:
        lines.append(f"  wall clock    : A={wall['a']:.2f}s "
                     f"B={wall['b']:.2f}s")
    counters = dict(diff.get("counters") or {})
    if counters:
        lines.append("  counters (changed):")
        for name in sorted(counters):
            pair = counters[name]
            lines.append(f"    {name:30s} A={pair.get('a')} "
                         f"B={pair.get('b')}")
    config = dict(diff.get("config") or {})
    if config:
        lines.append("  config (changed):")
        for name in sorted(config):
            pair = config[name]
            lines.append(f"    {name:30s} A={pair.get('a')} "
                         f"B={pair.get('b')}")
    if len(lines) == 1:
        lines.append("  (no differences)")
    return "\n".join(lines)
