#!/usr/bin/env python
"""CI guard: fail when an analysis pass's share of analysis time drifts.

Reads the output of a traced benchmark run::

    python3 perfbench/run.py --workload search-default --seed 1 \
        --seconds 2 --trace 1 > current.out
    python3 benchmarks/check_pass_drift.py \
        benchmarks/pass_drift_baseline.json current.out

The last line of that output holds the per-layer metrics and the line
before it the run's provenance, which names the workload.  Each
``analysis.<pass>_s`` metric is turned into a share of their sum and
compared with the same share in the baseline entry for that workload.
Shares are free of machine scale: a uniformly slower runner leaves them
unchanged, but a hot-path regression in one pass shows up as that
pass's share growing.

A pass fails the check when its share moved by more than ``--max-drift``
(default 1.5x) in either direction *and* at least one side is above
``--min-share`` (default 3%): passes that small jitter by multiples
without meaning anything.  The check also fails when the run reports a
wrong champion.

The baseline maps each workload to the ``analysis.*_s`` values of one
traced run of that workload (``--seed 1 --seconds 2``).

Exits 0 when every pass is within bounds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Tuple


def pass_shares(seconds: Dict[str, float]) -> Dict[str, float]:
    """Each ``analysis.<pass>_s`` value as a share of their sum, keyed by
    pass name."""
    times = {name[len("analysis."):-len("_s")]: float(value)
             for name, value in seconds.items()
             if name.startswith("analysis.") and name.endswith("_s")}
    total = sum(times.values())
    if total <= 0.0:
        raise SystemExit("no analysis time recorded; was the run traced "
                         "(--trace 1)?")
    return {name: value / total for name, value in times.items()}


def load_run(path: str) -> Tuple[str, bool, Dict[str, float]]:
    """(workload, correct, metric values) of a ``perfbench/run.py
    --trace 1`` output file."""
    with open(path) as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    try:
        provenance = json.loads(lines[-2])["provenance"]
        result = json.loads(lines[-1])
        values = {name: entry["value"]
                  for name, entry in result["metrics"].items()}
        return provenance["workload"], bool(result["correct"]), values
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise SystemExit(f"{path}: not the output of perfbench/run.py "
                         f"({exc!r})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline",
                        help="checked-in per-workload baseline (JSON)")
    parser.add_argument("current",
                        help="stdout of perfbench/run.py --trace 1")
    parser.add_argument("--max-drift", type=float, default=1.5,
                        help="allowed share ratio in either direction")
    parser.add_argument("--min-share", type=float, default=0.03,
                        help="ignore passes below this share on both sides")
    args = parser.parse_args(argv)

    workload, correct, values = load_run(args.current)
    with open(args.baseline) as handle:
        baselines = json.load(handle)
    if workload not in baselines:
        raise SystemExit(f"{args.baseline}: no baseline for workload "
                         f"{workload!r}")
    base = pass_shares(baselines[workload])
    curr = pass_shares(values)
    failures = []
    for name in sorted(set(base) | set(curr)):
        b, c = base.get(name, 0.0), curr.get(name, 0.0)
        if max(b, c) < args.min_share:
            print(f"[drift] {name}: {b:.1%} -> {c:.1%} (below "
                  f"{args.min_share:.0%} floor, ignored)")
            continue
        ratio = (max(b / c, c / b) if b > 0.0 and c > 0.0
                 else float("inf"))
        status = "FAIL" if ratio > args.max_drift else "ok"
        print(f"[drift] {name}: {b:.1%} -> {c:.1%} ({ratio:.2f}x, {status})")
        if ratio > args.max_drift:
            failures.append(f"pass {name!r} share drifted {b:.1%} -> "
                            f"{c:.1%} (>{args.max_drift:.2f}x)")
    if not correct:
        failures.append(f"{workload}: the run found a wrong champion")

    for line in failures:
        print(f"[drift] ERROR: {line}", file=sys.stderr)
    if failures:
        return 1
    print(f"[drift] {workload}: all passes within {args.max_drift:.2f}x "
          f"of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
