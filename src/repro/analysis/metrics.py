"""Result containers for the tree-based analysis.

:class:`LevelTraffic` records the three access directions the paper's
breakdown distinguishes (Fig. 10d):

* ``fill``   — words loaded *into* this level from the level above,
* ``read``   — words served *from* this level to the level below,
* ``update`` — words written back *into* this level from below.

:class:`EvaluationResult` aggregates everything a caller needs: latency,
energy, per-level traffic, footprints, resource usage, and any resource
violations (mappers use those to reject/penalize candidates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


class LevelTraffic:
    """Word-granularity traffic counters for one memory level."""

    __slots__ = ("fill", "read", "update")

    def __init__(self) -> None:
        self.fill: Dict[str, float] = {}
        self.read: Dict[str, float] = {}
        self.update: Dict[str, float] = {}

    def add(self, direction: str, tensor: str, words: float) -> None:
        counter = getattr(self, direction)
        counter[tensor] = counter.get(tensor, 0.0) + words

    def total(self, direction: str) -> float:
        return sum(getattr(self, direction).values())

    @property
    def total_words(self) -> float:
        """All words moved through this level (fill + read + update)."""
        return self.total("fill") + self.total("read") + self.total("update")

    def breakdown(self) -> Dict[str, float]:
        return {"fill": self.total("fill"), "read": self.total("read"),
                "update": self.total("update")}

    def __repr__(self) -> str:
        b = self.breakdown()
        return (f"LevelTraffic(fill={b['fill']:.3g}, read={b['read']:.3g}, "
                f"update={b['update']:.3g})")


@dataclass
class ResourceUsage:
    """Peak resource usage of a mapping (§5.2)."""

    num_pe: int = 0
    num_vector_pe: int = 0
    #: Peak bytes resident per *instance* of each memory level.
    footprint_bytes: Dict[int, float] = field(default_factory=dict)
    #: Spatial instances of each level the mapping occupies.
    instances_used: Dict[int, int] = field(default_factory=dict)


@dataclass
class EvaluationResult:
    """Complete output of one model evaluation."""

    tree_name: str
    arch_name: str
    latency_cycles: float
    energy_pj: float
    total_ops: float
    #: Traffic per memory-level index (0 = innermost).
    traffic: Dict[int, LevelTraffic]
    resources: ResourceUsage
    #: Human-readable capacity/PE violations; empty for a feasible mapping.
    violations: List[str]
    #: Energy by component name ("MAC", "Reg", "L1", "DRAM", ...).
    energy_breakdown_pj: Dict[str, float] = field(default_factory=dict)
    #: Latency seconds derived from cycles and the clock; set by the model.
    latency_seconds: float = 0.0
    #: Per-level bandwidth-pressure metric of §7.5 (access/compute ratio).
    slowdown: Dict[int, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def feasible(self) -> bool:
        return not self.violations

    def level_traffic(self, level: int) -> LevelTraffic:
        return self.traffic.setdefault(level, LevelTraffic())

    def dram_words(self) -> float:
        """Words crossing the DRAM boundary (read + update at DRAM)."""
        dram = max(self.traffic) if self.traffic else 0
        t = self.traffic.get(dram)
        if t is None:
            return 0.0
        return t.total("read") + t.total("update")

    def onchip_words(self, level: int) -> float:
        """All words moved through an on-chip level."""
        t = self.traffic.get(level)
        return t.total_words if t is not None else 0.0

    @property
    def utilization(self) -> float:
        """Fraction of peak compute the mapping sustains (0..1)."""
        if self.latency_cycles <= 0 or self.resources.num_pe <= 0:
            return 0.0
        return min(1.0, self.total_ops
                   / (self.latency_cycles * self.resources.num_pe))

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly representation (CLI ``--json``, logging)."""
        return {
            "tree": self.tree_name,
            "arch": self.arch_name,
            "latency_cycles": self.latency_cycles,
            "latency_seconds": self.latency_seconds,
            "energy_pj": self.energy_pj,
            "total_ops": self.total_ops,
            "num_pe": self.resources.num_pe,
            "num_vector_pe": self.resources.num_vector_pe,
            "utilization": self.utilization,
            "dram_words": self.dram_words(),
            "violations": list(self.violations),
            "traffic": {level: t.breakdown()
                        for level, t in sorted(self.traffic.items())},
            "energy_breakdown_pj": dict(self.energy_breakdown_pj),
            "footprint_bytes": {str(k): v for k, v in
                                self.resources.footprint_bytes.items()},
        }

    def summary(self) -> str:
        lines = [
            f"mapping {self.tree_name} on {self.arch_name}:",
            f"  latency : {self.latency_cycles:.4g} cycles"
            f" ({self.latency_seconds * 1e3:.4g} ms)",
            f"  energy  : {self.energy_pj / 1e6:.4g} uJ",
            f"  ops     : {self.total_ops:.4g}",
            f"  PEs     : {self.resources.num_pe}",
        ]
        for level in sorted(self.traffic):
            lines.append(f"  L{level} traffic: {self.traffic[level]!r}")
        if self.violations:
            lines.append("  VIOLATIONS:")
            lines.extend(f"    - {v}" for v in self.violations)
        return "\n".join(lines)
