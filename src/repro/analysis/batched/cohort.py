"""Cohort planning: factor matrices → loop-slot arrays + structure keys.

A *cohort* is a set of candidate points of one genome's
:class:`~repro.mapper.factors.FactorSpace` (an ``(N, n_factors)`` int64
index matrix).  The planner replays ``mapper.encoding.build_genome_tree``'s
tiling arithmetic vectorized over the whole cohort — the spatial-budget
split chain, the ceil-divided temporal blocks, the per-op mid-level
counts — and produces:

* per-loop-slot ``(count, step)`` int64 arrays, one entry per member,
  for every loop whose trip count depends on the factors, and
* a packed *structure key* per member: the bit pattern of which loops
  are emitted (``count > 1`` / budget guards) and which spatial loops
  have unit step (they become slice-coverage lanes).

Members sharing a structure key provably build trees with identical
loop skeletons, so the scalar analysis takes identical control-flow
paths for all of them — the precondition for the array-polymorphic
re-execution in :mod:`repro.analysis.batched.template`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...arch import Architecture
from ...ir import Operator, Workload
from ...mapper.encoding import Genome, GenomeLoops
from ...mapper.factors import FactorSpace
from ...tile.bindings import Binding
from .kernels import I8, cdiv64, mul64

#: Loop-slot keys: ("gs", gi, dim) group spatial, ("gt", gi, dim) group
#: temporal, ("mid", gi, op_name, dim) chain mid-level temporal.
Slot = Tuple


@dataclass
class _GroupPlan:
    gi: int
    binding: Binding
    #: ``(dim, group_size, factor_column)`` per shared tileable dim.
    entries: List[Tuple[str, int, Optional[int]]]
    #: ``(op, {dim: leaf extent})`` per operator — leaf sp*tp products
    #: are factor-independent, so they are resolved once here.
    ops: List[Tuple[Operator, Dict[str, int]]]
    dim_set: frozenset = field(default_factory=frozenset)


@dataclass
class CohortPlan:
    """One planned cohort: members, their values, slot arrays, keys."""

    members: List[Tuple[int, ...]]
    #: ``slot -> (count, step, emitted)`` int64/bool arrays over members.
    slots: Dict[Slot, Tuple[np.ndarray, np.ndarray, np.ndarray]]
    #: Packed whole-tree structure-key bytes per member (the per-group
    #: keys concatenated in group order).
    keys: List[bytes]
    #: ``group_keys[gi][pos]`` — the structure key restricted to group
    #: ``gi``'s bits.  Fused groups are independent analysis cones (the
    #: DRAM Seq wrapper is loop-free), so members batch per *group*
    #: skeleton: two members differing only in another group's factors
    #: share group ``gi``'s template.
    group_keys: List[List[bytes]]

    def classes(self) -> Dict[bytes, List[int]]:
        """Member positions grouped by structure key (insertion order)."""
        out: Dict[bytes, List[int]] = {}
        for pos, key in enumerate(self.keys):
            out.setdefault(key, []).append(pos)
        return out

    def group_classes(self, gi: int) -> Dict[bytes, List[int]]:
        """Member positions grouped by group ``gi``'s structure key."""
        out: Dict[bytes, List[int]] = {}
        for pos, key in enumerate(self.group_keys[gi]):
            out.setdefault(key, []).append(pos)
        return out


class CohortPlanner:
    """Vectorized replay of one genome's tree-construction arithmetic."""

    def __init__(self, workload: Workload, arch: Architecture,
                 genome: Genome, space: FactorSpace):
        self.workload = workload
        self.arch = arch
        self.genome = genome
        self.names: List[str] = list(space.names)
        self.choices: List[np.ndarray] = [
            np.asarray(space.choices[n], dtype=I8) for n in self.names]
        col = {n: j for j, n in enumerate(self.names)}

        self.top_level = arch.num_levels - 2
        skeleton = GenomeLoops(workload, arch, genome)
        self.units = int(skeleton.units)

        self.group_plans: List[_GroupPlan] = []
        self.slot_ids: set = set()
        for gi, (dims, chains) in enumerate(skeleton.groups):
            ops = [(op, {d: ext for d, _, ext in mid})
                   for op, mid, _ in chains]
            entries = [(d, int(size), col.get(name))
                       for d, size, name in dims]
            self.group_plans.append(_GroupPlan(
                gi, genome.group_binding(workload, gi), entries, ops,
                frozenset(d for d, _, _ in dims)))
            for d, _, _ in entries:
                self.slot_ids.add(("gs", gi, d))
                self.slot_ids.add(("gt", gi, d))
                for op, _ in ops:
                    if d in op.dims:
                        self.slot_ids.add(("mid", gi, op.name, d))

    # ------------------------------------------------------------------
    def point_at(self, member: Sequence[int]) -> Dict[str, int]:
        """The factor dict of one member (mirror of
        ``FactorSpace.point_at``)."""
        return {name: int(self.choices[j][member[j]])
                for j, name in enumerate(self.names)}

    def sibling_cohort(self, indices: Sequence[int],
                       limit: int = 128) -> Optional[List[Tuple[int, ...]]]:
        """The sibling set of ``indices``: all points sharing its prefix,
        enumerating the longest choice-name suffix whose cross product
        stays within ``limit``.  ``None`` when no suffix of ≥2 points
        fits (nothing worth batching).
        """
        sizes = [len(c) for c in self.choices]
        if not sizes:
            return None
        k, total = 0, 1
        for j in range(len(sizes) - 1, -1, -1):
            if total * sizes[j] > limit:
                break
            total *= sizes[j]
            k += 1
        if k == 0 or total < 2:
            return None
        prefix = tuple(int(i) for i in indices[:len(sizes) - k])
        tails = itertools.product(
            *[range(s) for s in sizes[len(sizes) - k:]])
        return [prefix + tail for tail in tails]

    # ------------------------------------------------------------------
    def plan(self, members: Sequence[Sequence[int]]) -> CohortPlan:
        """Vectorized tiling arithmetic for ``members`` (index tuples)."""
        idx = np.asarray([tuple(m) for m in members], dtype=I8)
        if idx.ndim == 1:
            idx = idx.reshape(len(members), 0)
        n = idx.shape[0]
        values = np.empty((n, len(self.choices)), dtype=I8)
        for j, ch in enumerate(self.choices):
            values[:, j] = ch[idx[:, j]]

        one = np.int64(1)
        slots: Dict[Slot, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        group_keys: List[List[bytes]] = []
        for gp in self.group_plans:
            bits: List[np.ndarray] = []
            sb = np.full(n, self.units, dtype=I8)
            tile: Dict[str, np.ndarray] = {}
            for d, size, c in gp.entries:
                if c is None:
                    v = np.full(n, size, dtype=I8)
                else:
                    v = values[:, c]
                step = np.minimum(np.int64(size), v)
                tile[d] = step
                blocks = cdiv64(np.int64(size), step)
                s_emit = (sb > 1) & (blocks > 1)
                split = np.where(s_emit, np.minimum(sb, blocks), one)
                per = np.where(s_emit, cdiv64(blocks, split), blocks)
                gs_step = mul64(per, step, "plan gs step")
                blocks = np.where(s_emit, per, blocks)
                sb = np.where(s_emit, np.maximum(one, sb // split), sb)
                t_emit = blocks > 1
                slots[("gs", gp.gi, d)] = (split, gs_step, s_emit)
                slots[("gt", gp.gi, d)] = (blocks, step, t_emit)
                bits.append(s_emit)
                bits.append(s_emit & (gs_step == 1))
                bits.append(t_emit)
            for op, ext in gp.ops:
                for d in op.dims:
                    if d not in tile:
                        continue  # factor-independent mid loop
                    want = np.minimum(np.int64(int(op.dims[d])), tile[d])
                    count = cdiv64(want, np.int64(ext[d]))
                    m_emit = count > 1
                    slots[("mid", gp.gi, op.name, d)] = (
                        count, np.full(n, ext[d], dtype=I8), m_emit)
                    bits.append(m_emit)
            if bits:
                mat = np.stack(bits, axis=1).astype(np.uint8)
                packed = np.packbits(mat, axis=1)
                group_keys.append([row.tobytes() for row in packed])
            else:
                group_keys.append([b""] * n)

        keys = [b"".join(gk[i] for gk in group_keys) for i in range(n)]
        return CohortPlan([tuple(int(i) for i in m) for m in members],
                          slots, keys, group_keys)
