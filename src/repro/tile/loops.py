"""Tiling loops.

A :class:`Loop` iterates a named dimension ``count`` times, advancing the
dimension's index by ``step`` per iteration.  Loops are either *temporal*
(executed over time steps on the same hardware) or *spatial* (unrolled over
parallel hardware instances) — the paper's intra-tile ``Tp``/``Sp`` binding
primitives (Table 1).

``step`` is expressed in the dimension's index space: tiling ``m = 512``
as ``m2 (count 4) -> m1 (count 8) -> m0 (count 16)`` gives steps 128 / 16 /
1.  Keeping the step explicit (rather than inferring it from inner loops)
is what lets fused trees express halos: a producer tile can *cover* more
than the shared loop's step (Fused-Layer recompute).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from ..errors import TreeValidationError


class Loop:
    """One tiling loop: ``for dim in range(count), stepping by step``."""

    __slots__ = ("dim", "count", "step", "spatial")

    def __init__(self, dim: str, count: int, step: int = 1,
                 spatial: bool = False):
        if not dim:
            raise TreeValidationError("loop dim name must be non-empty")
        if count <= 0:
            raise TreeValidationError(
                f"loop over {dim!r}: count must be positive, got {count}")
        if step <= 0:
            raise TreeValidationError(
                f"loop over {dim!r}: step must be positive, got {step}")
        self.dim = dim
        self.count = int(count)
        self.step = int(step)
        self.spatial = bool(spatial)

    @property
    def span(self) -> int:
        """Index-space distance covered by the loop: ``(count-1)*step + 1``.

        This is the distance between the first and last iteration origins
        plus one; the full *coverage* additionally depends on the extent of
        whatever sits inside the loop.
        """
        return (self.count - 1) * self.step + 1

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Loop) and self.dim == other.dim
                and self.count == other.count and self.step == other.step
                and self.spatial == other.spatial)

    def __hash__(self) -> int:
        return hash((self.dim, self.count, self.step, self.spatial))

    def __repr__(self) -> str:
        tag = "Sp" if self.spatial else "Tp"
        return f"{tag}({self.dim}:{self.count}x{self.step})"


def temporal(dim: str, count: int, step: int = 1) -> Loop:
    """A temporal loop (``Tp`` in the paper's notation)."""
    return Loop(dim, count, step, spatial=False)


def spatial(dim: str, count: int, step: int = 1) -> Loop:
    """A spatial loop (``Sp`` in the paper's notation)."""
    return Loop(dim, count, step, spatial=True)


def product_of_counts(loops: Iterable[Loop]) -> int:
    n = 1
    for lp in loops:
        n *= lp.count
    return n


def split_spatial(loops: Sequence[Loop]) -> Tuple[List[Loop], List[Loop]]:
    """Partition loops into (temporal, spatial), preserving order."""
    t = [lp for lp in loops if not lp.spatial]
    s = [lp for lp in loops if lp.spatial]
    return t, s


class LoopSplit:
    """One loop assignment of a node, split by binding.

    ``temporal`` and ``spatial`` keep the loops' order and
    ``temporal_trip``/``spatial_trip`` are their trip products.
    ``reuse`` holds ``(count, step, dim)`` of the temporal loops of more
    than one trip, innermost first: the loops a §5.1 reuse walk steps
    through (trip-count-1 loops neither move a slice nor wrap).
    Read-only once built; a node keeps it until its loops change.
    """

    __slots__ = ("loops", "temporal", "spatial", "temporal_trip",
                 "spatial_trip", "reuse")

    def __init__(self, loops: Sequence[Loop]):
        self.loops: Tuple[Loop, ...] = tuple(loops)
        spatial: List[Loop] = []
        t_trip = s_trip = 1
        for lp in self.loops:
            if lp.spatial:
                spatial.append(lp)
                s_trip *= lp.count
            else:
                t_trip *= lp.count
        self.temporal: Tuple[Loop, ...] = (
            tuple([lp for lp in self.loops if not lp.spatial]) if spatial
            else self.loops)
        self.spatial: Tuple[Loop, ...] = tuple(spatial)
        self.temporal_trip = t_trip
        self.spatial_trip = s_trip
        self.reuse: Tuple[Tuple[int, int, str], ...] = tuple([
            (lp.count, lp.step, lp.dim) for lp in reversed(self.temporal)
            if lp.count != 1])


def auto_steps(level_loops: Sequence[Sequence[Tuple[str, int, bool]]]
               ) -> List[List[Loop]]:
    """Assign steps to a per-level loop specification.

    ``level_loops`` lists levels *outer to inner*; each level is a sequence
    of ``(dim, count, spatial)`` triples.  The step of each loop is the
    product of the counts of all loops over the same dim that appear at
    deeper levels (or later in the same level) — the natural perfect-tiling
    interpretation.  Returns loops per level, outer to inner.
    """
    multiplier: Dict[str, int] = {}
    out_rev: List[List[Loop]] = []
    for level in reversed(list(level_loops)):
        loops_rev: List[Loop] = []
        for dim, count, is_spatial in reversed(list(level)):
            step = multiplier.get(dim, 1)
            loops_rev.append(Loop(dim, count, step, spatial=is_spatial))
            multiplier[dim] = step * count
        out_rev.append(list(reversed(loops_rev)))
    return list(reversed(out_rev))
