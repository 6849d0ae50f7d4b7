"""The analysis tree: the tree form of the tile-centric notation (§4.2).

A fusion dataflow is a tree of *tile nodes*.  Two node kinds exist:

* :class:`OpTile` — one tiling level of a single operator.  Chains of
  OpTiles (each one memory level down) end in a *leaf* (no child), which
  is the innermost compute tile executed on the PE array.
* :class:`FusionNode` — a tile whose loops iterate over several children
  (sub-tiles of different operators, or nested fusion groups), carrying an
  inter-tile :class:`~repro.tile.bindings.Binding`.

Every node carries a memory ``level`` — an index into the architecture's
levels — identifying the buffer in which the node's per-iteration working
set is staged.  Levels never increase from the root (DRAM side) toward the
leaves (registers).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import TreeValidationError
from ..ir import Operator, Workload
from .bindings import Binding
from .loops import Loop, LoopSplit


class TileNode:
    """Base class for analysis-tree nodes."""

    def __init__(self, loops: Sequence[Loop], level: int,
                 name: Optional[str] = None):
        if level < 0:
            raise TreeValidationError(f"node level must be >= 0, got {level}")
        self._loops: Tuple[Loop, ...] = tuple(loops)
        self._split: Optional[LoopSplit] = None
        self.level = int(level)
        self.name = name
        self.parent: Optional["TileNode"] = None

    @property
    def loops(self) -> Tuple[Loop, ...]:
        return self._loops

    @loops.setter
    def loops(self, loops: Sequence[Loop]) -> None:
        # Mutating a node's loops in place (mapper moves on a live tree)
        # must drop the cached temporal/spatial split.
        self._loops = tuple(loops)
        self._split = None

    @property
    def split(self) -> LoopSplit:
        """The node's :class:`~repro.tile.loops.LoopSplit`, memoized.

        The split is asked for by every analysis that touches the node;
        computing it once per loop assignment instead of per query is a
        measurable win on the mapper's hot path.  The ``loops`` setter
        clears the memo; assigning a split sets the loops with it.
        """
        split = self._split
        if split is None:
            split = self._split = LoopSplit(self._loops)
        return split

    @split.setter
    def split(self, split: LoopSplit) -> None:
        self._loops = split.loops
        self._split = split

    # -- structure ------------------------------------------------------
    def children_nodes(self) -> Tuple["TileNode", ...]:
        raise NotImplementedError

    def is_leaf(self) -> bool:
        return not self.children_nodes()

    def walk(self) -> Iterator["TileNode"]:
        """Pre-order traversal of the subtree rooted here."""
        yield self
        for child in self.children_nodes():
            yield from child.walk()

    def leaves(self) -> Iterator["OpTile"]:
        for node in self.walk():
            if node.is_leaf():
                assert isinstance(node, OpTile)
                yield node

    def ancestors(self) -> Iterator["TileNode"]:
        """Parent, grandparent, ... up to (and including) the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def subtree_ops(self) -> Tuple[Operator, ...]:
        """Distinct operators appearing in this subtree, leaf order."""
        seen: Dict[str, Operator] = {}
        for leaf in self.leaves():
            seen.setdefault(leaf.op.name, leaf.op)
        return tuple(seen.values())

    # -- loops ----------------------------------------------------------
    @property
    def temporal_loops(self) -> Tuple[Loop, ...]:
        return self.split.temporal

    @property
    def spatial_loops(self) -> Tuple[Loop, ...]:
        return self.split.spatial

    @property
    def temporal_trip_count(self) -> int:
        return self.split.temporal_trip

    @property
    def spatial_trip_count(self) -> int:
        return self.split.spatial_trip

    @property
    def trip_count(self) -> int:
        split = self.split
        return split.temporal_trip * split.spatial_trip

    def label(self) -> str:
        return self.name or self.__class__.__name__


class OpTile(TileNode):
    """A tiling level of a single operator.

    The ``child`` (if any) is the next tiling level down (a lower or equal
    memory level); a leaf OpTile represents the intrinsic compute tile
    whose loops are executed directly by the PE array.
    """

    def __init__(self, op: Operator, loops: Sequence[Loop], level: int,
                 child: Optional[TileNode] = None,
                 name: Optional[str] = None):
        super().__init__(loops, level, name)
        self.op = op
        self.child = child
        if child is not None:
            if child.parent is not None:
                raise TreeValidationError(
                    f"node {child.label()!r} already has a parent")
            child.parent = self
        for lp in self.loops:
            if lp.dim not in op.dims:
                raise TreeValidationError(
                    f"OpTile for {op.name!r}: loop dim {lp.dim!r} is not a "
                    f"dim of the operator")

    def children_nodes(self) -> Tuple[TileNode, ...]:
        return (self.child,) if self.child is not None else ()

    def label(self) -> str:
        return self.name or f"{self.op.name}@L{self.level}"

    def __repr__(self) -> str:
        return f"OpTile({self.label()}, loops={list(self.loops)})"


class FusionNode(TileNode):
    """A tile over several children with an inter-tile binding.

    Children execute in list order within each iteration of the node's
    loops (for ``Pipe`` the order is the pipeline order).  Loops at a
    fusion node iterate dims shared by the children's operators.
    """

    def __init__(self, loops: Sequence[Loop], level: int,
                 children: Sequence[TileNode],
                 binding: Binding = Binding.SEQ,
                 name: Optional[str] = None):
        super().__init__(loops, level, name)
        if len(children) < 1:
            raise TreeValidationError("FusionNode needs at least one child")
        self.children: Tuple[TileNode, ...] = tuple(children)
        self.binding = binding
        for child in self.children:
            if child.parent is not None:
                raise TreeValidationError(
                    f"node {child.label()!r} already has a parent")
            child.parent = self

    def children_nodes(self) -> Tuple[TileNode, ...]:
        return self.children

    def label(self) -> str:
        return self.name or f"{self.binding.value}@L{self.level}"

    def __repr__(self) -> str:
        kids = ", ".join(c.label() for c in self.children)
        return f"FusionNode({self.label()}, [{kids}])"


class AnalysisTree:
    """A complete fusion-dataflow description: workload + tile tree.

    Construction wires parent pointers (done by the nodes) and indexes the
    leaf of every operator.  Structural validation lives in
    :mod:`repro.tile.validate` and is invoked by the model before analysis;
    construct-then-validate keeps mappers free to build partial trees.
    """

    def __init__(self, workload: Workload, root: TileNode,
                 name: Optional[str] = None):
        self.workload = workload
        self.root = root
        self.name = name or f"tree({workload.name})"
        self._nodes: Optional[Tuple[TileNode, ...]] = None
        self._paths: Dict[str, List[TileNode]] = {}
        self._leaf_of: Dict[str, OpTile] = {}
        for leaf in root.leaves():
            if leaf.op.name in self._leaf_of:
                raise TreeValidationError(
                    f"operator {leaf.op.name!r} appears in more than one "
                    f"leaf tile")
            self._leaf_of[leaf.op.name] = leaf
        missing = [op.name for op in workload.operators
                   if op.name not in self._leaf_of]
        if missing:
            raise TreeValidationError(
                f"tree {self.name!r} is missing leaf tiles for operators "
                f"{missing}")

    # ------------------------------------------------------------------
    def nodes(self) -> Tuple[TileNode, ...]:
        """All nodes, pre-order.  Cached: tree *membership* is fixed at
        construction (loop/factor mutations change node contents, never
        the node set — splicing nodes requires a new AnalysisTree)."""
        if self._nodes is None:
            self._nodes = tuple(self.root.walk())
        return self._nodes

    def leaf(self, op_name: str) -> OpTile:
        try:
            return self._leaf_of[op_name]
        except KeyError:
            raise TreeValidationError(
                f"tree {self.name!r} has no leaf for operator {op_name!r}"
            ) from None

    def op_path(self, op_name: str) -> List[TileNode]:
        """Nodes from the root down to (and including) the op's leaf.

        The returned list is cached and shared — treat it as read-only.
        """
        path = self._paths.get(op_name)
        if path is None:
            leaf = self.leaf(op_name)
            path = [leaf] + list(leaf.ancestors())
            path.reverse()
            self._paths[op_name] = path
        return path

    def tensor_home(self, tensor_name: str) -> Optional[TileNode]:
        """The node whose buffer level an intermediate tensor lives at.

        This is the deepest node whose subtree contains the producer and
        every consumer of the tensor — the least-common-ancestor tile of
        §5.1.2.  Returns ``None`` for external inputs/outputs (their home
        is DRAM, above the tree).
        """
        producer = self.workload.producer(tensor_name)
        consumers = self.workload.consumers(tensor_name)
        if producer is None or not consumers:
            return None
        paths = [self.op_path(producer.name)]
        paths += [self.op_path(c.name) for c in consumers]
        home: Optional[TileNode] = None
        for nodes in zip(*paths):
            first = nodes[0]
            if all(n is first for n in nodes[1:]):
                home = first
            else:
                break
        return home

    def render(self) -> str:
        """An indented text rendering of the tree (for debugging/reports)."""
        lines: List[str] = []

        def visit(node: TileNode, depth: int) -> None:
            loops = " ".join(repr(lp) for lp in node.loops) or "-"
            binding = (f" [{node.binding.value}]"
                       if isinstance(node, FusionNode) else "")
            lines.append(f"{'  ' * depth}{node.label()}{binding}: {loops}")
            for child in node.children_nodes():
                visit(child, depth + 1)

        visit(self.root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"AnalysisTree({self.name})"
