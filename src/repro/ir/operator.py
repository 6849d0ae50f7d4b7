"""Operators in the workload IR.

An operator is a perfectly nested iteration space (a polyhedron, in the
paper's terminology) over named dimensions.  Each iteration point reads one
element per input access and updates one element of the output access; the
accesses are affine in the iteration dims, which covers matrix
multiplication, convolution (via windowed expressions like ``h + r``),
reductions, broadcasts, and element-wise maps — everything the paper's
workloads need, including the five small operators the softmax is expanded
into (§7.2).
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from ..errors import WorkloadError
from .expr import AffineExpr, dim, union_dims
from .tensor import Tensor


class TensorAccess:
    """An affine access of a tensor: one expression per tensor dimension."""

    __slots__ = ("tensor", "exprs", "_info", "_coeffs")

    def __init__(self, tensor: Tensor, exprs: Sequence[AffineExpr]):
        exprs = tuple(exprs)
        if len(exprs) != tensor.rank:
            raise WorkloadError(
                f"access to {tensor.name!r} needs {tensor.rank} index "
                f"expressions, got {len(exprs)}")
        self.tensor = tensor
        self.exprs = exprs
        self._info: Optional[Tuple[str, frozenset]] = None
        self._coeffs: Dict[str, Tuple[int, ...]] = {}

    @property
    def dims(self) -> Tuple[str, ...]:
        """All iteration dims referenced by this access."""
        return union_dims(self.exprs)

    def signature(self) -> Tuple[str, frozenset]:
        """(stable repr, referenced-dim set), cached on the access.

        Accesses are immutable and live as long as their workload, so
        the incremental cache keys built from them
        (:mod:`repro.analysis.datamovement`) can reuse one computed
        signature across every evaluation of that workload.
        """
        info = self._info
        if info is None:
            info = self._info = (repr(self), frozenset(self.dims))
        return info

    def coefficients(self, dim_name: str) -> Tuple[int, ...]:
        """``displacement({dim_name: 1})``, memoized (accesses are
        immutable); a step of ``s`` displaces by ``s`` times this."""
        coeffs = self._coeffs.get(dim_name)
        if coeffs is None:
            coeffs = self._coeffs[dim_name] = tuple(
                e.coeff(dim_name) for e in self.exprs)
        return coeffs

    def extents_over(self, dim_extents: Mapping[str, int]) -> Tuple[int, ...]:
        """Slice extents per tensor dim when iteration dims span a box."""
        return tuple(e.extent_over(dim_extents) for e in self.exprs)

    def displacement(self, steps: Mapping[str, int]) -> Tuple[int, ...]:
        """Slice displacement per tensor dim when dims shift by ``steps``."""
        return tuple(e.displacement(steps) for e in self.exprs)

    def footprint_over(self, dim_extents: Mapping[str, int]) -> int:
        """Number of distinct elements touched over a box of iterations."""
        n = 1
        for e in self.extents_over(dim_extents):
            n *= e
        return n

    def __repr__(self) -> str:
        idx = ", ".join(repr(e) for e in self.exprs)
        return f"{self.tensor.name}[{idx}]"


class Operator:
    """A single dense operator over a perfectly nested iteration space.

    Parameters
    ----------
    name:
        Unique name within the workload.
    dims:
        Ordered mapping of iteration-dimension name to trip count.
    inputs / output:
        Affine tensor accesses.  Every dim referenced by an access must be
        declared in ``dims``.
    reduction_dims:
        Dims that do not appear in the output access (accumulation dims).
        Inferred from the output access when omitted.
    ops_per_point:
        Arithmetic operations performed per iteration point (1 MAC for
        matmul/conv; element-wise ops also count 1).
    kind:
        Informal tag ("mac", "exp", "max", "sub", "sum", "div", ...) used by
        the energy model and the simulator to pick a compute unit.
    """

    __slots__ = ("name", "dims", "reduction_dims", "inputs", "output",
                 "ops_per_point", "kind")

    def __init__(self, name: str, dims: Mapping[str, int],
                 inputs: Sequence[TensorAccess], output: TensorAccess,
                 reduction_dims: Optional[Iterable[str]] = None,
                 ops_per_point: float = 1.0, kind: str = "mac"):
        if not name:
            raise WorkloadError("operator name must be non-empty")
        self.name = name
        self.dims: Dict[str, int] = {d: int(s) for d, s in dims.items()}
        for d, s in self.dims.items():
            if s <= 0:
                raise WorkloadError(
                    f"operator {name!r}: dim {d!r} must be positive, got {s}")
        self.inputs = tuple(inputs)
        self.output = output
        for access in self.all_accesses():
            for d in access.dims:
                if d not in self.dims:
                    raise WorkloadError(
                        f"operator {name!r}: access {access!r} references "
                        f"undeclared dim {d!r}")
        if reduction_dims is None:
            out_dims = set(output.dims)
            reduction_dims = [d for d in self.dims if d not in out_dims]
        self.reduction_dims = frozenset(reduction_dims)
        unknown = self.reduction_dims - set(self.dims)
        if unknown:
            raise WorkloadError(
                f"operator {name!r}: unknown reduction dims {sorted(unknown)}")
        if ops_per_point <= 0:
            raise WorkloadError(
                f"operator {name!r}: ops_per_point must be positive")
        self.ops_per_point = float(ops_per_point)
        self.kind = kind
        self._check_shapes()

    # ------------------------------------------------------------------
    def _check_shapes(self) -> None:
        """Verify every access stays within its tensor's shape."""
        for access in self.all_accesses():
            extents = access.extents_over(self.dims)
            for axis, (need, have) in enumerate(
                    zip(extents, access.tensor.shape)):
                if need > have:
                    raise WorkloadError(
                        f"operator {self.name!r}: access {access!r} covers "
                        f"{need} elements on axis {axis} but tensor "
                        f"{access.tensor.name!r} only has {have}")

    # ------------------------------------------------------------------
    def all_accesses(self) -> Tuple[TensorAccess, ...]:
        """Input accesses followed by the output access."""
        return self.inputs + (self.output,)

    def tensors(self) -> Tuple[Tensor, ...]:
        """All distinct tensors touched, inputs first, output last."""
        seen: Dict[str, Tensor] = {}
        for access in self.all_accesses():
            seen.setdefault(access.tensor.name, access.tensor)
        return tuple(seen.values())

    def input_tensors(self) -> Tuple[Tensor, ...]:
        seen: Dict[str, Tensor] = {}
        for access in self.inputs:
            seen.setdefault(access.tensor.name, access.tensor)
        return tuple(seen.values())

    def access(self, tensor_name: str) -> TensorAccess:
        """The access for ``tensor_name`` (output access wins on conflict)."""
        if self.output.tensor.name == tensor_name:
            return self.output
        for a in self.inputs:
            if a.tensor.name == tensor_name:
                return a
        raise WorkloadError(
            f"operator {self.name!r} does not touch tensor {tensor_name!r}")

    def uses(self, tensor_name: str) -> bool:
        return any(a.tensor.name == tensor_name for a in self.all_accesses())

    def is_reduction(self, dim_name: str) -> bool:
        return dim_name in self.reduction_dims

    @property
    def iteration_volume(self) -> int:
        """Total number of iteration points."""
        n = 1
        for s in self.dims.values():
            n *= s
        return n

    @property
    def total_ops(self) -> float:
        """Total arithmetic operations for a full execution."""
        return self.iteration_volume * self.ops_per_point

    def __repr__(self) -> str:
        ins = ", ".join(repr(a) for a in self.inputs)
        return (f"Operator({self.name}: {self.output!r} <- {ins} "
                f"over {self.dims})")


def simple_access(tensor: Tensor, *dim_names: str) -> TensorAccess:
    """Access where each tensor dim is indexed by a single iteration dim."""
    return TensorAccess(tensor, tuple(dim(n) for n in dim_names))
