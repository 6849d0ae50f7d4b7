"""Workloads: directed acyclic graphs of operators.

A :class:`Workload` owns an ordered list of operators (the order is a valid
topological order of the producer/consumer graph) and classifies its tensors
into external inputs, intermediates, and outputs.  The analysis uses this
classification to decide which tensors can be kept on-chip by fusion and
which must cross the DRAM boundary.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import WorkloadError
from .operator import Operator
from .tensor import Tensor


class Workload:
    """An ordered DAG of operators.

    Parameters
    ----------
    name:
        Workload name, used in reports.
    operators:
        Operators in execution (topological) order.  Each tensor may be
        produced (appear as an output) by at most one operator, and every
        consumer must come after the producer.
    """

    def __init__(self, name: str, operators: Sequence[Operator]):
        if not operators:
            raise WorkloadError(f"workload {name!r} needs at least one operator")
        self.name = name
        self.operators: Tuple[Operator, ...] = tuple(operators)
        names = [op.name for op in self.operators]
        if len(set(names)) != len(names):
            raise WorkloadError(f"workload {name!r} has duplicate operator names")
        self._producer: Dict[str, Operator] = {}
        self._tensors: Dict[str, Tensor] = {}
        for op in self.operators:
            for t in op.tensors():
                existing = self._tensors.setdefault(t.name, t)
                if existing != t:
                    raise WorkloadError(
                        f"workload {name!r}: tensor {t.name!r} redeclared "
                        f"with a different shape")
        position = {op.name: i for i, op in enumerate(self.operators)}
        for op in self.operators:
            out = op.output.tensor.name
            if out in self._producer:
                raise WorkloadError(
                    f"workload {name!r}: tensor {out!r} produced by both "
                    f"{self._producer[out].name!r} and {op.name!r}")
            self._producer[out] = op
        for op in self.operators:
            for t in op.input_tensors():
                prod = self._producer.get(t.name)
                if prod is not None and position[prod.name] >= position[op.name]:
                    raise WorkloadError(
                        f"workload {name!r}: {op.name!r} consumes "
                        f"{t.name!r} before {prod.name!r} produces it")
        consumers: Dict[str, List[Operator]] = {}
        for op in self.operators:
            for tensor in dict.fromkeys(a.tensor.name for a in op.inputs):
                consumers.setdefault(tensor, []).append(op)
        #: tensor name -> the operators reading it, in operator order.
        self._consumers: Dict[str, Tuple[Operator, ...]] = {
            t: tuple(ops) for t, ops in consumers.items()}
        #: Arithmetic operations for one full execution of every
        #: operator (the operators never change, so summed once).
        self.total_ops: float = sum(op.total_ops for op in self.operators)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def operator(self, name: str) -> Operator:
        for op in self.operators:
            if op.name == name:
                return op
        raise WorkloadError(f"workload {self.name!r} has no operator {name!r}")

    def tensor(self, name: str) -> Tensor:
        try:
            return self._tensors[name]
        except KeyError:
            raise WorkloadError(
                f"workload {self.name!r} has no tensor {name!r}") from None

    def tensors(self) -> Tuple[Tensor, ...]:
        return tuple(self._tensors.values())

    def producer(self, tensor_name: str) -> Optional[Operator]:
        """The operator producing ``tensor_name``, or None for an input."""
        return self._producer.get(tensor_name)

    def consumers(self, tensor_name: str) -> Tuple[Operator, ...]:
        """Operators reading ``tensor_name`` as an input, in operator
        order (indexed at construction)."""
        return self._consumers.get(tensor_name, ())

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def input_tensors(self) -> Tuple[Tensor, ...]:
        """Tensors consumed but never produced (external inputs)."""
        return tuple(t for t in self._tensors.values()
                     if t.name not in self._producer)

    def output_tensors(self) -> Tuple[Tensor, ...]:
        """Produced tensors never consumed by another operator."""
        return tuple(t for t in self._tensors.values()
                     if t.name in self._producer and not self.consumers(t.name))

    def intermediate_tensors(self) -> Tuple[Tensor, ...]:
        """Tensors both produced and consumed inside the workload."""
        return tuple(t for t in self._tensors.values()
                     if t.name in self._producer and self.consumers(t.name))

    def is_intermediate(self, tensor_name: str) -> bool:
        return (tensor_name in self._producer
                and bool(self.consumers(tensor_name)))

    # ------------------------------------------------------------------
    # Aggregate properties
    # ------------------------------------------------------------------
    def dependency_chain(self) -> List[Tuple[str, str, str]]:
        """(producer, tensor, consumer) triples, in operator order."""
        chain = []
        for op in self.operators:
            for a in op.inputs:
                prod = self._producer.get(a.tensor.name)
                if prod is not None:
                    chain.append((prod.name, a.tensor.name, op.name))
        return chain

    def __repr__(self) -> str:
        ops = ", ".join(op.name for op in self.operators)
        return f"Workload({self.name}: [{ops}])"
