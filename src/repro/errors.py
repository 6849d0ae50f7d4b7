"""Exception hierarchy for the TileFlow reproduction.

All errors raised by the library derive from :class:`TileFlowError` so that
callers can catch library failures with a single ``except`` clause while
letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class TileFlowError(Exception):
    """Base class for all errors raised by this library."""


class WorkloadError(TileFlowError):
    """Raised for malformed workloads (bad dims, dangling tensors, cycles)."""


class NotationError(TileFlowError):
    """Raised when a tile-centric notation string cannot be parsed."""


class TreeValidationError(TileFlowError):
    """Raised when an analysis tree violates a structural rule.

    Examples: memory levels increasing toward the leaves, a loop referencing
    an unknown dimension, or a fused producer placed after its consumer.
    """


class ArchitectureError(TileFlowError):
    """Raised for inconsistent architecture specifications."""


class ForeignNodeError(TileFlowError):
    """Raised when an analysis context is queried with a node it does not own.

    An :class:`~repro.analysis.context.AnalysisContext` is valid for
    exactly one tree.  Asking it about a node from a different tree — or
    about a node added by an in-place mutation it has not been told about
    — used to silently return stale geometry keyed by a recycled
    ``id()``; now it raises this error.  After mutating the context's own
    tree in place, call ``ctx.invalidate()`` to re-arm it.
    """


class MappingError(TileFlowError):
    """Raised when a mapper encoding cannot be decoded into a valid tree."""


class SimulationError(TileFlowError):
    """Raised when the cycle-approximate simulator receives a bad program."""
