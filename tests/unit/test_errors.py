"""Unit tests for the exception hierarchy."""

import pytest

from repro.errors import (ArchitectureError, ForeignNodeError, MappingError,
                          NotationError, SimulationError, TileFlowError,
                          TreeValidationError, WorkloadError)


def test_all_derive_from_base():
    for exc in (WorkloadError, NotationError, TreeValidationError,
                ArchitectureError, ForeignNodeError, MappingError,
                SimulationError):
        assert issubclass(exc, TileFlowError)


def test_catchable_as_base():
    with pytest.raises(TileFlowError):
        raise MappingError("x")
