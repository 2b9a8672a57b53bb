"""Pluggable load-state backends: object-per-token vs numpy count vectors.

See :mod:`repro.backend.base` for the registry and the semantics of the
``backend=`` parameter threaded through the simulation engine, the dynamic
streaming engine and the CLI.
"""

from .base import (
    BACKEND_KINDS,
    ArrayBackend,
    BackendChoice,
    LoadBackend,
    ObjectBackend,
    get_backend,
    resolve_backend,
    resolve_backend_name,
)
from .flow import (
    ArrayDeterministicFlowImitation,
    ArrayFlowImitation,
    ArrayRandomizedFlowImitation,
)
from .state import TokenCountState
from .weighted import ArrayWeightedDeterministicFlowImitation, WeightedRunState

__all__ = [
    "BACKEND_KINDS",
    "BackendChoice",
    "LoadBackend",
    "ObjectBackend",
    "ArrayBackend",
    "get_backend",
    "resolve_backend",
    "resolve_backend_name",
    "ArrayFlowImitation",
    "ArrayDeterministicFlowImitation",
    "ArrayRandomizedFlowImitation",
    "ArrayWeightedDeterministicFlowImitation",
    "TokenCountState",
    "WeightedRunState",
]
