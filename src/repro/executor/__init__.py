"""Column-batch physical executor and UDO registry."""

from repro.executor.executor import (
    ExecutionResult,
    Executor,
    OperatorStats,
    SpoolOutput,
)
from repro.executor.udo import UdoRegistry, default_registry

__all__ = ["ExecutionResult", "Executor", "OperatorStats", "SpoolOutput",
           "UdoRegistry", "default_registry"]
