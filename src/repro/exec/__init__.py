"""Execution governance: budgets, checkpoints, degradation, fault injection.

The robustness spine of the library (DESIGN.md §4c).  A query runs under a
:class:`Budget` carried by a :class:`Context`; governed hot loops call
``ctx.checkpoint(site)`` cooperatively, so deadlines, step/memory budgets
and cancellation all take effect at well-defined points.  Exhaustion raises
the typed outcomes of :mod:`repro.errors` (:class:`BudgetExceeded`,
:class:`Cancelled`), and :func:`count_paths_governed` converts exhaustion
into *degraded answers* (FPRAS estimate, then certified lower bound)
instead of failures.  :class:`FaultInjector` makes every one of those paths
deterministically testable.
"""

from repro.errors import (
    BudgetExceeded,
    Cancelled,
    Degraded,
    ExecutionError,
    WorkerFailed,
)
from repro.exec.budget import (
    MIN_FRACTION_SECONDS,
    Budget,
    Context,
    DegradationEvent,
    ExecStats,
)
from repro.exec.faults import (
    BufferedDiskIO,
    FaultInjector,
    FlakyIO,
    StorageIO,
    TornWriteIO,
    WriteCrash,
    run_with_fault,
)
from repro.exec.governor import GovernedResult, QUALITIES, count_paths_governed
from repro.exec.parallel import (
    WorkerPool,
    default_worker_count,
    fork_available,
    register_task,
)
from repro.exec.batch import (
    BatchQuery,
    BatchResult,
    BatchSession,
    batch_exit_status,
)

__all__ = [
    "MIN_FRACTION_SECONDS",
    "Budget",
    "Context",
    "ExecStats",
    "DegradationEvent",
    "FaultInjector",
    "run_with_fault",
    "StorageIO",
    "TornWriteIO",
    "BufferedDiskIO",
    "FlakyIO",
    "WriteCrash",
    "GovernedResult",
    "QUALITIES",
    "count_paths_governed",
    "WorkerPool",
    "default_worker_count",
    "fork_available",
    "register_task",
    "BatchQuery",
    "BatchResult",
    "BatchSession",
    "batch_exit_status",
    "ExecutionError",
    "BudgetExceeded",
    "Cancelled",
    "Degraded",
    "WorkerFailed",
]
