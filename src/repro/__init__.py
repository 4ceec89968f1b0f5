"""CloudViews reproduction: automatic computation reuse for a SCOPE-like
big-data engine.

Reproduces *Production Experiences from Computation Reuse at Microsoft*
(EDBT 2021).  The primary entry points:

* :class:`repro.api.Session` -- the unified facade and the one feedback
  loop: engine + insights client + wave scheduler, every job
  returning a :class:`repro.api.JobResult`;
* :class:`repro.simulation.WorkloadSimulation` -- the driver behind the
  paper's Table 1 and Figures 6-7 (cluster schedule) and the worker-/
  shard-count invariance runs (wave schedule), over one ``Session``;
* :mod:`repro.workload` -- the data-cooking workload generator and the
  denormalized subexpression repository;
* :mod:`repro.extensions` -- the Section-5 prototypes (generalized reuse,
  concurrent joins, shared execution, checkpointing, SparkCruise-style
  integration).

The layered classes (:class:`~repro.engine.engine.ScopeEngine`,
:class:`~repro.engine.engine.JobRun`, ...) are importable from their
canonical modules.
"""

from repro.api import (
    FaultPlan,
    FaultRuntime,
    JobRequest,
    JobResult,
    SchedulerConfig,
    Session,
    SessionConfig,
)
from repro.catalog import Catalog, TableSchema, schema_of
from repro.core import DeploymentMode, MultiLevelControls
from repro.engine import EngineConfig
from repro.selection import SelectionPolicy, SelectionResult
from repro.simulation import SimulationConfig, SimulationReport
from repro.workload import CookingWorkload, WorkloadRepository, generate_workload

__version__ = "2.4.0"

__all__ = [
    "Session", "SessionConfig", "JobResult", "JobRequest", "EngineConfig",
    "SchedulerConfig", "FaultPlan", "FaultRuntime",
    "Catalog", "TableSchema", "schema_of", "DeploymentMode",
    "MultiLevelControls", "SimulationConfig", "SimulationReport",
    "SelectionPolicy", "SelectionResult", "CookingWorkload",
    "WorkloadRepository", "generate_workload", "__version__",
]
