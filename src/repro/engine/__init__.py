"""SCOPE-like engine facade: compile and execute SQL jobs."""

from repro.engine.engine import CompiledJob, EngineConfig, JobRun, ScopeEngine

__all__ = ["CompiledJob", "EngineConfig", "JobRun", "ScopeEngine"]
