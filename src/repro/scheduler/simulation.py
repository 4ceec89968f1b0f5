"""The name ``benchmarks/e2e/harness.py`` imports its selection policy by.

The frozen benchmark harness reads ``ConcurrentSimulationConfig().policy``
from this module; the config itself lives in :mod:`repro.simulation`.
"""

from repro.simulation import SimulationConfig as ConcurrentSimulationConfig
