"""Seeded randomness helpers for workload generation.

All stochastic choices in the reproduction flow through a named
:class:`random.Random` derived from a single experiment seed, so any figure
or table can be regenerated bit-for-bit.
"""

from __future__ import annotations

import random
from typing import List

from repro.common.errors import ConfigError


def rng_for(seed: int, *names: object) -> random.Random:
    """Return an independent RNG for a named sub-purpose of an experiment.

    ``rng_for(42, "cluster1", "arrivals")`` is stable across runs and
    independent of draws made by other names, so adding a new consumer of
    randomness never perturbs existing experiments.
    """
    key = ":".join(str(n) for n in (seed,) + names)
    return random.Random(key)


def zipf_weights(n: int, skew: float = 1.1) -> List[float]:
    """Weights of a Zipf-like distribution over ``n`` ranks.

    Shared-dataset popularity in Cosmos is heavy-tailed (Figure 2: a few
    streams have thousands of distinct consumers while most have a handful),
    which a Zipf law models well.
    """
    if n <= 0:
        raise ConfigError("n must be positive")
    weights = [1.0 / (rank ** skew) for rank in range(1, n + 1)]
    total = sum(weights)
    return [w / total for w in weights]

