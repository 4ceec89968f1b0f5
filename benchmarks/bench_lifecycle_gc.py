"""GC sweep cost: sweep latency and eviction throughput at scale.

A sweep runs on its caller's thread inside the serving path's host
process, so a sweep over a large catalog has to stay cheap even when
nothing is collectable (the common case: every sweep scans the whole
catalog and finds little to do).  This benchmark populates a catalog
with a few thousand sealed views, then times three characteristic
sweeps — a no-op pass over a fully live catalog, an expiry pass that
collects half of it, and a budget pass that evicts by cost/benefit
score — and emits the latencies and eviction counts as JSON for trend
tracking.
"""

import json
import time

from repro.api import Session
from repro.engine.engine import EngineConfig
from repro.lifecycle import LifecycleConfig

VIEWS = 2_000
TTL_SECONDS = 1_000.0


def populate(engine, count):
    store = engine.view_store
    for i in range(count):
        signature = f"view-{i:05d}"
        # First half created early (expires first), varied sizes and
        # reuse so the budget pass has a real score distribution.
        created = 0.0 if i < count // 2 else 500.0
        store.begin_materialize(signature, f"views/{signature}", ("a",),
                                "vc1", now=created)
        store.seal(signature, now=created, row_count=10,
                   size_bytes=100 + (i % 7) * 50)
        engine.store.put(f"views/{signature}", [{"a": 1}])
        for _ in range(i % 5):
            store.record_reuse(signature)


def timed_sweep(manager, now):
    started = time.perf_counter()
    result = manager.sweep(now=now)
    return time.perf_counter() - started, result


def run_gc():
    session = Session(
        engine_config=EngineConfig(view_ttl_seconds=TTL_SECONDS),
        lifecycle=LifecycleConfig())
    engine, manager = session.engine, session.lifecycle
    populate(engine, VIEWS)

    # Pass 1: everything still live -- the steady-state sweep cost.
    noop_seconds, noop = timed_sweep(manager, now=900.0)

    # Pass 2: the early half has aged past its TTL.
    expiry_seconds, expiry = timed_sweep(manager, now=1_100.0)

    # Pass 3: score-ranked eviction down to half the remaining bytes.
    manager.config.storage_budget_bytes = \
        engine.view_store.storage_in_use(1_100.0) // 2
    budget_seconds, budget = timed_sweep(manager, now=1_100.0)

    session.close()
    return {
        "catalog_views": VIEWS,
        "noop_sweep_seconds": noop_seconds,
        "expiry_sweep_seconds": expiry_seconds,
        "budget_sweep_seconds": budget_seconds,
        "expired_collected": expiry.expired + expiry.removed,
        "budget_evicted": budget.budget_evicted,
        "budget_reclaimed_bytes": budget.reclaimed_bytes,
        "noop_collected": noop.total_collected,
    }


def test_lifecycle_gc_sweep(benchmark):
    result = benchmark.pedantic(run_gc, rounds=1, iterations=1)

    print(f"\nGC sweep latency ({result['catalog_views']:,} views)")
    print(f"{'no-op sweep':<26}{result['noop_sweep_seconds'] * 1e3:>10.2f} ms")
    print(f"{'expiry sweep':<26}"
          f"{result['expiry_sweep_seconds'] * 1e3:>10.2f} ms")
    print(f"{'budget sweep':<26}"
          f"{result['budget_sweep_seconds'] * 1e3:>10.2f} ms")
    print(f"{'expired collected':<26}{result['expired_collected']:>10,}")
    print(f"{'budget evicted':<26}{result['budget_evicted']:>10,}")
    print(json.dumps(result))

    assert result["noop_collected"] == 0
    assert result["expired_collected"] == VIEWS // 2
    assert result["budget_evicted"] > 0
    # A sweep must stay interactive even at catalog scale.
    assert result["expiry_sweep_seconds"] < 5.0
