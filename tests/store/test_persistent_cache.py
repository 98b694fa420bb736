"""The PersistentAttemptCache write-through tier, in isolation.

Engine-level behavior (warm reproductions, jobs-invariance) lives in
``tests/store/test_warm_reproduce.py``; these tests pin the two-tier
cache mechanics: disk fallback with promotion, write-through puts, and
``store.*`` metric charging.
"""

from repro.core.constraints import EventRef, OrderConstraint
from repro.core.feedback import AttemptCache
from repro.core.parallel import AttemptOutcome
from repro.obs.metrics import MetricsRegistry
from repro.robust.inject import truncate_file
from repro.store import AttemptStore, PersistentAttemptCache

FP = "ccfeed0004"


def _ref(tid, occurrence=0):
    return EventRef(tid=tid, family="rw", key=("x", 0), occurrence=occurrence)


def _key(seed=0, fp=FP):
    constraints = frozenset(
        {OrderConstraint(before=_ref(1, seed), after=_ref(2, seed))}
    )
    return AttemptCache.key_for(("sync", 9, fp), constraints, seed,
                                "random", False)


def _outcome(key):
    return AttemptOutcome(
        constraints=key[1],
        seed=key[2],
        outcome="no-failure",
        detail="ran",
        steps=10,
        matched=False,
        fingerprint=f"x:{key[2]}",
    )


def _persisted(root, seeds=(0,)):
    keys = [_key(seed) for seed in seeds]
    with AttemptStore(str(root)) as store:
        for key in keys:
            store.put(key, _outcome(key))
    return keys


class TestTwoTiers:
    def test_disk_hit_is_promoted_into_memory(self, tmp_path):
        (key,) = _persisted(tmp_path)
        with PersistentAttemptCache(str(tmp_path)) as cache:
            assert cache.get(key) == _outcome(key)
            assert cache.disk_hits == 1 and cache.hits == 1
            assert cache.get(key) == _outcome(key)
            assert cache.disk_hits == 1  # second read served from memory
            assert cache.hits == 2

    def test_miss_falls_through_both_tiers(self, tmp_path):
        with PersistentAttemptCache(str(tmp_path)) as cache:
            assert cache.get(_key(99)) is None
            assert cache.misses == 1 and cache.disk_hits == 0

    def test_put_writes_through_to_disk(self, tmp_path):
        key = _key()
        with PersistentAttemptCache(str(tmp_path)) as cache:
            cache.put(key, _outcome(key))
        assert AttemptStore(str(tmp_path)).get(key) == _outcome(key)


class TestMetrics:
    def _counters(self, registry):
        return registry.snapshot()["counters"]

    def test_hits_misses_and_appends_are_charged(self, tmp_path):
        key = _key()
        registry = MetricsRegistry(enabled=True)
        with PersistentAttemptCache(str(tmp_path)) as cache:
            cache.bind_metrics(registry)
            cache.get(key)
            cache.put(key, _outcome(key))
        counters = self._counters(registry)
        assert counters["store.misses"] == 1
        assert counters["store.appends"] == 1

        warm_registry = MetricsRegistry(enabled=True)
        with PersistentAttemptCache(str(tmp_path)) as cache:
            cache.bind_metrics(warm_registry)
            assert cache.get(key) == _outcome(key)
            cache.put(key, _outcome(key))  # idempotent: no second append
        counters = self._counters(warm_registry)
        assert counters["store.hits"] == 1
        assert "store.appends" not in counters

    def test_salvage_and_eviction_events_are_charged(self, tmp_path):
        keys = _persisted(tmp_path, seeds=(0, 1, 2))
        shard = AttemptStore(str(tmp_path)).shard_path(FP)
        truncate_file(shard, -5)
        registry = MetricsRegistry(enabled=True)
        with PersistentAttemptCache(str(tmp_path)) as cache:
            cache.bind_metrics(registry)
            for key in keys:
                cache.get(key)
            # the store's GC evicts; the next get charges what it evicted
            evicted = cache.store.gc(max_records=1).evicted
            cache.get(keys[0])
        counters = self._counters(registry)
        assert counters["store.salvage_events"] >= 1
        assert evicted >= 1
        assert counters["store.evictions"] == evicted
