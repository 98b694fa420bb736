"""The write-through tier: :class:`AttemptCache` backed by a store.

:class:`PersistentAttemptCache` is a drop-in
:class:`~repro.core.feedback.AttemptCache` whose misses fall through to
an :class:`~repro.store.attempt_store.AttemptStore` and whose puts are
written through to it.  The exploration engine
(:class:`~repro.core.parallel.ParallelExplorer`) needs no changes — it
already keys every lookup and fold through the cache interface — which
is exactly what keeps the store inside the jobs-invariance contract: a
warm store can only turn live replays into folds of identical (pure)
outcomes, never change what is explored, so the reported schedule and
winner are byte-identical with the store cold, warm, or partially
populated.

Metrics (the ``store.*`` family, see ``docs/observability.md``) are
charged at cache get/put time — the engine's deterministic batch-assembly
and fold points — so, like every other counter, they are identical for
every ``jobs`` value.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from repro.core.feedback import AttemptCache
from repro.errors import SketchFormatError
from repro.obs.metrics import NULL_METRICS
from repro.store.attempt_store import AttemptStore

__all__ = ["PersistentAttemptCache"]


class PersistentAttemptCache(AttemptCache):
    """Two tiers: the in-memory memo in front, a disk store behind.

    * :meth:`get` — memory first; on a memory miss the shard for the
      key's sketch-log fingerprint is consulted and a disk hit is
      promoted into the memory tier.
    * :meth:`put` — memoizes in memory *and* appends to the store
      (idempotently: a key the store already holds is not re-written).

    :param store: the backing :class:`AttemptStore`, or a directory
        path to open one at.  The disk tier is bounded via
        :meth:`AttemptStore.gc`.
    """

    def __init__(self, store: Union[AttemptStore, str]) -> None:
        super().__init__()
        self.store = store if isinstance(store, AttemptStore) else AttemptStore(store)
        #: memory-tier misses answered by the disk tier.
        self.disk_hits = 0
        self.metrics = NULL_METRICS
        self._salvage_charged = 0
        self._evictions_charged = 0
        self._quarantined_charged = 0

    def bind_metrics(self, registry) -> None:
        """Charge ``store.*`` metrics into ``registry`` from now on.

        The engine binds its session registry here at construction; the
        first subsequent get/put also back-fills events (salvaged shards,
        a torn ``meta.json``) observed before binding.
        """
        self.metrics = registry

    def get(self, key: Tuple) -> Optional[object]:
        """Memory tier, then disk tier; counts hits/misses per tier.

        A disk tier that cannot be read — I/O error, undecodable shard —
        is a *miss*, never an exception: the engine replays the attempt
        live with an identical outcome (``store.errors`` counts these).
        """
        # The check-then-promote sequence must be atomic when job
        # threads share one tenant cache (the base lock is reentrant).
        with self._lock:
            if key not in self._outcomes:
                try:
                    outcome = self.store.get(key)
                except (OSError, SketchFormatError):
                    outcome = None
                    self.metrics.counter("store.errors").inc()
                if outcome is not None:
                    self.disk_hits += 1
                    self.metrics.counter("store.hits").inc()
                    # Promote, so repeated folds of this key stay in memory.
                    AttemptCache.put(self, key, outcome)
                else:
                    self.metrics.counter("store.misses").inc()
            self._sync_event_counters()
            return super().get(key)

    def put(self, key: Tuple, outcome: object) -> None:
        """Memoize and write through to the store.

        Like :meth:`get`, an unwritable disk tier degrades (the outcome
        stays memoized in memory; ``store.errors`` is charged) instead
        of failing the exploration loop.
        """
        with self._lock:
            super().put(key, outcome)
            try:
                if self.store.put(key, outcome):
                    self.metrics.counter("store.appends").inc()
            except (OSError, SketchFormatError):
                self.metrics.counter("store.errors").inc()
            self._sync_event_counters()

    def close(self) -> None:
        """Close the backing store's shard writers."""
        self.store.close()

    def __enter__(self) -> "PersistentAttemptCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _sync_event_counters(self) -> None:
        """Fold the store's event totals into the registry.

        Salvage events fire inside shard loads, strictly within get/put
        calls; evictions (GC, epoch expiry) happen before a session's
        walk and are charged at its first get/put.  The engine makes
        those calls only at deterministic points, so draining the deltas
        here keeps the counters jobs-invariant.
        """
        salvage = self.store.salvage_events
        if salvage > self._salvage_charged:
            self.metrics.counter("store.salvage_events").inc(
                salvage - self._salvage_charged
            )
            self._salvage_charged = salvage
        quarantined = self.store.quarantined
        if quarantined > self._quarantined_charged:
            self.metrics.counter("store.quarantined").inc(
                quarantined - self._quarantined_charged
            )
            self._quarantined_charged = quarantined
        evicted = self.store.evictions
        if evicted > self._evictions_charged:
            self.metrics.counter("store.evictions").inc(
                evicted - self._evictions_charged
            )
            self._evictions_charged = evicted
