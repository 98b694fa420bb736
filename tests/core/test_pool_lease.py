"""PoolLease: one warm executor lent to many explorations.

The service's sharing contract (``docs/parallel.md``, "borrowed"
pools): sessions exploring over a lease reuse one executor, a session
ending never tears it down, a broken-pool verdict recycles it for
everyone, and none of this can change a report.
"""

import pytest

from repro.apps import get_bug
from repro.core.explorer import ExplorerConfig
from repro.core.parallel import PoolLease, _LeasedPool
from repro.core.recorder import record
from repro.core.reproducer import render_report, reproduce
from repro.core.sketches import SketchKind
from repro.sim import MachineConfig

BUG = "pbzip2-order-free"
SEED = 3


@pytest.fixture(scope="module")
def recorded():
    spec = get_bug(BUG)
    return record(
        spec.make_program(),
        sketch=SketchKind.SYNC,
        seed=SEED,
        config=MachineConfig(ncpus=4),
        oracle=spec.oracle,
    )


class TestLifecycle:
    def test_acquire_is_lazy_and_shared(self):
        lease = PoolLease(2)
        assert lease.builds == 0  # nothing until someone explores
        try:
            first = lease.acquire()
            assert lease.acquire() is first
            assert lease.builds == 1
        finally:
            lease.close()

    def test_session_shutdown_leaves_the_executor_alive(self):
        lease = PoolLease(2)
        try:
            view = _LeasedPool(lease, lease.acquire())
            view.shutdown(wait=True)  # the session-detach path
            # The shared executor still answers work.
            assert lease.acquire().submit(abs, -3).result(timeout=30) == 3
            assert lease.builds == 1
        finally:
            lease.close()

    def test_invalidate_is_keyed_on_identity(self):
        lease = PoolLease(2)
        try:
            stale = lease.acquire()
            lease.invalidate(stale)  # broken-pool verdict
            rebuilt = lease.acquire()
            assert rebuilt is not stale
            assert lease.builds == 2
            # A laggard session reporting the *old* executor broken must
            # not clobber the replacement other sessions already use.
            lease.invalidate(stale)
            assert lease.acquire() is rebuilt
        finally:
            lease.close()

    def test_close_refuses_further_acquires(self):
        lease = PoolLease(2)
        lease.acquire()
        lease.close()
        with pytest.raises(RuntimeError):
            lease.acquire()


class TestSharedExploration:
    def test_sessions_share_one_executor_and_reports_match_serial(
        self, recorded
    ):
        config = ExplorerConfig(max_attempts=200)
        serial = render_report(reproduce(recorded, config))
        lease = PoolLease(2)
        try:
            for _ in range(3):  # three sessions, one warm pool
                report = reproduce(recorded, config, jobs=2, pool=lease)
                assert render_report(report) == serial
            assert lease.builds == 1
        finally:
            lease.close()
