"""AttemptStore persistence, crash-consistency, verify, and gc.

The crash-consistency tests use the deterministic fault injectors from
:mod:`repro.robust.inject` to model the two storage failures the store
must survive: a process killed mid-append (torn tail — costs at most the
record being written) and damaged bytes (salvage keeps the valid prefix;
an unreadable header rotates the shard aside instead of crashing).
"""

import os
from dataclasses import replace

import pytest

from repro.core.constraints import EventRef, OrderConstraint
from repro.core.feedback import AttemptCache
from repro.core.parallel import AttemptOutcome
from repro.robust.inject import seeded_truncate_offset, truncate_file
from repro.robust.journal import ATTEMPTS_KIND, JournalWriter
from repro.store import AttemptStore
from repro.store.attempt_store import SHARD_FILE
from repro.store.codec import encode_record

FPS = ("aacafe0001", "aadead0002", "bbcafe0003")


def _ref(tid, occurrence=0):
    return EventRef(tid=tid, family="rw", key=("x", 0), occurrence=occurrence)


def _key(fp, seed=0):
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
        steps=10 + key[2],
        matched=False,
        fingerprint=f"x:{key[2]}",
        schedule=(1, 2, 1),
    )


def _shard_file(root, fp):
    return os.path.join(str(root), fp[:2], fp, SHARD_FILE)


def _seeded(root, n_per_shard=1, fps=FPS):
    """A store holding one record per (seed, fingerprint); returns keys
    in recorded order."""
    keys = []
    with AttemptStore(str(root)) as store:
        for seed in range(n_per_shard):
            for fp in fps:
                key = _key(fp, seed)
                assert store.put(key, _outcome(key))
                keys.append(key)
    return keys


class TestPersistence:
    def test_round_trips_across_store_instances(self, tmp_path):
        keys = _seeded(tmp_path)
        with AttemptStore(str(tmp_path)) as store:
            for key in keys:
                assert store.get(key) == _outcome(key)

    def test_layout_is_sharded_by_fingerprint(self, tmp_path):
        _seeded(tmp_path)
        for fp in FPS:
            assert os.path.isfile(_shard_file(tmp_path, fp))

    def test_put_is_idempotent_within_and_across_sessions(self, tmp_path):
        key = _key(FPS[0])
        with AttemptStore(str(tmp_path)) as store:
            assert store.put(key, _outcome(key)) is True
            assert store.put(key, _outcome(key)) is False
            assert store.appends == 1
        with AttemptStore(str(tmp_path)) as store:
            assert store.put(key, _outcome(key)) is False
            assert store.stats().records == 1

    def test_spans_are_stripped_before_persisting(self, tmp_path):
        key = _key(FPS[0])
        with AttemptStore(str(tmp_path)) as store:
            store.put(key, replace(_outcome(key), spans=("a-span",)))
        with AttemptStore(str(tmp_path)) as store:
            assert store.get(key).spans == ()

    def test_epoch_bumps_per_open_and_survives_corrupt_meta(self, tmp_path):
        assert AttemptStore(str(tmp_path)).epoch == 1
        assert AttemptStore(str(tmp_path)).epoch == 2
        (tmp_path / "meta.json").write_text("not json")
        store = AttemptStore(str(tmp_path))
        assert store.epoch == 1  # counter restarts; records are unaffected
        assert store.salvage_events >= 1

    @pytest.mark.parametrize("text", [
        "[]", "null", "3",
        pytest.param("[" * 100_000 + "]" * 100_000, id="deeply-nested"),
    ])
    def test_meta_that_is_not_an_object_is_damage(self, tmp_path, text):
        key = _key(FPS[0])
        with AttemptStore(str(tmp_path)) as store:
            store.put(key, _outcome(key))
        (tmp_path / "meta.json").write_text(text)
        with AttemptStore(str(tmp_path)) as store:
            assert store.epoch == 1
            assert store.salvage_events == 1
            assert store.get(key) is not None

    def test_stats_totals(self, tmp_path):
        keys = _seeded(tmp_path, n_per_shard=2)
        stats = AttemptStore(str(tmp_path)).stats()
        assert stats.records == len(keys)
        assert stats.shards == len(FPS)
        assert stats.corrupt_shards == 0
        assert stats.size_bytes > 0
        assert "attempt record(s)" in stats.describe()


class TestCrashConsistency:
    def test_torn_tail_costs_at_most_the_last_record(self, tmp_path):
        keys = _seeded(tmp_path, n_per_shard=3, fps=(FPS[0],))
        shard = _shard_file(tmp_path, FPS[0])
        truncate_file(shard, -5)  # killed mid-append of the last record

        store = AttemptStore(str(tmp_path))
        report = store.verify()
        assert not report.ok and report.exit_code == 1
        (shard_report,) = report.shards
        assert shard_report.status == "torn"
        assert shard_report.records == 2
        assert shard_report.dropped >= 1
        assert "DAMAGED" in report.describe()

        # Every complete record survives; only the torn one is gone.
        assert store.get(keys[0]) == _outcome(keys[0])
        assert store.get(keys[1]) == _outcome(keys[1])
        assert store.get(keys[2]) is None
        assert store.salvage_events >= 1

        # Re-putting resumes the journal and heals the tail in place.
        assert store.put(keys[2], _outcome(keys[2])) is True
        store.close()
        healed = AttemptStore(str(tmp_path)).verify()
        assert healed.ok
        assert healed.shards[0].records == 3

    def test_mid_file_kill_leaves_a_complete_prefix(self, tmp_path):
        keys = _seeded(tmp_path, n_per_shard=4, fps=(FPS[0],))
        shard = _shard_file(tmp_path, FPS[0])
        truncate_file(shard, seeded_truncate_offset(shard, seed=5))

        store = AttemptStore(str(tmp_path))
        present = [store.get(key) is not None for key in keys]
        # Salvage keeps a prefix of recorded order: once a record is
        # lost, everything after it is too (never a hole in the middle).
        assert present == sorted(present, reverse=True)
        for key, alive in zip(keys, present):
            if alive:
                assert store.get(key) == _outcome(key)
        (shard_report,) = store.verify().shards
        assert shard_report.status in ("ok", "torn")

    def test_header_damage_rotates_the_shard_aside(self, tmp_path):
        keys = _seeded(tmp_path, fps=(FPS[0],))
        shard = _shard_file(tmp_path, FPS[0])
        truncate_file(shard, 3)  # nothing left, not even the header

        store = AttemptStore(str(tmp_path))
        (shard_report,) = store.verify().shards
        assert shard_report.status == "corrupt"

        assert store.get(keys[0]) is None  # rotates the wreck aside
        assert store.salvage_events >= 1
        assert os.path.isfile(shard + ".corrupt")

        # A fresh shard grows in its place.
        assert store.put(keys[0], _outcome(keys[0])) is True
        store.close()
        report = AttemptStore(str(tmp_path)).verify()
        assert report.ok
        assert report.shards[0].records == 1


class TestVerify:
    def _append_raw(self, root, fp, payload):
        writer = JournalWriter(
            _shard_file(root, fp), ATTEMPTS_KIND,
            {"fingerprint": fp}, resume=True,
        )
        writer.append(payload)
        writer.close()

    def test_clean_store_verifies_ok(self, tmp_path):
        _seeded(tmp_path)
        report = AttemptStore(str(tmp_path)).verify()
        assert report.ok and report.exit_code == 0
        assert report.describe().endswith("store: ok")

    def test_misfiled_record_is_reported_and_skipped(self, tmp_path):
        keys = _seeded(tmp_path, fps=(FPS[0],))
        stray = _key(FPS[1], 9)
        self._append_raw(
            tmp_path, FPS[0], encode_record(stray, _outcome(stray), (9, 9))
        )

        store = AttemptStore(str(tmp_path))
        (shard_report,) = store.verify().shards
        assert shard_report.status == "invalid-records"
        assert shard_report.records == 1
        assert shard_report.dropped == 1
        assert "wrong fingerprint" in shard_report.detail

        # Loads skip the stray record instead of serving it.
        assert store.get(keys[0]) == _outcome(keys[0])
        assert store.get(stray) is None
        assert store.salvage_events >= 1

    def test_undecodable_record_is_reported(self, tmp_path):
        _seeded(tmp_path, fps=(FPS[0],))
        self._append_raw(tmp_path, FPS[0], {"nope": 1})
        (shard_report,) = AttemptStore(str(tmp_path)).verify().shards
        assert shard_report.status == "invalid-records"
        assert shard_report.records == 1


class TestGC:
    def test_evicts_oldest_recorded_first(self, tmp_path):
        keys = _seeded(tmp_path, n_per_shard=2)  # 6 records, known order
        store = AttemptStore(str(tmp_path))
        report = store.gc(2)
        assert report.records_before == 6
        assert report.records_after == 2
        assert report.evicted == 4
        assert store.evictions == 4
        for key in keys[:4]:
            assert store.get(key) is None
        for key in keys[4:]:
            assert store.get(key) == _outcome(key)

    def test_gc_is_deterministic_across_equal_stores(self, tmp_path):
        for name in ("a", "b"):
            _seeded(tmp_path / name, n_per_shard=3)
        keys = _seeded(tmp_path / "c", n_per_shard=3)  # same recorded order
        survivors = []
        for name in ("a", "b"):
            store = AttemptStore(str(tmp_path / name))
            store.gc(4)
            survivors.append([store.get(key) is not None for key in keys])
        assert survivors[0] == survivors[1]
        assert sum(survivors[0]) == 4

    def test_emptied_shards_and_dirs_are_pruned(self, tmp_path):
        _seeded(tmp_path)
        report = AttemptStore(str(tmp_path)).gc(0)
        assert report.records_after == 0
        assert report.shards_removed == len(FPS)
        for fp in FPS:
            assert not os.path.exists(os.path.dirname(_shard_file(tmp_path, fp)))
        assert not (tmp_path / "aa").exists()
        assert (tmp_path / "meta.json").exists()
        assert AttemptStore(str(tmp_path)).verify().ok

    def test_gc_heals_damage_it_passes_over(self, tmp_path):
        _seeded(tmp_path, n_per_shard=3, fps=(FPS[0],))
        truncate_file(_shard_file(tmp_path, FPS[0]), -5)
        store = AttemptStore(str(tmp_path))
        report = store.gc(10)
        assert report.evicted == 0
        assert report.records_after == 2
        assert report.shards_rewritten == 1  # rewritten purely to heal
        assert AttemptStore(str(tmp_path)).verify().ok

    def test_negative_bound_is_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            AttemptStore(str(tmp_path)).gc(-1)
