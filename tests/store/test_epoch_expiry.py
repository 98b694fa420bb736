"""Epoch-base expiry: the store-side half of the rolling window.

An epoch-suffix log's fingerprint carries its boundary-snapshot identity
(:func:`repro.core.epochs.base_tag`), so once the window drops that
boundary the shard persisted under it can never be looked up again.
``epochs.json`` registers which fingerprints are epoch-bound;
:meth:`AttemptStore.expire_epochs` removes registered-but-dead shards
and leaves everything else (full-history shards, live bases) alone.
"""

import json
import os

import pytest

from repro.store import AttemptStore, EpochExpiryReport
from repro.store.attempt_store import EPOCHS_FILE

from tests.store.test_attempt_store import _key, _outcome, _shard_file

EPOCH_FPS = ("aacafe0001", "aadead0002")
PLAIN_FP = "bbcafe0003"


def _seed_store(root):
    """One shard per fingerprint; the first two registered as epoch-bound."""
    store = AttemptStore(str(root))
    for fp in EPOCH_FPS + (PLAIN_FP,):
        key = _key(fp)
        store.put(key, _outcome(key))
    store.register_epoch_fingerprints(
        {fp: {"program": "counter", "seed": 7, "base": f"counter:7:{i}:10"}
         for i, fp in enumerate(EPOCH_FPS)}
    )
    return store


class TestRegistry:
    def test_registry_written_sorted_and_atomic(self, tmp_path):
        with _seed_store(tmp_path) as store:
            payload = json.loads(
                (tmp_path / EPOCHS_FILE).read_text(encoding="utf-8")
            )
            assert sorted(payload["bases"]) == list(payload["bases"])
            assert set(payload["bases"]) == set(EPOCH_FPS)
            assert store.salvage_events == 0

    def test_registration_is_idempotent(self, tmp_path):
        with _seed_store(tmp_path) as store:
            before = (tmp_path / EPOCHS_FILE).read_text(encoding="utf-8")
            store.register_epoch_fingerprints(
                {EPOCH_FPS[0]: {"program": "counter", "seed": 7,
                                "base": "counter:7:0:10"}}
            )
            assert (tmp_path / EPOCHS_FILE).read_text(
                encoding="utf-8"
            ) == before

    def test_empty_registration_writes_nothing(self, tmp_path):
        with AttemptStore(str(tmp_path)) as store:
            store.register_epoch_fingerprints({})
            assert not os.path.exists(tmp_path / EPOCHS_FILE)


class TestExpiry:
    def test_expires_only_registered_dead_bases(self, tmp_path):
        with _seed_store(tmp_path) as store:
            report = store.expire_epochs({EPOCH_FPS[0]})
            assert isinstance(report, EpochExpiryReport)
            assert report.expired == [EPOCH_FPS[1]]
            assert report.shards_removed == 1
            assert report.live == 1
            # The dead base's shard is gone; the live base and the
            # never-registered full-history shard are untouched.
            assert not os.path.exists(_shard_file(tmp_path, EPOCH_FPS[1]))
            assert os.path.exists(_shard_file(tmp_path, EPOCH_FPS[0]))
            assert os.path.exists(_shard_file(tmp_path, PLAIN_FP))
            assert store.get(_key(PLAIN_FP)) is not None

    def test_expiry_updates_registry(self, tmp_path):
        with _seed_store(tmp_path) as store:
            store.expire_epochs(set())
            payload = json.loads(
                (tmp_path / EPOCHS_FILE).read_text(encoding="utf-8")
            )
            assert payload["bases"] == {}
            # A second pass is a no-op.
            again = store.expire_epochs(set())
            assert again.expired == []
            assert again.shards_removed == 0

    def test_all_live_is_a_noop(self, tmp_path):
        with _seed_store(tmp_path) as store:
            before = (tmp_path / EPOCHS_FILE).read_text(encoding="utf-8")
            report = store.expire_epochs(set(EPOCH_FPS))
            assert report.expired == []
            assert report.live == 2
            assert (tmp_path / EPOCHS_FILE).read_text(
                encoding="utf-8"
            ) == before

    def test_describe_summarizes_the_pass(self, tmp_path):
        with _seed_store(tmp_path) as store:
            text = store.expire_epochs({EPOCH_FPS[0]}).describe()
            assert "1 epoch base(s) expired" in text
            assert "1 live" in text


class TestTornRegistry:
    def test_torn_registry_tolerated(self, tmp_path):
        with _seed_store(tmp_path) as store:
            (tmp_path / EPOCHS_FILE).write_text("{torn", encoding="utf-8")
            report = store.expire_epochs(set())
            # The torn registry costs only expiry bookkeeping: nothing
            # expires, records stay intact, the damage is counted.
            assert report.expired == []
            assert store.salvage_events == 1
            for fp in EPOCH_FPS + (PLAIN_FP,):
                assert store.get(_key(fp)) is not None

    @pytest.mark.parametrize("text", ["[]", "null", "3"])
    def test_registry_that_is_not_an_object_is_damage(self, tmp_path, text):
        with _seed_store(tmp_path) as store:
            (tmp_path / EPOCHS_FILE).write_text(text, encoding="utf-8")
            store.register_epoch_fingerprints({"ccfeed0004": {"seed": 1}})
            assert store.salvage_events == 1
            # the registry restarts empty, then takes the new base
            bases = json.loads(
                (tmp_path / EPOCHS_FILE).read_text(encoding="utf-8")
            )["bases"]
            assert sorted(bases) == ["ccfeed0004"]
            assert store.expire_epochs({"ccfeed0004"}).expired == []

    def test_missing_registry_is_empty(self, tmp_path):
        with AttemptStore(str(tmp_path)) as store:
            report = store.expire_epochs({"whatever"})
            assert report.expired == []
            assert report.live == 0
