"""Round-trip fidelity of the attempt-store JSON codec.

A warm run folds decoded outcomes back into the exploration engine in
place of live replays, so any drift through the JSON round trip (a tuple
decoded as a list, a candidate field lost) would change the frontier.
These tests pin exact equality through ``json.dumps``/``loads``.
"""

import json
from dataclasses import replace

import pytest

from repro.core.constraints import EventRef, OrderConstraint
from repro.core.feedback import AttemptCache, Candidate
from repro.core.parallel import AttemptOutcome
from repro.errors import SketchFormatError
from repro.store.codec import (
    decode_key,
    decode_record,
    encode_key,
    encode_record,
)

FP = "deadbeef0001"


def _ref(tid, occurrence=0, key=("seg", 3)):
    return EventRef(tid=tid, family="rw", key=key, occurrence=occurrence)


def _constraints(n=2):
    return frozenset(
        OrderConstraint(before=_ref(1, i), after=_ref(2, i)) for i in range(n)
    )


def _key(seed=7, policy="random", match=False, constraints=None):
    return AttemptCache.key_for(
        ("sync", 9, FP),
        _constraints() if constraints is None else constraints,
        seed,
        policy,
        match,
    )


def _candidate(rank=0):
    return Candidate(
        constraints=_constraints(1),
        depth=2,
        anchor_gidx=5,
        shape="flip",
        tier=1,
        rank=rank,
    )


def _outcome(key, schedule=(1, 2, 1)):
    return AttemptOutcome(
        constraints=key[1],
        seed=key[2],
        outcome="no-failure",
        detail="ran clean",
        steps=12,
        matched=False,
        fingerprint="fp:abc",
        candidates=(_candidate(0), _candidate(1)),
        schedule=schedule,
    )


def _wire(value):
    """The JSON round trip every persisted record takes."""
    return json.loads(json.dumps(value))


class TestKeyRoundTrip:
    def test_key_round_trips_exactly(self):
        key = _key()
        assert decode_key(_wire(encode_key(key))) == key

    def test_tuple_event_keys_come_back_as_tuples(self):
        key = _key(constraints=frozenset({
            OrderConstraint(before=_ref(1, 0, key=("page", 4, "slot")),
                            after=_ref(2, 0, key=("page", 4, "slot"))),
        }))
        decoded = decode_key(_wire(encode_key(key)))
        (constraint,) = decoded[1]
        assert constraint.before.key == ("page", 4, "slot")
        assert isinstance(constraint.before.key, tuple)

    def test_encoding_is_constraint_order_independent(self):
        ordered = list(_constraints(3))
        forward = _key(constraints=frozenset(ordered))
        backward = _key(constraints=frozenset(reversed(ordered)))
        assert json.dumps(encode_key(forward), sort_keys=True) == json.dumps(
            encode_key(backward), sort_keys=True
        )


class TestRecordRoundTrip:
    def test_record_round_trips_exactly(self):
        key = _key()
        outcome = _outcome(key)
        decoded_key, decoded_outcome, tick = decode_record(
            _wire(encode_record(key, outcome, (3, 4)))
        )
        assert decoded_key == key
        assert decoded_outcome == outcome
        assert tick == (3, 4)

    def test_missing_schedule_round_trips_as_none(self):
        key = _key()
        _, decoded, _ = decode_record(
            _wire(encode_record(key, _outcome(key, schedule=None), (0, 0)))
        )
        assert decoded.schedule is None

    def test_spans_never_reach_the_wire(self):
        key = _key()
        outcome = _outcome(key)
        spanned = replace(outcome, spans=("a-span",))
        assert encode_record(key, spanned, (0, 0)) == encode_record(
            key, outcome, (0, 0)
        )
        _, decoded, _ = decode_record(_wire(encode_record(key, spanned, (0, 0))))
        assert decoded.spans == ()


class TestMinedFlag:
    def test_unmined_outcome_round_trips(self):
        key = _key()
        unmined = replace(_outcome(key), candidates=(), mined=False)
        record = _wire(encode_record(key, unmined, (0, 0)))
        assert record["outcome"]["mined"] is False
        _, decoded, _ = decode_record(record)
        assert decoded == unmined and decoded.mined is False

    def test_mined_outcomes_keep_todays_record_format(self):
        # the flag is written only when false, so a mined outcome's
        # record is byte-identical to one written before it existed.
        key = _key()
        record = _wire(encode_record(key, _outcome(key), (1, 2)))
        assert "mined" not in record["outcome"]
        _, decoded, _ = decode_record(record)
        assert decoded.mined is True

    def test_snapshots_never_reach_the_wire(self):
        key = _key()
        outcome = _outcome(key)
        carrying = replace(outcome, snapshots=((48, ("machine", "sched")),))
        assert encode_record(key, carrying, (0, 0)) == encode_record(
            key, outcome, (0, 0)
        )

    @pytest.mark.parametrize("flag", ["no", 0, None, [False]])
    def test_a_malformed_flag_raises_sketch_format_error(self, flag):
        key = _key()
        record = _wire(encode_record(key, _outcome(key), (0, 0)))
        record["outcome"]["mined"] = flag
        with pytest.raises(SketchFormatError):
            decode_record(record)


class TestDamage:
    def _good(self):
        key = _key()
        return _wire(encode_record(key, _outcome(key), (1, 2)))

    def test_bad_payloads_raise_sketch_format_error(self):
        good = self._good()
        missing_outcome = dict(good)
        del missing_outcome["outcome"]
        short_tick = dict(good, tick=[1])
        gutted_outcome = dict(good, outcome={"outcome": "x"})
        for bad in ({}, "not a dict", 7, missing_outcome, short_tick,
                    gutted_outcome):
            with pytest.raises(SketchFormatError):
                decode_record(bad)

    def test_damaged_key_raises_not_crashes(self):
        good = self._good()
        bad = dict(good, key=dict(good["key"], constraints=[{"before": {}}]))
        with pytest.raises(SketchFormatError):
            decode_record(bad)
