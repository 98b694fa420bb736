"""The one plan model: both producers' plans round-trip through
``pres-plan-v2`` JSON, and every malformed input raises
:class:`PlanFormatError` — never a raw ``KeyError``/``AttributeError``/
``JSONDecodeError``.
"""

import copy
import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.static_ import analyze_program
from repro.core.plan import DYNAMIC, STATIC, Plan, PlanFormatError
from repro.core.recorder import record
from repro.core.sketches import SketchKind
from repro.errors import ReproError
from repro.sanitize import build_plan

from tests.analysis.test_static_analyzer import (
    deadlock_program,
    racy_counter_program,
)
from tests.conftest import counter_program


@functools.lru_cache(maxsize=None)
def _plans():
    dynamic = build_plan(
        record(counter_program(nworkers=3, iters=5), sketch=SketchKind.RW).log
    )
    return (
        dynamic,
        analyze_program(racy_counter_program(), failure="lost update"),
        analyze_program(deadlock_program()),
    )


class TestRoundTrip:
    def test_both_provenances_round_trip(self):
        provenances = set()
        for plan in _plans():
            provenances.add(plan.provenance)
            rebuilt = Plan.from_json(plan.to_json())
            assert rebuilt == plan
            assert rebuilt.to_json() == plan.to_json()
            assert rebuilt.describe() == plan.describe()
        assert provenances == {DYNAMIC, STATIC}

    def test_findings_carry_their_kind_threads_and_targets(self):
        dynamic, static, deadlock = _plans()
        for race in dynamic.races + static.races:
            assert race.kind == "race" and len(race.threads) == 2
            assert race.targets and race.description
        assert deadlock.deadlocks[0].targets == ("A", "B")
        assert deadlock.deadlocks[0].constraints


class TestMalformedInput:
    @pytest.mark.parametrize(
        "text",
        [
            '{"format": "pres-static-plan-v1"}',  # KeyError at v1
            "[]",  # AttributeError at v1
            "not json",  # JSONDecodeError at v1
            '{"format": "pres-plan-v2"}',
            '{"format": "something-else"}',
            "",
        ],
    )
    def test_raises_the_named_error(self, text):
        with pytest.raises(PlanFormatError):
            Plan.from_json(text)

    def test_the_named_error_is_a_repro_and_a_value_error(self):
        assert issubclass(PlanFormatError, ReproError)
        assert issubclass(PlanFormatError, ValueError)

    @pytest.mark.parametrize("tag", ["pres-plan-v1", "pres-static-plan-v1"])
    def test_v1_plans_are_refused_with_a_re_run_hint(self, tag):
        with pytest.raises(PlanFormatError, match="re-run `pres analyze`"):
            Plan.from_json(json.dumps({"format": tag, "program": "x"}))


#: Stand-ins of every JSON type, for retyping a field.
_RETYPES = [None, True, 0, -3, 1.5, "", "x", [], [1], {}, {"__t": [1]}]


def _paths(node, prefix=()):
    """Every path (a tuple of keys and indices) into a JSON tree."""
    yield prefix
    children = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _set(payload, path, value):
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def _drop(payload, path):
    node = payload
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]


@st.composite
def _mutated(draw):
    """One valid plan's JSON, damaged one way."""
    plan = draw(st.sampled_from(_plans()))
    text = plan.to_json()
    how = draw(st.sampled_from(["truncate", "drop", "retype", "tag", "root"]))
    if how == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    payload = json.loads(text)
    if how == "tag":
        payload["format"] = draw(
            st.sampled_from(["pres-plan-v1", "pres-static-plan-v1", "", 2])
        )
    elif how == "root":
        payload = draw(st.sampled_from([[], [payload], "plan", 3, None]))
    else:
        paths = [p for p in _paths(payload) if p]
        path = draw(st.sampled_from(paths))
        if how == "drop":
            _drop(payload, path)
        else:
            _set(payload, path, copy.deepcopy(draw(st.sampled_from(_RETYPES))))
    return json.dumps(payload)


@settings(max_examples=300, deadline=None)
@given(_mutated())
def test_mutated_plans_round_trip_or_raise_the_named_error(text):
    try:
        plan = Plan.from_json(text)
    except PlanFormatError:
        return
    rebuilt = Plan.from_json(plan.to_json())
    assert rebuilt == plan
    plan.describe()
    for sketch in SketchKind:
        plan.seeds_for(sketch)
