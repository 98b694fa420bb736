"""The wire contract in isolation: routing and request validation."""

import json

import pytest

from repro.service.protocol import (
    JobRequest,
    ProtocolError,
    ROUTES,
    Route,
    match,
)


class TestMatch:
    def test_every_route_matches_its_own_pattern(self):
        for route in ROUTES:
            path = route.pattern.replace("{id}", "j000001")
            found, params = match(route.method, path)
            assert found is route
            if "{id}" in route.pattern:
                assert params == {"id": "j000001"}
            else:
                assert params == {}

    def test_unknown_path_is_404(self):
        with pytest.raises(ProtocolError) as err:
            match("GET", "/nope")
        assert err.value.status == 404

    def test_wrong_method_is_405_listing_allowed(self):
        with pytest.raises(ProtocolError) as err:
            match("DELETE", "/jobs")
        assert err.value.status == 405
        assert "GET" in err.value.message and "POST" in err.value.message

    def test_path_params_do_not_cross_segments(self):
        with pytest.raises(ProtocolError) as err:
            match("GET", "/jobs/a/b/result")
        assert err.value.status == 404

    def test_route_names_are_unique(self):
        names = [route.name for route in ROUTES]
        assert len(names) == len(set(names))


class TestJobRequest:
    def test_minimal_body_gets_defaults(self):
        request = JobRequest.from_json(b'{"bug": "fft-order-sync"}')
        assert request == JobRequest(bug="fft-order-sync")
        assert request.tenant == "default"
        assert request.jobs == 0  # "server decides"

    def test_round_trips_through_its_json_form(self):
        request = JobRequest(bug="b", tenant="team-a", seed=7, jobs=2)
        again = JobRequest.from_json(json.dumps(request.to_json()).encode())
        assert again == request

    @pytest.mark.parametrize("body,fragment", [
        (b"not json", "invalid JSON"),
        (b"[]", "JSON object"),
        (b"{}", "bug"),
        (b'{"bug": ""}', "bug"),
        (b'{"bug": "b", "surprise": 1}', "unknown fields: surprise"),
        (b'{"bug": "b", "tenant": "Team A"}', "tenant"),
        (b'{"bug": "b", "tenant": "' + b"x" * 40 + b'"}', "tenant"),
        (b'{"bug": "b", "sketch": "psychic"}', "sketch"),
        (b'{"bug": "b", "seed": "7"}', "seed"),
        (b'{"bug": "b", "seed": true}', "seed"),
        (b'{"bug": "b", "max_attempts": true}', "max_attempts"),
        (b'{"bug": "b", "jobs": true}', "jobs"),
        (b'{"bug": "b", "jobs": false}', "jobs"),
        (b'{"bug": "b", "ncpus": true}', "ncpus"),
        (b'{"bug": "b", "max_attempts": 0}', "max_attempts"),
        (b'{"bug": "b", "jobs": -1}', "jobs"),
        (b'{"bug": "b", "ncpus": 0}', "ncpus"),
        (b'{"bug": "b", "meta": {"k": 1}}', "meta"),
    ])
    def test_defective_bodies_are_400(self, body, fragment):
        with pytest.raises(ProtocolError) as err:
            JobRequest.from_json(body)
        assert err.value.status == 400
        assert fragment in err.value.message

    def test_tenant_charset_is_path_safe(self):
        for tenant in ("a", "team-a", "team_a", "a0-b1"):
            JobRequest(bug="b", tenant=tenant)
        for tenant in ("", "-lead", "UP", "a/b", "a.b", ".."):
            with pytest.raises(ProtocolError):
                JobRequest(bug="b", tenant=tenant)


def test_routes_are_frozen_data():
    route = ROUTES[0]
    assert isinstance(route, Route)
    with pytest.raises(Exception):
        route.method = "PUT"
