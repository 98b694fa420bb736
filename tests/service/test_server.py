"""The service end to end, over real sockets.

One in-process server (``ServiceThread``, module-scoped: booting the
real asyncio server once keeps the suite fast) serves every test; each
test uses its own tenant namespace where isolation matters.  The
headline assertions:

* a submitted job's report is **byte-identical** to the serial engine's
  (`render_report`) for the same request, cold store, warm store, and
  `jobs=2` over the shared pool alike;
* admission refuses with 429 once the queue bound or a tenant budget is
  hit, and recovers;
* cancel/404/405/400/409 semantics match ``docs/service.md``;
* SIGTERM-style drain finishes running jobs and flips ``/healthz``.
"""

import http.client
import json
import socket

import pytest

from repro.apps import get_bug
from repro.core.explorer import ExplorerConfig
from repro.core.recorder import record
from repro.core.reproducer import render_report, reproduce
from repro.core.sketches import SketchKind
from repro.service import JobRequest, ServiceClient, ServiceError, ServiceThread
from repro.sim import MachineConfig

BUG = "pbzip2-order-free"
SEED = 3
MAX_ATTEMPTS = 200


def _slow_request(**overrides):
    """A request that runs long enough (~0.4s: server-side seed search
    plus a 19-attempt exploration) that submits racing it — queue-full,
    budget-full, cancel-while-queued — are deterministic in practice."""
    fields = dict(bug="mysql-atom-log", seed=None)
    fields.update(overrides)
    return JobRequest(**fields)


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    root = tmp_path_factory.mktemp("service") / "store"
    with ServiceThread(str(root), slots=2, pool_jobs=2) as thread:
        yield thread


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient(service.url)


@pytest.fixture(scope="module")
def serial_report():
    spec = get_bug(BUG)
    recorded = record(
        spec.make_program(),
        sketch=SketchKind.SYNC,
        seed=SEED,
        config=MachineConfig(ncpus=4),
        oracle=spec.oracle,
    )
    return render_report(
        reproduce(recorded, ExplorerConfig(max_attempts=MAX_ATTEMPTS))
    )


_POST_JOBS = b"POST /jobs HTTP/1.1\r\nHost: localhost\r\n"


def _json_post(body):
    return (_POST_JOBS + b"Content-Length: %d\r\n\r\n" % len(body)) + body


def _raw_status(port, request_bytes, half_close=True):
    """Send raw request bytes; the status code of the one response."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as raw:
        raw.sendall(request_bytes)
        if half_close:
            raw.shutdown(socket.SHUT_WR)
        response = b""
        while b"\r\n" not in response:
            chunk = raw.recv(4096)
            if not chunk:
                break
            response += chunk
    return int(response.split(b" ", 2)[1])


def _submit_and_wait(client, **overrides):
    fields = dict(bug=BUG, seed=SEED, max_attempts=MAX_ATTEMPTS)
    fields.update(overrides)
    doc = client.submit(JobRequest(**fields))
    final = client.wait_for(doc["id"])
    return doc["id"], final


class TestByteIdentity:
    def test_cold_job_matches_the_serial_engine(self, client, serial_report):
        job_id, final = _submit_and_wait(client, tenant="bytes")
        assert final["state"] == "done"
        assert client.result_text(job_id) == serial_report

    def test_warm_and_pooled_jobs_match_too(self, client, serial_report):
        for jobs in (1, 2):  # serial slot + shared-pool exploration
            job_id, final = _submit_and_wait(client, tenant="bytes", jobs=jobs)
            assert final["state"] == "done"
            assert client.result_text(job_id) == serial_report
        result = client.result(job_id)
        # The tenant's store answered the repeat's attempts from disk
        # (batch assembly may probe — and hit — beyond the winning
        # attempt, so hits can exceed the report's attempt count).
        assert result["cache_hits"] >= result["attempts"] > 0

    def test_result_json_carries_the_same_report(self, client, serial_report):
        job_id, _ = _submit_and_wait(client, tenant="bytes")
        assert client.result(job_id)["report"] == serial_report


class TestTenancy:
    def test_tenants_do_not_share_store_warmth(self, client):
        job_id, _ = _submit_and_wait(client, tenant="cold-tenant")
        result = client.result(job_id)
        assert result["cache_hits"] == 0  # nothing warmed this namespace

    def test_jobs_listing_filters_by_tenant(self, client):
        _submit_and_wait(client, tenant="list-a")
        _submit_and_wait(client, tenant="list-b")
        listed = client.jobs("list-a")
        assert listed and all(
            doc["request"]["tenant"] == "list-a" for doc in listed
        )


class TestErrors:
    def test_unknown_path_404(self, client):
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/nope")
        assert err.value.status == 404

    def test_wrong_method_405(self, client):
        with pytest.raises(ServiceError) as err:
            client._request("DELETE", "/jobs")
        assert err.value.status == 405

    def test_invalid_body_400(self, client):
        with pytest.raises(ServiceError) as err:
            client._request("POST", "/jobs", body={"bug": ""})
        assert err.value.status == 400

    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.status("j999999")
        assert err.value.status == 404

    def test_result_before_done_409(self, tmp_path):
        with ServiceThread(
            str(tmp_path / "store"), slots=1, pool_jobs=2
        ) as svc:
            local = ServiceClient(svc.url)
            running = local.submit(_slow_request())
            queued = local.submit(JobRequest(bug=BUG, seed=SEED))
            # The second job cannot have started: one slot, FIFO queue.
            with pytest.raises(ServiceError) as err:
                local.result(queued["id"])
            assert err.value.status == 409
            for doc in (running, queued):
                local.wait_for(doc["id"])

    def test_cancel_after_finish_409(self, client):
        job_id, _ = _submit_and_wait(client, tenant="late-cancel")
        with pytest.raises(ServiceError) as err:
            client.cancel(job_id)
        assert err.value.status == 409

    def test_malformed_request_line_400(self, service):
        with socket.create_connection(
            ("127.0.0.1", service.port), timeout=10
        ) as raw:
            raw.sendall(b"BOGUS\r\n\r\n")
            data = raw.recv(4096)
        assert b"400" in data.split(b"\r\n", 1)[0]

    @pytest.mark.parametrize("request_bytes", [
        pytest.param(_POST_JOBS + b"Content-Length: abc\r\n\r\n{}",
                     id="non-numeric-content-length"),
        pytest.param(_POST_JOBS + b"Content-Length: -5\r\n\r\n{}",
                     id="negative-content-length"),
        pytest.param(_POST_JOBS + b"Content-Length: 100\r\n\r\n{}",
                     id="body-shorter-than-content-length"),
        pytest.param(b"GET /" + b"x" * 200_000 + b" HTTP/1.1\r\n\r\n",
                     id="long-request-line"),
        pytest.param(b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"x" * 200_000
                     + b"\r\n\r\n", id="long-header-line"),
        pytest.param(_json_post(b"[" * 100_000 + b"]" * 100_000),
                     id="deeply-nested-body"),
    ])
    def test_malformed_request_head_or_body_400(self, service, request_bytes):
        # The client sends everything, then half-closes: the server sees
        # end of input, never a stall.
        assert _raw_status(service.port, request_bytes) == 400

    def test_stalled_body_is_answered_408_at_the_deadline(
        self, service, monkeypatch
    ):
        from repro.service import server

        monkeypatch.setattr(server, "READ_DEADLINE", 0.5)
        request_bytes = _POST_JOBS + b"Content-Length: 100\r\n\r\n{}"
        assert _raw_status(service.port, request_bytes, half_close=False) == 408

    def test_unknown_bug_is_refused_at_submit(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit(JobRequest(bug="no-such-bug", tenant="ghost"))
        assert err.value.status == 400
        assert "unknown bug 'no-such-bug'; known bugs:" in str(err.value)
        assert client.jobs("ghost") == []


class TestBackpressure:
    def test_tenant_budget_refuses_with_429(self, tmp_path):
        with ServiceThread(
            str(tmp_path / "store"), slots=1, tenant_slots=1, pool_jobs=2
        ) as svc:
            local = ServiceClient(svc.url)
            first = local.submit(_slow_request(tenant="busy"))
            with pytest.raises(ServiceError) as err:
                local.submit(JobRequest(bug=BUG, seed=SEED, tenant="busy"))
            assert err.value.status == 429
            # Another tenant is unaffected by the noisy neighbour.
            other = local.submit(JobRequest(bug=BUG, seed=SEED, tenant="calm"))
            local.wait_for(first["id"])
            local.wait_for(other["id"])
            # Budget freed: the same tenant is admitted again.
            retry = local.submit(JobRequest(bug=BUG, seed=SEED, tenant="busy"))
            assert local.wait_for(retry["id"])["state"] == "done"

    def test_queue_bound_refuses_with_429(self, tmp_path):
        with ServiceThread(
            str(tmp_path / "store"), slots=1, max_queued=1, pool_jobs=2
        ) as svc:
            local = ServiceClient(svc.url)
            admitted = [
                local.submit(_slow_request())["id"],  # occupies the slot
                local.submit(JobRequest(bug=BUG, seed=SEED))["id"],  # queues
            ]
            with pytest.raises(ServiceError) as err:
                local.submit(JobRequest(bug=BUG, seed=SEED))
            assert err.value.status == 429
            for job_id in admitted:
                local.wait_for(job_id)


class TestLifecycle:
    def test_health_reports_ok_and_counters_accumulate(self, client):
        health = client.health()
        assert health["status"] == "ok"
        counters = client.metrics()["counters"]
        assert counters["service.submitted"] >= counters["service.done"] > 0

    def test_cancel_queued_job(self, tmp_path):
        with ServiceThread(
            str(tmp_path / "store"), slots=1, pool_jobs=2
        ) as svc:
            local = ServiceClient(svc.url)
            running = local.submit(_slow_request())
            queued = local.submit(JobRequest(bug=BUG, seed=SEED))
            cancelled = local.cancel(queued["id"])
            assert cancelled["state"] == "cancelled"
            assert local.wait_for(running["id"])["state"] == "done"

    def test_drain_finishes_running_jobs_and_flushes_the_store(self, tmp_path):
        root = str(tmp_path / "store")
        svc = ServiceThread(root, slots=2, pool_jobs=2)
        local = ServiceClient(svc.url)
        local.submit(JobRequest(bug=BUG, seed=SEED))
        svc.close()  # same graceful path as SIGTERM
        # The running job was finished and flushed before shutdown:
        # its outcome is in the tenant store a fresh server can read.
        with ServiceThread(root) as again:
            fresh = ServiceClient(again.url)
            job_id, final = _submit_and_wait(fresh)
            assert final["state"] == "done"
            assert fresh.result(job_id)["cache_hits"] > 0

    def test_status_document_shape(self, client):
        job_id, final = _submit_and_wait(client, tenant="shape")
        assert final["id"] == job_id
        assert final["state"] == "done"
        assert final["request"]["bug"] == BUG
        assert isinstance(final["latency_s"], float)
        assert isinstance(final["seq"], int)


def test_response_json_is_sorted_and_closed(service):
    conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=10)
    try:
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        assert response.getheader("Connection") == "close"
        payload = response.read().decode("utf-8")
        doc = json.loads(payload)
        assert list(doc) == sorted(doc)
    finally:
        conn.close()
