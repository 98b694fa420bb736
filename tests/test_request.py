"""One reproduction request from the CLI, the library and the service.

``pres reproduce``, :func:`~repro.core.request.run_request` and a job on
the reproduction service all run the same
:class:`~repro.core.request.ReproduceRequest`, so:

* every T1 bug renders the same report bytes on all three paths;
* every composition rule is refused once, by ``validate()``: exit 2 on
  the CLI before anything runs, 400 on ``POST /jobs`` before a job
  exists;
* a service job still calls ``record`` and ``reproduce`` through the
  names in :mod:`repro.service.jobs`, which profilers and tests wrap.
"""

import http.client
import json

import pytest

from repro.apps import ALL_BUG_IDS
from repro.cli import main
from repro.core.plan import Plan
from repro.core.reproducer import render_report
from repro.core.request import ReproduceRequest, run_request
from repro.core.sketches import SketchKind
from repro.errors import SimUsageError
from repro.service import JobRequest, ServiceClient, ServiceThread
from repro.service import jobs as service_jobs

PATHS = [(bug, sketch) for bug in ALL_BUG_IDS for sketch in ("sync", "sys")]


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    root = tmp_path_factory.mktemp("request-service") / "store"
    with ServiceThread(str(root), slots=2, pool_jobs=2) as thread:
        yield thread


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient(service.url)


def _post_jobs(port, doc):
    """``POST /jobs`` with a raw JSON body (no client-side checks)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", "/jobs", body=json.dumps(doc).encode("utf-8"),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


@pytest.mark.parametrize("index", range(len(PATHS)),
                         ids=[f"{bug}-{sketch}" for bug, sketch in PATHS])
def test_cli_library_and_service_render_the_same_report(
    index, tmp_path, capsys, client
):
    bug, sketch = PATHS[index]
    report_file = tmp_path / "report.txt"
    code = main(["reproduce", bug, "--sketch", sketch,
                 "--report-out", str(report_file)])
    capsys.readouterr()
    assert code == 0
    cli_text = report_file.read_text(encoding="utf-8")

    request = ReproduceRequest(bug, sketch=SketchKind(sketch))
    assert render_report(run_request(request).report) == cli_text

    doc = client.submit(JobRequest(
        bug=bug, tenant="paths", sketch=sketch, jobs=1 + index % 2,
    ))
    assert client.wait_for(doc["id"])["state"] == "done"
    assert client.result_text(doc["id"]) == cli_text


#: (argv, flag names the refusal must name) — one row per rule.
REFUSED = [
    (["reproduce", "pbzip2-order-free", "--seed", "3", "--max-attempts", "0"],
     ["--max-attempts"]),
    (["diagnose", "pbzip2-order-free", "--seed", "3", "--max-attempts", "0"],
     ["--max-attempts"]),
    (["reproduce", "pbzip2-order-free", "--seed", "3", "--ncpus", "0"],
     ["--ncpus"]),
    (["record", "pbzip2-order-free", "--seed", "3", "--ncpus", "0"],
     ["--ncpus"]),
    (["reproduce", "pbzip2-order-free", "--seed", "3", "--epoch-window", "2"],
     ["--epoch-window", "--epoch-steps"]),
    (["record", "pbzip2-order-free", "--seed", "3", "--epoch-window", "2"],
     ["--epoch-window", "--epoch-steps"]),
    (["reproduce", "pbzip2-order-free", "--seed", "3", "--epoch-steps", "-1"],
     ["--epoch-steps"]),
    (["reproduce", "pbzip2-order-free", "--seed", "3", "--epoch-steps", "40",
      "--epoch-window", "-1"],
     ["--epoch-window"]),
    (["reproduce", "pbzip2-order-free", "--seed", "3", "--epoch-steps", "40",
      "--degrade"],
     ["--epoch-steps", "--degrade"]),
    (["reproduce", "pbzip2-order-free", "--seed", "3", "--epoch-steps", "40",
      "--plan"],
     ["--epoch-steps", "--plan"]),
    (["reproduce", "pbzip2-order-free", "--seed", "3", "--epoch-steps", "40",
      "--static"],
     ["--epoch-steps", "--static"]),
    (["reproduce", "pbzip2-order-free", "--seed", "3", "--epoch-steps", "40",
      "--journal", "j.journal", "--salvage"],
     ["--epoch-steps", "--salvage"]),
]


@pytest.mark.parametrize("argv,flags", REFUSED,
                         ids=[" ".join(argv[4:]) + f" ({argv[0]})"
                              for argv, _ in REFUSED])
def test_each_rule_is_refused_before_anything_runs(
    argv, flags, capsys, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
    for flag in flags:
        assert flag in err
    assert not (tmp_path / "j.journal").exists()


def test_a_saved_plan_must_be_static():
    with pytest.raises(SimUsageError, match="--static-plan"):
        ReproduceRequest(
            "pbzip2-order-free",
            plans=(Plan(provenance="dynamic", subject="rw"),),
        )


@pytest.mark.parametrize("field,flag", [("max_attempts", "--max-attempts"),
                                        ("ncpus", "--ncpus")])
def test_the_wire_refuses_the_same_rules_before_a_job_exists(
    service, client, field, flag
):
    before = client.health()["jobs"]
    status, doc = _post_jobs(service.port, {
        "bug": "pbzip2-order-free", "tenant": "rules", field: 0,
    })
    assert status == 400
    assert flag in doc["error"] and field in doc["error"]
    assert client.health()["jobs"] == before
    assert client.jobs("rules") == []


def test_a_job_calls_the_service_seams_once_each(client, monkeypatch):
    calls = {"record": 0, "reproduce": 0}

    def counted(name):
        original = getattr(service_jobs, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(service_jobs, name, wrapper)

    counted("record")
    counted("reproduce")
    doc = client.submit(JobRequest(bug="pbzip2-order-free", tenant="seams",
                                   seed=3, max_attempts=200))
    assert client.wait_for(doc["id"])["state"] == "done"
    assert calls == {"record": 1, "reproduce": 1}
