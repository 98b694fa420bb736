"""``pres analyze --static`` output, pinned by a golden file.

The analyzer is a pure function of the program source, so the CLI
report is byte-for-byte reproducible; the golden file at
``tests/fixtures/static_analyze_golden.txt`` is the contract for the
report layout.  Regenerate it by running this module as a script::

    PYTHONPATH=src python tests/analysis/test_static_golden.py
"""

from __future__ import annotations

import json
import pathlib

from repro.cli import main

GOLDEN = (
    pathlib.Path(__file__).parent.parent
    / "fixtures"
    / "static_analyze_golden.txt"
)
BUG = "pbzip2-order-free"


def _render(capsys) -> str:
    assert main(["analyze", BUG, "--static"]) == 0
    return capsys.readouterr().out


def test_static_analyze_matches_golden(capsys):
    assert _render(capsys) == GOLDEN.read_text(encoding="utf-8")


def test_static_analyze_json_mode_is_a_full_plan(capsys):
    assert main(["analyze", BUG, "--static", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["format"] == "pres-plan-v2"
    assert payload["provenance"] == "static"
    assert payload["subject"] == BUG
    assert payload["candidates"]


if __name__ == "__main__":
    import contextlib
    import io

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(["analyze", BUG, "--static"]) == 0
    GOLDEN.write_text(buffer.getvalue(), encoding="utf-8")
    print(f"wrote {GOLDEN}")
