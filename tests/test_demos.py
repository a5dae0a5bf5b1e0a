"""Smoke test: every script in demos/ runs to completion in-process."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demo_set():
    assert [path.stem for path in DEMOS] == [
        "measurement_budget",
        "potential_landscape",
        "tomography_round_trip",
        "transfer_efficiency",
    ]


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
