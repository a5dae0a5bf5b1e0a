"""Tests of the benchmark's own machinery; jpmsim itself is not changed.

Run from the root of the repository:

    python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _cold_task(kind):
    return next(t for t in workloads.make("cli-cold", 7) if t["kind"] == kind)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Real artifacts of three subcommands at the default config."""
    out = tmp_path_factory.mktemp("artifacts")
    paths = {}
    for kind in ("potential-sweep", "budget", "transfer-peak"):
        code, written, _ = worker._in_process(_cold_task(kind), out)
        assert code == 0
        paths[kind] = written[0]
    return paths


def _edit(path, tmp_path, change):
    copy = tmp_path / path.name
    copy.write_text(change(path.read_text()))
    return copy


def test_genuine_artifacts_pass(artifacts):
    for kind, path in artifacts.items():
        checks.CHECKS[kind](path, _cold_task(kind))


def _replace_field(column, value):
    def change(text):
        lines = text.splitlines()
        cells = lines[3].split(",")
        cells[column] = value
        lines[3] = ",".join(cells)
        return "\n".join(lines) + "\n"

    return change


@pytest.mark.parametrize(
    "kind, change, layer",
    [
        ("potential-sweep", lambda text: "\n".join(text.splitlines()[:-1]) + "\n", None),
        ("potential-sweep", _replace_field(3, "0.5"), "potential"),
        ("potential-sweep", _replace_field(6, "nan"), "potential"),
        ("potential-sweep", lambda text: text[: len(text) // 2], None),
        ("budget", lambda text: text.replace('"epsilon_dark": 0.0', '"epsilon_dark": 0.5'), "protocol"),
        ("budget", lambda text: text.replace("{", "[", 1), "cli"),
        ("transfer-peak", lambda text: text.replace('"eta_peak": 0.', '"eta_peak": 0.9'), "transfer"),
    ],
)
def test_corrupted_artifact_fails_its_check(artifacts, tmp_path, kind, change, layer):
    corrupted = _edit(artifacts[kind], tmp_path, change)
    assert corrupted.read_text() != artifacts[kind].read_text()
    with pytest.raises(checks.CheckFailed) as info:
        checks.CHECKS[kind](corrupted, _cold_task(kind))
    assert layer is None or info.value.layer == layer


def test_failed_check_counts_in_error_rate(artifacts, tmp_path, monkeypatch):
    task = _cold_task("budget")
    wrong = _edit(artifacts["budget"], tmp_path, lambda text: text.replace('"F_raw": 0.', '"F_raw": 0.1'))
    monkeypatch.setattr(worker, "_in_process", lambda task, out_dir: (0, [wrong], None))
    good = worker.Outcome(0.1)
    bad = worker.execute(task, tmp_path / "out", cold=False)
    assert bad.failure is not None and bad.failure[0] == "protocol"
    result = {"plain": worker.summary([good, bad, good], 1, [0.006] * 3), "warmup_failure": None}
    assert run.tally(result) == (4, 1)


def test_tail_has_ten_tasks_beyond_it():
    values = list(range(1, 41))
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10 and pct == 75.0
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3)


def test_per_call_costs_are_scaled_to_nominal_host_speed():
    ref = worker.hostspeed.REFERENCE_S
    spans = [  # name, layer, start, end, parent, task, note
        ["potential-sweep", "task", 0.0, 0.010, -1, "traced-0-0", None],
        ["potential.find_extrema", "potential", 0.001, 0.003, 0, "traced-0-0", {"scan_cells": 9}],
        ["potential-sweep", "task", 1.0, 1.010, -1, "traced-1-0", None],
        ["potential.find_extrema", "potential", 1.001, 1.002, 2, "traced-1-0", {"scan_cells": 9}],
    ]
    # Cycle 0 ran at half the nominal speed, cycle 1 at the nominal speed.
    traced = worker.summary([worker.Outcome(0.010)] * 2, 2, [2 * ref, ref])
    plain = worker.summary([worker.Outcome(0.010)] * 2, 2, [ref, ref])
    metrics = worker.layers.per_layer(spans, traced, plain, {})
    assert metrics["potential.find_extrema.us_per_call_p50"] == ("us", pytest.approx(1000.0))
    assert metrics["transfer.mode2_energy_numeric.ms_per_call_p50"] == ("ms", 0.0)
    assert metrics["potential.find_extrema.calls_per_task"] == ("count", 1.0)


def test_inputs_follow_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.make(name, 5) == workloads.make(name, 5)
        assert workloads.make(name, 5) != workloads.make(name, 6)


def test_run_refuses_a_tree_without_jpmsim(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "flux-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""


def test_traced_self_times_add_up_to_task_time():
    """Layer self times cover task time up to the tracing overhead.

    Time inside a traced task that no jpmsim layer covers (`bench.share`:
    the timer, the loop and wrapper entry) must stay within the size of
    the reported overhead, with a floor of 1% of task time, since the
    overhead is a difference of two noisy throughputs and can come out
    near zero or negative.
    """
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "flux-sweep", "--seed", "1", "--seconds", "2", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    metrics = json.loads(out.stdout.splitlines()[-1])["metrics"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert metrics["bench.share"]["value"] <= max(abs(metrics["trace.overhead_pct"]["value"]), 1.0)
    assert metrics["potential.share"]["value"] > 50.0
