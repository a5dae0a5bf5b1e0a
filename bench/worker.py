"""One benchmark worker process: set up, warm up, run the task loop.

The orchestrator (`run.py`) starts this file with the checkout's `src`
on PYTHONPATH.  The worker writes protocol lines to the stdout it was
started with: `READY` once set-up and warm-up are done, then one JSON
result.  jpmsim's own "wrote ..." lines go to /dev/null.

A task is timed from the call into jpmsim (or the launch of a fresh
`jpmsim` process) until it returns; its output checks run after the
timer stops.  The loop runs whole cycles of the workload's tasks; their
number follows from --seconds (see workloads.cycles), so a run does the
same work, and reports the same percentiles, whatever the machine's
speed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import checks
import hostspeed
import layers
import tracing
import workloads

HERE = Path(__file__).resolve().parent
CLI_MAIN = "import sys; from jpmsim.cli import main; sys.exit(main())"
IMPORT_PROBE = (
    "import json, sys, time; t = time.perf_counter(); import jpmsim.cli; t = time.perf_counter() - t; "
    "print(json.dumps({'import_s': t, 'modules': len(sys.modules), "
    "'scipy': sum(1 for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))}))"
)
IMPORT_PROBES = 3


class Outcome:
    """Seconds, failure and health figures of one executed task."""

    def __init__(self, seconds, failure=None, health=None, artifact_bytes=0):
        self.seconds = seconds
        self.failure = failure  # (layer, message) or None
        self.health = health or {}
        self.artifact_bytes = artifact_bytes


# ------------------------------------------------------------ running tasks


def _cold(task, out_dir, tracer=None):
    """Run one subcommand as a fresh `jpmsim` process; return (code, paths, stderr)."""
    argv = [task["kind"]]
    for override in task["overrides"]:
        argv += ["-s", override]
    if task["kind"] == "tomo-fit":
        argv += ["-s", f"tomo.input={out_dir / workloads.ARTIFACTS['tomo-synth']}"]
    argv += ["-o", str(out_dir)]
    if tracer is None:
        cmd = [sys.executable, "-c", CLI_MAIN, *argv]
    else:
        spans_path = out_dir / f"spans-{task['kind']}.json"
        cmd = [sys.executable, str(HERE / "tracehook.py"), str(spans_path), *argv]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=False)
    return proc.returncode, [out_dir / workloads.ARTIFACTS[task["kind"]]], proc.stderr.strip()


def _in_process(task, out_dir):
    """Run one in-process task; return (code, paths, extra) where extra feeds the check."""
    import numpy as np
    from jpmsim import cli, protocol

    kind = task["kind"]
    if kind == "shots":
        p = task["params"]
        cfg = protocol.ProtocolConfig(dark_prob=p["dark_prob"], bright_detect_prob=p["bright_detect_prob"],
                                      relaxation_override=p["relaxation"])
        model = protocol.IqModel(sigma=p["sigma"])
        rng = np.random.default_rng(p["seed"])
        results = [protocol.simulate_shot(i % 2 == 0, cfg, rng, model) for i in range(2 * p["n_pairs"])]
        fidelity = protocol.iq_discriminate(model, results)["single_shot_fidelity"]
        return 0, [], (results, fidelity)
    if kind == "tomo-roundtrip":
        code, synth = cli.run_subcommand("tomo-synth", None, task["overrides"], str(out_dir))
        if code != 0:
            return code, synth, None
        code, fit = cli.run_subcommand("tomo-fit", None, task["overrides"] + [f"tomo.input={synth[0]}"], str(out_dir))
        return code, synth + fit, None
    code, paths = cli.run_subcommand(kind, None, task["overrides"], str(out_dir))
    return code, paths, None


def check(task, code, paths, extra):
    """Check one task's outputs; return (failure or None, health figures)."""
    kind = task["kind"]
    try:
        if code != 0:
            raise checks.CheckFailed("cli", f"{kind} exited with code {code}")
        if kind == "shots":
            return None, checks.check_shots(*extra, task)
        if kind == "tomo-roundtrip":
            checks.check_tomogram(paths[0], task)
            return None, checks.check_tomo_fit(paths[1], task)
        return None, checks.CHECKS[kind](paths[0], task)
    except checks.CheckFailed as exc:
        return (exc.layer, str(exc)), {}


def execute(task, out_dir, cold, tracer=None):
    """Run, time and check one task."""
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    root = None
    if tracer is not None:
        root = tracer.open(task["kind"], "task", start)
    try:
        if cold:
            code, paths, extra = _cold(task, out_dir, tracer)
        else:
            code, paths, extra = _in_process(task, out_dir)
    except Exception as exc:  # a task that raises counts as failed; the run goes on
        end = time.perf_counter()
        if root is not None:
            tracer.close(root, end)
        return Outcome(end - start, (task["layer"], f"{type(exc).__name__}: {exc}"))
    end = time.perf_counter()
    if root is not None:
        tracer.close(root, end)
        if cold:
            _merge_cold_spans(tracer, root, start, end, out_dir / f"spans-{task['kind']}.json")
    failure, health = check(task, code, paths, extra)
    size = sum(p.stat().st_size for p in paths if p.exists())
    return Outcome(end - start, failure, health, size)


def _merge_cold_spans(tracer, root, launch, end, path):
    """Attach a traced child process's spans below the task span.

    Interpreter start (launch to the hook's first line) and interpreter
    exit (the hook's last line to process end) belong to the import layer.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return
    tracer.add("import.interpreter_start", "import", launch, data["t0"], root, tracer.task)
    offset = len(tracer.spans)
    for name, layer, s, e, parent, _, note in data["spans"]:
        tracer.add(name, layer, s, e, root if parent < 0 else parent + offset, tracer.task, note)
    tracer.add("import.interpreter_exit", "import", data["t_end"], end, root, tracer.task)
    tracer.extra.setdefault("scipy_modules_per_subcommand", {})[data["argv"][0]] = data["scipy"]


def same_bytes(first, second):
    """Determinism: every artifact in `first` has a byte-identical twin in `second`."""
    names = [p.name for p in first.iterdir() if not p.name.startswith("spans-")]
    return all((second / n).is_file() and (first / n).read_bytes() == (second / n).read_bytes() for n in names)


# ------------------------------------------------------------------ loop


def loop(tasks, workdir, cycles, cold, tracer=None, label="run"):
    """Run the task cycle `cycles` times; return the summary of the outcomes.

    The host-speed reference kernel runs before every task, outside its
    timer.
    """
    outcomes, references = [], []
    for cycle in range(cycles):
        for i, task in enumerate(tasks):
            references.append(hostspeed.reference_s())
            if tracer is not None:
                tracer.task = f"{label}-{cycle}-{i}"
            # Cold tasks share one directory per cycle, as a script would,
            # so tomo-fit reads the tomogram tomo-synth just wrote.
            out_dir = workdir / f"{label}-{cycle}" / ("" if cold else f"{i:02d}")
            outcomes.append(execute(task, out_dir, cold, tracer))
    return summary(outcomes, cycles, references)


def summary(outcomes, cycles, references):
    failures = [o.failure for o in outcomes if o.failure is not None]
    return {
        "cycles": cycles,
        "task_s": [o.seconds for o in outcomes],
        "reference_s": references,
        "failures": failures,
        "health": [o.health for o in outcomes],
        "artifact_bytes": [o.artifact_bytes for o in outcomes],
    }


# ------------------------------------------------------------------ probes


def alloc_peak_mb(tasks):
    """tracemalloc peak of one `fidelity_budget` call, in MB.

    The call uses the inputs of the cycle's first `budget` task; a
    workload without one reports 0.
    """
    from jpmsim import config, protocol

    budget = next((t for t in tasks if t["kind"] == "budget"), None)
    if budget is None:
        return {"protocol.fidelity_budget.alloc_peak_mb": ("MB", 0.0)}
    cfg = config.RunConfig.from_sources(None, budget["overrides"])
    tracemalloc.start()
    try:
        protocol.fidelity_budget(cfg.protocol_config(), cfg.get("budget.n_shots"), cfg.iq_model())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"protocol.fidelity_budget.alloc_peak_mb": ("MB", peak / 1e6)}


def import_probe():
    """`import jpmsim.cli` in fresh processes: time at nominal host speed and modules loaded."""
    runs = []

    def timed():
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, check=True)
        runs.append(json.loads(out.stdout))
        return runs[-1]["import_s"]

    times = [hostspeed.bracketed(timed)[1] for _ in range(IMPORT_PROBES)]
    return {
        "import.jpmsim_cli_s": ("s", statistics.median(times)),
        "import.modules_loaded": ("count", float(runs[-1]["modules"])),
        "import.scipy_modules_loaded": ("count", float(runs[-1]["scipy"])),
    }


# ------------------------------------------------------------------ main


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    proto = os.fdopen(os.dup(1), "w", buffering=1)
    sys.stdout = open(os.devnull, "w")
    # One CPU for the worker and the jpmsim processes it starts, so the
    # reference kernel measures the speed of the CPU every task runs on.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    cold = args.workload == "cli-cold"
    if not cold:
        import jpmsim.cli  # noqa: F401  (set-up cost of the in-process workloads)
    tasks = workloads.make(args.workload, args.seed)
    workdir = Path(args.workdir)
    warm = execute(tasks[0], workdir / "warm", cold)
    print("READY", file=proto, flush=True)
    if args.setup_only:
        return 0

    result = {"sizes": workloads.sizes(tasks), "warmup_failure": warm.failure, "cpu": cpu}
    cycles = workloads.cycles(args.workload, args.seconds / 2 if args.trace else args.seconds)
    plain = loop(tasks, workdir, cycles, cold, label="plain")
    if not plain["failures"] and warm.failure is None and not same_bytes(workdir / "warm", workdir / "plain-0" / ("" if cold else "00")):
        plain["failures"].append((tasks[0]["layer"], "determinism: artifacts differ between two runs of one input"))
    result["plain"] = plain
    who = resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    if args.trace:
        tracer = tracing.Tracer()
        undo = [] if cold else tracing.install(tracer)
        try:
            result["traced"] = loop(tasks, workdir, cycles, cold, tracer, label="traced")
        finally:
            tracing.uninstall(undo)
        probe = {**alloc_peak_mb(tasks), **import_probe()}
        result["per_layer"] = layers.per_layer(tracer.spans, result["traced"], result["plain"], probe)
        result["scipy_modules_per_subcommand"] = tracer.extra.get("scipy_modules_per_subcommand", {})
        tracer.dump(Path(args.spans))
    print(json.dumps(result), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
