"""jpmsim benchmark: run one workload for one seed and print its metrics.

Usage, from the root of a jpmsim checkout:

    python3 bench/run.py --workload flux-sweep --seed 1 --seconds 15 --trace 0

With --trace 0 it prints the end-to-end metrics; with --trace 1 the
per-layer ones.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines above it are
the same figures for people.  A run record and, for traced runs, the
spans are written under .bench_out/ in the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import hostspeed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
"""Set-up-only worker launches per untraced run; setup_s is their median."""
DEADLINE_S = 170.0
"""A run that has not finished by then is stopped and reports no result."""
TAIL_BEYOND = 10
BLAS_THREADS = "1"
END_TO_END = ("setup_s", "task_s_p50", "task_s_tail", "tasks_per_s", "peak_rss_mb")


def tail(values):
    """(value, percentile) at the highest percentile with TAIL_BEYOND tasks beyond it."""
    ordered = sorted(values)
    index = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def tally(result):
    """(attempted, failed) over the warm-up run and every timed task."""
    loops = [result["plain"]] + ([result["traced"]] if "traced" in result else [])
    attempted = 1 + sum(len(lp["task_s"]) for lp in loops)
    failed = (result["warmup_failure"] is not None) + sum(len(lp["failures"]) for lp in loops)
    return attempted, failed


def _lines(proc, deadline):
    """Lines of a worker's stdout, giving up at the deadline."""
    fd = proc.stdout.fileno()
    buffer = b""
    while True:
        while b"\n" in buffer:
            line, buffer = buffer.split(b"\n", 1)
            yield line.decode()
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            raise TimeoutError("worker did not answer before the deadline")
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return
        buffer += chunk


def launch(argv, env, deadline):
    """Start a worker; return (process, line iterator, seconds until READY)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv], stdout=subprocess.PIPE, env=env)
    lines = _lines(proc, deadline)
    try:
        if next(lines, None) != "READY":
            raise RuntimeError("worker exited before it was ready")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, lines, time.perf_counter() - start


def setup_sample(argv, env, deadline):
    """One set-up-only worker launch: (raw seconds, seconds at nominal host speed).

    The reference kernel runs on the worker's CPU just before and just
    after the launch (see hostspeed.bracketed).
    """
    def timed():
        proc, _, seconds = launch(argv, env, deadline)
        try:
            proc.wait(timeout=max(deadline - time.monotonic(), 1))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        return seconds

    return hostspeed.bracketed(timed)


def _source_digest(src):
    digest = hashlib.sha256()
    for path in sorted((src / "jpmsim").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_record(args, root, result, load_before, setups):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(root),
        "source_sha256": _source_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": {k: BLAS_THREADS for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "worker_cpu": result["cpu"],
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "input_sizes": result["sizes"],
        "setup_s_raw": [raw for raw, _ in setups],
        "setup_s": [scaled for _, scaled in setups],
        "task_s": result["plain"]["task_s"],
        "reference_s": result["plain"]["reference_s"],
        "failures": result["plain"]["failures"] + result.get("traced", {}).get("failures", []),
        "note": "Wall-clock timing (time.perf_counter) and getrusage of the benchmark's own processes only; "
                "no whole-machine tracing, cache dropping or change to system settings was used.",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "jpmsim" / "__init__.py").is_file():
        print(f"bench: no jpmsim sources under {src}; run from the root of a jpmsim checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    env.update({k: BLAS_THREADS for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (root / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=root / ".bench_work"))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    worker_argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--spans", str(out_dir / f"spans-{stem}.json")]

    # The worker, the jpmsim processes it starts and the set-up reference
    # kernel all run on this one CPU (see hostspeed.py).
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    load_before = os.getloadavg()
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    proc = None
    try:
        for i in range(0 if args.trace else SETUP_SAMPLES):
            setups.append(setup_sample(worker_argv + ["--workdir", str(workdir / f"setup-{i}"), "--setup-only"], env, deadline))
        proc, lines, _ = launch(worker_argv + ["--workdir", str(workdir / "main")], env, deadline)
        last = None
        for line in lines:
            last = line
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1))
        if code != 0 or last is None:
            raise RuntimeError(f"worker exited with code {code}")
        result = json.loads(last)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = tally(result)
    record_path = out_dir / f"run-{stem}.json"
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(run_record(args, root, result, load_before, setups), fh, indent=1)
        fh.write("\n")

    print(f"jpmsim bench  workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    task_s = hostspeed.normalized_task_s(result["plain"])
    if not args.trace:
        tail_s, tail_pct = tail(task_s)
        metrics = {
            "setup_s": ("s", statistics.median(scaled for _, scaled in setups)),
            "task_s_p50": ("s", statistics.median(task_s)),
            "task_s_tail": ("s", tail_s),
            "tasks_per_s": ("1/s", len(task_s) / sum(task_s)),
            "peak_rss_mb": ("MB", result["peak_rss_mb"]),
        }
        notes = {
            "setup_s": f"median of {len(setups)} worker set-ups",
            "task_s_p50": f"n={len(task_s)}",
            "task_s_tail": f"p{tail_pct:.1f}, n={len(task_s)}",
        }
    else:
        metrics = result["per_layer"]
        notes = {"trace.overhead_pct": "tasks_per_s lost to tracing"}
    for name, (unit, value) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit:<6} {notes.get(name, '')}")
    reference_ms = 1e3 * statistics.fmean(result["plain"]["reference_s"])
    print(f"  host speed: reference kernel {reference_ms:.2f} ms on CPU {result['cpu']}, nominal "
          f"{1e3 * hostspeed.REFERENCE_S:g} ms; set-up and task times are scaled to the nominal speed")
    print(f"  {'error_rate':<48} {failed / attempted:>14.6g} {'1':<6} {failed} of {attempted} tasks failed")
    for layer, message in result["plain"]["failures"] + result.get("traced", {}).get("failures", []):
        print(f"  FAILED [{layer}] {message}")
    if result.get("scipy_modules_per_subcommand"):
        print(f"  scipy modules loaded per cold subcommand: {result['scipy_modules_per_subcommand']}")
    if result["warmup_failure"] is not None:
        print(f"  FAILED [warm-up] {result['warmup_failure']}")
    print(f"  run record: {record_path.relative_to(root)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (unit, value) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
