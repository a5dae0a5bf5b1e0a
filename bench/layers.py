"""Per-layer metrics of a traced run, from its spans and task outcomes.

Shares are a layer's (or function's) self time as a percentage of task
time; the part of task time no jpmsim layer covers is `bench.share`
(timer, process launch and wrapper cost).  Counts are per task.  Per-call
costs are taken from the traced tasks' spans, each span scaled to the
nominal host speed by its cycle's reference-kernel factor, as task
times are; a workload that makes no call of a kernel reports 0 for it.
Import figures come from fresh-process probes.
"""

from __future__ import annotations

import statistics

import hostspeed
import tracing

LAYERS = ("import",) + tracing.LAYERS

FUNCTION_SHARES = (
    "config.from_sources", "cli.run_subcommand", "potential.well_report", "potential.find_extrema",
    "transfer.peak_efficiency", "transfer.mode2_energy_numeric", "protocol.fidelity_budget",
    "protocol.iq_discriminate", "protocol.simulate_shot", "tomography.synthesize_tomogram",
    "tomography.fit_tomogram",
)

CALLS = (
    "config.from_sources", "cli.run_subcommand", "potential.find_extrema", "potential.critical_flux",
    "transfer.peak_efficiency", "transfer.mode2_energy_numeric", "protocol.fidelity_budget",
    "protocol.simulate_shot", "tomography.fit_tomogram",
)

PER_CALL = {
    "config.from_sources": ("us", 1e6),
    "potential.find_extrema": ("us", 1e6),
    "transfer.mode2_energy_numeric": ("ms", 1e3),
    "protocol.simulate_shot": ("us", 1e6),
    "tomography.synthesize_tomogram": ("us", 1e6),
    "tomography.fit_tomogram": ("ms", 1e3),
}
"""Functions whose median scaled call time is reported, with its unit."""

PER_UNIT = {
    "protocol.fidelity_budget.ns_per_shot": ("protocol.fidelity_budget", "shots"),
    "protocol.iq_discriminate.ns_per_draw": ("protocol.iq_discriminate", "draws"),
}
"""Scaled call time per unit of work, summed over the calls that do such work."""


def per_layer(spans, traced, plain, probe):
    """Every per-layer metric as name -> (unit, value).

    spans: the tracer's spans; only those of traced tasks count here.
    traced, plain: worker summaries of the traced and untraced loops.
    probe: figures measured outside the traced tasks (import, allocation).
    """
    own = tracing.self_times(spans)
    rows = [(s, o) for s, o in zip(spans, own) if str(s[5]).startswith("traced")]
    scales = hostspeed.cycle_scales(traced)
    task_total = sum(s[3] - s[2] for s, _ in rows if s[1] == "task")
    n_tasks = len(traced["task_s"])

    by_layer, by_name, calls, notes, scaled = {}, {}, {}, {}, {}
    for s, o in rows:
        layer = "bench" if s[1] == "task" else s[1]
        by_layer[layer] = by_layer.get(layer, 0.0) + o
        by_name[s[0]] = by_name.get(s[0], 0.0) + o
        calls[s[0]] = calls.get(s[0], 0) + 1
        notes.setdefault(s[0], []).append(s[6] or {})
        cycle = int(s[5].split("-")[1])  # task ids are traced-<cycle>-<index>
        scaled.setdefault(s[0], []).append((s[3] - s[2]) * scales[cycle])

    out = {}
    for layer in LAYERS + ("bench",):
        out[f"{layer}.share"] = ("%", 100.0 * by_layer.get(layer, 0.0) / task_total)
    for name in FUNCTION_SHARES:
        out[f"{name}.share"] = ("%", 100.0 * by_name.get(name, 0.0) / task_total)
    for name in CALLS:
        out[f"{name}.calls_per_task"] = ("count", calls.get(name, 0) / n_tasks)

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    def work(name, key):
        return [n.get(key, 0) for n in notes.get(name, [])]

    health = traced["health"] + plain["health"]
    fluxes = sum(h.get("fluxes", 0) for h in health)
    peaks = calls.get("transfer.peak_efficiency", 0)
    draws = sum(sum(work(n, "draws")) for n in ("protocol.fidelity_budget", "protocol.simulate_shot", "protocol.iq_discriminate"))
    out.update({
        "potential.scan_cells": ("count", mean(work("potential.find_extrema", "scan_cells"))),
        "potential.extrema_per_flux": ("count", sum(h.get("extrema", 0) for h in health) / fluxes if fluxes else 0.0),
        "potential.root_residual_max": ("rad", max((h.get("root_residual_max", 0.0) for h in health), default=0.0)),
        "transfer.mode2_calls_per_peak": ("count", calls.get("transfer.mode2_energy_numeric", 0) / peaks if peaks else 0.0),
        "transfer.quad_nodes": ("count", mean(work("transfer.mode2_energy_numeric", "quad_nodes"))),
        "transfer.peak_gap_max": ("1", max((h.get("peak_gap", 0.0) for h in health), default=0.0)),
        "protocol.uniform_draws_per_task": ("count", draws / n_tasks),
        "tomography.fit_param_err_max": ("1", max((h.get("fit_param_err", 0.0) for h in health), default=0.0)),
        "cli.artifact_bytes_per_task": ("B", mean(traced["artifact_bytes"])),
    })
    failures = traced["failures"] + plain["failures"]
    for layer in LAYERS[1:]:
        out[f"{layer}.errors"] = ("count", float(sum(1 for f in failures if f[0] == layer)))

    tps_plain = len(plain["task_s"]) / sum(hostspeed.normalized_task_s(plain))
    tps_traced = n_tasks / sum(hostspeed.normalized_task_s(traced))
    out["trace.overhead_pct"] = ("%", 100.0 * (tps_plain - tps_traced) / tps_plain)
    for name, (unit, factor) in PER_CALL.items():
        out[f"{name}.{unit}_per_call_p50"] = (unit, factor * statistics.median(scaled[name]) if name in scaled else 0.0)
    for metric, (name, key) in PER_UNIT.items():
        units = sum(work(name, key))
        busy = sum(t for t, n in zip(scaled.get(name, []), work(name, key)) if n)
        out[metric] = ("ns", 1e9 * busy / units if units else 0.0)
    out.update(probe)
    return out
