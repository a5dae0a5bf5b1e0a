"""Seeded inputs for the four workloads.

Each workload is a cycle of tasks that the worker repeats; the seed
draws every input of the cycle.  Task sizes (flux points, shot counts)
are a fixed grid, so the amount of work does not change with the seed.
Parameters that set a task's cost (beta_L and flux window of a sweep,
the cavity pair of transfer-scan) sit on a fixed grid with a small seed-drawn jitter.
The others are drawn over their whole range: protocol probabilities,
tomography states and seeds, and the beta_L of the cheap
bifurcation tasks, on an antithetic lattice (with one seed-drawn
offset u, stratum i of n gets the points (i + u)/n and (i + 1 - u)/n).

jpmsim receives only `-s KEY=VALUE` overrides built here.  Each task
also carries `params`, the same inputs as numbers, for the checks.
"""

from __future__ import annotations

import math
import random

from checks import PHI0, TWO_PI, tangency_fluxes

WORKLOADS = ("cli-cold", "flux-sweep", "transfer-scan", "shot-campaign")

SUBCOMMANDS = (
    "potential-sweep", "bifurcation", "transfer-curves", "transfer-peak", "budget", "ramsey",
    "rabi", "stark", "depletion", "iq", "tomo-synth", "tomo-fit",
)

ARTIFACTS = {
    "potential-sweep": "potential_sweep.csv",
    "bifurcation": "bifurcation.csv",
    "transfer-curves": "transfer_curves.csv",
    "transfer-peak": "transfer_peak.json",
    "budget": "budget.json",
    "ramsey": "ramsey.csv",
    "rabi": "rabi.csv",
    "stark": "stark.csv",
    "depletion": "depletion.csv",
    "iq": "iq.json",
    "tomo-synth": "tomogram.csv",
    "tomo-fit": "tomo_fit.json",
}
"""Artifact file name each subcommand writes (CSV output format)."""

SOURCE_FREQUENCY = 5.02e9
SOURCE_DECAY_TIME = 260e-9
LOOP_INDUCTANCE = 1.1e-9

# Inputs of the default config that the cold workload's checks need.
DEFAULTS = {
    "potential-sweep": {"critical_current": 1e-6, "loop_inductance": 1.1e-9, "flux_points": 25},
    "bifurcation": {"critical_current": 1e-6, "loop_inductance": 1.1e-9},
    "transfer-curves": {"curves": 9, "time_points": 400},
    "transfer-peak": {"source_frequency": 5.02e9, "source_decay_time": 260e-9, "capture_frequency": 5.02e9, "capture_decay_time": 40e-9},
    "budget": {"n_shots": 100000, "relaxation": 0.05, "dark_prob": 0.02, "bright_detect_prob": 0.99},
    "ramsey": {"rows": 5 * 81},
    "rabi": {"rows": 5 * 81},
    "stark": {"rows": 10},
    "depletion": {"rows": 51},
    "iq": {"n_shots": 100000, "separation": 1.0, "sigma": 0.14144271570014144},
    "tomo-synth": {"theta_points": 8, "duration_points": 33},
    "tomo-fit": {"beta": 0.09, "r": 0.02, "t_pi": 50e-9},
}


NOMINAL_CYCLE_S = {"cli-cold": 7.0, "flux-sweep": 4.5, "transfer-scan": 7.0, "shot-campaign": 3.5}
"""Wall time of one cycle, tasks and checks, at the commit that defined the benchmark."""


def cycles(workload, seconds):
    """Whole cycles that fill `seconds` at the nominal cycle time.

    The count depends on --seconds only, never on measured speed, so
    every run of one setting times the same tasks.
    """
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


def lattice(rng, strata):
    """2 * strata antithetic points in (0, 1) sharing one drawn offset."""
    u = rng.random()
    return [x for i in range(strata) for x in ((i + u) / strata, (i + 1 - u) / strata)]


def log_span(x, lo, hi):
    return lo * (hi / lo) ** x


def _num(value, unit="", exponent=0):
    """Format a value for an override; return (text with unit, value in SI units).

    `exponent` is the unit's power of ten ("ns" is -9).  Reading the
    decimal text with that exponent gives the float jpmsim parses.
    """
    text = "%.10g" % value
    return text + unit, float(f"{text}e{exponent}")


def task(kind, layer, overrides=(), **params):
    return {"kind": kind, "layer": layer, "overrides": list(overrides), "params": params}


def cli_cold(rng):
    tasks = []
    for name in SUBCOMMANDS:
        layer = {"potential-sweep": "potential", "bifurcation": "potential", "transfer-curves": "transfer",
                 "transfer-peak": "transfer", "tomo-synth": "tomography", "tomo-fit": "tomography"}.get(name, "protocol")
        tasks.append(task(name, layer, [f"seed={rng.randrange(1, 2**31)}"], **DEFAULTS[name]))
    return tasks


def _device(beta, capacitance_pf):
    current_text, current = _num(beta * PHI0 / (TWO_PI * LOOP_INDUCTANCE) * 1e6, "uA", -6)
    cap_text, _ = _num(capacitance_pf, "pF")
    overrides = [f"device.critical_current={current_text}", f"device.loop_inductance={LOOP_INDUCTANCE * 1e9:g}nH",
                 f"device.shunt_capacitance={cap_text}"]
    return overrides, {"critical_current": current, "loop_inductance": LOOP_INDUCTANCE}


def size_grid(lo, hi, count):
    """Fixed log-spaced task sizes: the seed draws the physics, not the amount of work."""
    return [int(round(log_span(i / (count - 1), lo, hi))) for i in range(count)]


def grid(count):
    """Midpoints of `count` equal strata of (0, 1)."""
    return [(i + 0.5) / count for i in range(count)]


SWEEPS = 16
"""potential-sweep tasks in one flux-sweep cycle."""


def flux_sweep(rng):
    # beta_L sets a sweep's cost (scan cells, wells, rows), so it sits on a
    # fixed grid with a small seed-drawn jitter, like the cavity pairs.
    betas = [log_span(x, 1.5, 13.0) * (1.0 + rng.uniform(-0.03, 0.03)) for x in grid(SWEEPS)]
    # So do the flux windows, whose position and width set how many of
    # their fluxes take the scalar near-tangency path.
    offsets = [x - 0.5 + rng.uniform(-0.02, 0.02) for x in grid(SWEEPS // 2)]
    widths = [(0.05 + 0.25 * x) * (1.0 + rng.uniform(-0.03, 0.03)) for x in grid(SWEEPS // 2)]
    # Many sizes close together, each paired with a different beta_L, so
    # the median and tail fall where task times are dense and a slow run
    # of one task moves them little.
    sizes = size_grid(100, 1200, SWEEPS)
    points = [sizes[5 * j % SWEEPS] for j in range(SWEEPS)]
    sweeps = []
    for i, (beta, n) in enumerate(zip(betas, points)):
        overrides, params = _device(beta, 1.0 + 2.0 * rng.random())
        if i % 2 == 0:
            start = offsets[i // 2]
            stop = start + 1.0
        else:
            # A window straddling one tangency flux, where wells appear
            # or vanish and the scalar near-tangency path runs.
            beta_read = TWO_PI * params["loop_inductance"] * params["critical_current"] / PHI0
            fluxes = tangency_fluxes(beta_read)
            tangency = fluxes[(i // 2) % len(fluxes)]
            width = widths[i // 2]
            start = tangency - (0.5 + offsets[i // 2] / 4) * width
            stop = start + width
        start_text, _ = _num(start, "phi0")
        stop_text, _ = _num(stop, "phi0")
        overrides += [f"potential.flux_start={start_text}", f"potential.flux_stop={stop_text}", f"potential.flux_points={n}"]
        sweeps.append(task("potential-sweep", "potential", overrides, flux_points=n, **params))
    bifurcations = []
    for x in lattice(rng, 2):
        overrides, params = _device(log_span(x, 1.5, 13.0), 2.0)
        bifurcations.append(task("bifurcation", "potential", overrides, **params))
    # Smallest sweep first (see make), then four sweeps and one bifurcation, repeated.
    sweeps.sort(key=lambda t: t["params"]["flux_points"])
    return [t for k in range(4) for t in (*sweeps[4 * k:4 * k + 4], bifurcations[k])]


def _cavity_pair(capture_decay, detuning_ratio):
    decay_text, decay = _num(capture_decay * 1e9, "ns", -9)
    kappa_1 = 1.0 / SOURCE_DECAY_TIME
    freq_text, freq = _num(SOURCE_FREQUENCY + detuning_ratio * kappa_1 / TWO_PI, "Hz")
    overrides = [f"capture.decay_time={decay_text}", f"capture.frequency={freq_text}"]
    return task("transfer-peak", "transfer", overrides, source_frequency=SOURCE_FREQUENCY,
                source_decay_time=SOURCE_DECAY_TIME, capture_frequency=freq, capture_decay_time=decay)


def transfer_scan(rng):
    """Twelve cavity pairs on a fixed grid, each moved by a small seed-drawn jitter.

    The search cost follows omega * t_opt, which the pair sets; the grid
    keeps that cost distribution the same for every seed while the
    jitter makes every seed's pairs its own.
    """
    def decay(x):
        return log_span(x, 20e-9, 260e-9) * (1.0 + rng.uniform(-0.03, 0.03))

    def detuning(x):
        return 2.0 * x + rng.uniform(-0.03, 0.03)

    kappa = [_cavity_pair(decay(x), 0.0) for x in grid(4)]
    detuned = [_cavity_pair(SOURCE_DECAY_TIME, detuning(x)) for x in grid(4)]
    both = [_cavity_pair(decay(x), detuning(y)) for x, y in zip(grid(4), reversed(grid(4)))]
    return [t for trio in zip(kappa, detuned, both) for t in trio]


def _protocol(rng):
    dark_text, dark = _num(rng.uniform(0.01, 0.04))
    bright_text, bright = _num(rng.uniform(0.95, 0.995))
    relax_text, relax = _num(rng.uniform(0.03, 0.08))
    sigma_text, sigma = _num(rng.uniform(0.2, 0.4))
    overrides = [f"protocol.dark_prob={dark_text}", f"protocol.bright_detect_prob={bright_text}",
                 f"protocol.relaxation_override={relax_text}", f"iq.sigma={sigma_text}", f"seed={rng.randrange(1, 2**31)}"]
    params = {"dark_prob": dark, "bright_detect_prob": bright, "relaxation": relax, "sigma": sigma, "separation": 1.0}
    return overrides, params


def shot_campaign(rng):
    budgets, iqs, tomos, shots = [], [], [], []
    for n in size_grid(2_000_000, 2_500_000, 4):
        overrides, params = _protocol(rng)
        budgets.append(task("budget", "protocol", overrides + [f"budget.n_shots={n}"], n_shots=n, **params))
    for n in size_grid(800_000, 1_200_000, 4):
        overrides, params = _protocol(rng)
        iqs.append(task("iq", "protocol", overrides + [f"iq.n_shots={n}"], n_shots=n, **params))
    for n in (1000, 4000):
        beta = rng.uniform(0.05, 0.4)
        r = 0.5 * math.sqrt(beta * (1.0 - beta)) * rng.random()
        beta_text, beta = _num(beta)
        r_text, r = _num(r)
        phi_text, _ = _num(rng.uniform(-math.pi, math.pi))
        t_pi_text, t_pi = _num(rng.uniform(40.0, 80.0), "ns", -9)
        overrides = [f"tomo.beta={beta_text}", f"tomo.r={r_text}", f"tomo.phi={phi_text}", f"tomo.t_pi={t_pi_text}",
                     f"tomo.n_shots={n}", f"seed={rng.randrange(1, 2**31)}"]
        tomos.append(task("tomo-roundtrip", "tomography", overrides, beta=beta, r=r, t_pi=t_pi, n_shots=n,
                          theta_points=8, duration_points=33))
    for n in (1000, 1500):
        _, params = _protocol(rng)
        shots.append(task("shots", "protocol", (), n_pairs=n, seed=rng.randrange(1, 2**31), **params))
    return [tomos[0], budgets[0], iqs[0], shots[0], budgets[1], iqs[1],
            tomos[1], budgets[2], iqs[2], shots[1], budgets[3], iqs[3]]


def make(workload, seed):
    """The task cycle of one workload for one seed.

    The first task is the warm-up and determinism task, one of the
    cheapest of the cycle so that set-up stays dominated by start-up
    and imports.
    """
    rng = random.Random(f"{workload}:{seed}")
    return {"cli-cold": cli_cold, "flux-sweep": flux_sweep, "transfer-scan": transfer_scan,
            "shot-campaign": shot_campaign}[workload](rng)


def sizes(tasks):
    """Input sizes of one cycle, for the run record."""
    out = {"tasks_per_cycle": len(tasks)}
    for t in tasks:
        p = t["params"]
        for key in ("flux_points", "n_shots", "n_pairs"):
            if key in p:
                out.setdefault(f"{t['kind']}.{key}", []).append(p[key])
        if "critical_current" in p:
            beta = TWO_PI * p["loop_inductance"] * p["critical_current"] / PHI0
            out.setdefault(f"{t['kind']}.beta_L", []).append(round(beta, 3))
        if "capture_decay_time" in p:
            out.setdefault("transfer-peak.capture_decay_ns", []).append(round(p["capture_decay_time"] * 1e9, 2))
            detuning = TWO_PI * (p["capture_frequency"] - p["source_frequency"]) * p["source_decay_time"]
            out.setdefault("transfer-peak.detuning_over_kappa1", []).append(round(detuning, 3))
    return out
