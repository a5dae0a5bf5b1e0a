"""In-memory span recorder and per-module wrappers for the traced run.

A span is (name, layer, start, end, parent, task, note), where note is
a dict of work counts computed from the call's arguments (`NOTES`) or
None.
Spans nest on one thread, so a stack gives each new span its parent.  Nothing is written
while the run measures; `Tracer.dump` writes every span at the end.

`install` replaces each public function of the jpmsim layer modules
with a timing wrapper in every jpmsim namespace that binds it: `cli.py`
does `from .potential import well_report`, so `jpmsim.cli.well_report`
and `jpmsim.potential.well_report` are separate bindings and both must
point at the wrapper.  Calls made inside a module through its own
globals (`well_report` -> `find_extrema`) are caught the same way.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time

LAYERS = ("config", "cli", "potential", "transfer", "protocol", "tomography")
"""jpmsim modules traced as layers, in pipeline order."""

SCAN_STEP = math.pi / 100
"""Phase step of the bracketing scan in `potential.find_extrema`."""


def _scan_cells(flux, p, scan_step=SCAN_STEP, **_):
    beta = 2.0 * math.pi * p.loop_inductance * p.critical_current / p.flux_quantum
    return {"scan_cells": math.ceil((2.0 * beta + 2.0) / scan_step)}


def _quad_nodes(t, cfg, points_per_period=40, **_):
    period = 2.0 * math.pi / max(cfg.source.angular_frequency, cfg.target.angular_frequency)
    return {"quad_nodes": math.ceil(t / (period / (2 * points_per_period))) + 1}


def _draws_per_shot(iq_model):
    return 3 + 2 * (1 if iq_model is None else iq_model.n_samples)


def _budget_work(cfg, n_shots, iq_model=None):
    return {"shots": 2 * n_shots, "draws": 2 * n_shots * _draws_per_shot(iq_model)}


def _iq_draws(model, shots, rng=None):
    # Stored shot records are classified without drawing.
    first = shots[0] if len(shots) else None
    return {"draws": 0 if first is None or hasattr(first, "switch_bit") else 2 * model.n_samples * len(shots)}


NOTES = {
    "potential.find_extrema": _scan_cells,
    "transfer.mode2_energy_numeric": _quad_nodes,
    "protocol.fidelity_budget": _budget_work,
    "protocol.simulate_shot": lambda excited, cfg, rng, iq_model=None: {"shots": 1, "draws": _draws_per_shot(iq_model)},
    "protocol.iq_discriminate": _iq_draws,
}
"""Work counts computed from a call's arguments: scan cells, quadrature
nodes, shots and uniform draws."""


class Tracer:
    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent index, task id, note]
        self._stack = []
        self.task = None
        self.extra = {}

    def open(self, name, layer, start=None, note=None):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter() if start is None else start, None, parent, self.task, note])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index, end=None):
        self.spans[index][3] = time.perf_counter() if end is None else end
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while {popped} is open")

    def add(self, name, layer, start, end, parent, task, note=None):
        """Record a finished span measured elsewhere (another process)."""
        self.spans.append([name, layer, start, end, parent, task, note])
        return len(self.spans) - 1

    def wrap(self, func, layer):
        name = f"{layer}.{func.__name__}"
        note = NOTES.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self.open(name, layer, note=None if note is None else note(*args, **kwargs))
            try:
                return func(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def dump(self, path, extra=None):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent", "task", "note"], "spans": self.spans, **self.extra, **(extra or {})}, fh)
            fh.write("\n")


def _public_functions(module):
    for name, obj in vars(module).items():
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


def install(tracer):
    """Wrap every public function of every layer module; return an undo list."""
    import jpmsim  # noqa: F401  (loads the package and its layer modules)

    modules = {layer: importlib.import_module(f"jpmsim.{layer}") for layer in LAYERS}
    namespaces = [m for name, m in sys.modules.items() if name == "jpmsim" or name.startswith("jpmsim.")]
    undo = []
    for layer, module in modules.items():
        for _, func in _public_functions(module):
            wrapper = tracer.wrap(func, layer)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is func:
                        setattr(ns, attr, wrapper)
                        undo.append((ns, attr, func))
    # RunConfig.from_sources is the config layer's entry point and a classmethod.
    run_config = modules["config"].RunConfig
    original = vars(run_config)["from_sources"]
    run_config.from_sources = classmethod(tracer.wrap(original.__func__, "config"))
    undo.append((run_config, "from_sources", original))
    return undo


def uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def self_times(spans):
    """Self time of every span: its duration minus what its children cover."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own
