"""Synthesize a tomogram from a known state and fit it back.

Builds the post-measurement density matrix, generates occupation data
over a grid of pre-rotation axes and pulse durations with binomial shot
noise, then recovers the state parameters by least squares and compares
them with the truth.  Run with no arguments.
"""

from __future__ import annotations

import math

import numpy as np

from jpmsim.tomography import (
    DensityMatrix2,
    fit_tomogram,
    overlap_fidelity,
    synthesize_tomogram,
)


def report(name: str, rho: DensityMatrix2, t_pi: float, n_shots: int, seed: int) -> None:
    grid = synthesize_tomogram(
        rho,
        t_pi,
        np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False),
        np.linspace(0.0, 2.2 * t_pi, 34),
        n_shots=n_shots,
        rng=np.random.default_rng(seed),
    )
    fit = fit_tomogram(grid)
    print(f"{name} ({n_shots} shots per grid cell):")
    print("                excited pop   coherence |r|   phase     t_pi (ns)")
    print(
        f"  true        {rho.excited_population:13.4f}   {rho.coherence_magnitude:13.4f}   "
        f"{rho.coherence_phase:7.3f}   {t_pi * 1e9:9.2f}"
    )
    print(
        f"  fitted      {fit.rho.excited_population:13.4f}   {fit.rho.coherence_magnitude:13.4f}   "
        f"{fit.rho.coherence_phase:7.3f}   {fit.pi_duration * 1e9:9.2f}"
    )
    print(f"  residual rms = {fit.residual_rms:.5f}")
    f_ground = overlap_fidelity(fit.rho, (1.0, 0.0))
    f_excited = overlap_fidelity(fit.rho, (0.0, 1.0))
    print(f"  overlap with |0>: {f_ground:.4f}   overlap with |1>: {f_excited:.4f}")
    print()


def main() -> None:
    t_pi = 50e-9
    # A nearly-ground prepared state and the same state after it has
    # partially decayed toward the excited-well readout record.
    report("prepared state", DensityMatrix2(0.09, 0.02), t_pi, 10_000, seed=11)
    report("decayed state", DensityMatrix2(0.69, 0.01), t_pi, 10_000, seed=12)
    report(
        "coherent superposition",
        DensityMatrix2(0.50, 0.45, -math.pi / 3.0),
        t_pi,
        10_000,
        seed=13,
    )


if __name__ == "__main__":
    main()
