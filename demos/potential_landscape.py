"""Walk the flux-biased potential landscape of the detector loop.

Sweeps the external flux across the principal range, reporting how many
wells exist, where the well count bifurcates, and how the shallow-well
plasma frequency tunes with bias.  Run with no arguments; prints tables
to stdout.
"""

from __future__ import annotations

import math

import numpy as np

from jpmsim.config import RunConfig
from jpmsim.potential import PHI0, beta_L, critical_flux, well_report_sweep


def shallow_wells(fluxes, p):
    """For each flux, (well count, depth, plasma frequency, level count) of its shallowest well."""
    wells = well_report_sweep(fluxes, p)
    shallow = {}
    for i, count, height, omega, levels in zip(
        wells.flux_index.tolist(),
        wells.well_count.tolist(),
        wells.barrier_height.tolist(),
        wells.plasma_frequency.tolist(),
        wells.level_count.tolist(),
    ):
        if i not in shallow or height < shallow[i][1]:
            shallow[i] = (count, height, omega, levels)
    return [shallow[i] for i in range(len(fluxes))]


def main() -> None:
    p = RunConfig.from_sources().jpm_params()
    beta = beta_L(p)
    crit = critical_flux(p)
    print(f"screening parameter beta_L = {beta:.4f}")
    print(
        "bistable window: "
        + " .. ".join(f"{f / PHI0:.6f} Phi0" for f in crit)
        + " (well count changes by one at each edge)"
    )
    print()

    print("flux (Phi0)   wells   shallow dU (K)   shallow wp/2pi (GHz)   levels")
    k_b = 1.380649e-23
    fracs = np.linspace(0.0, 1.0, 21)
    for frac, (n_min, height, omega, levels) in zip(fracs, shallow_wells(fracs * PHI0, p)):
        depth = "unbounded" if math.isinf(height) else f"{height / k_b:9.3f}"
        levels = "-" if math.isinf(levels) else f"{levels:6.1f}"
        print(
            f"  {frac:8.3f}   {n_min:5d}   {depth:>14s}   "
            f"{omega / (2e9 * math.pi):20.4f}   {levels:>6s}"
        )

    # Near the upper tangency the shallow well flattens out and its
    # plasma frequency collapses; this is the operating knob for photon
    # detection.
    print()
    print("approach to the upper tangency:")
    offsets = (1e-2, 1e-3, 1e-4, 1e-5)
    fluxes = np.array([crit[1] - offset * PHI0 for offset in offsets])
    for offset, (_, _, omega, levels) in zip(offsets, shallow_wells(fluxes, p)):
        print(
            f"  crit - {offset:7.0e} Phi0: wp/2pi = "
            f"{omega / (2e9 * math.pi):7.4f} GHz, "
            f"levels = {levels:6.2f}"
        )


if __name__ == "__main__":
    main()
