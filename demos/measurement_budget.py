"""Monte Carlo fidelity budget of the counter-based measurement cycle.

Simulates prepared-excited and prepared-ground shot ensembles, splits
the raw infidelity into relaxation, dark-count, and residual channels,
and prints the analytic cross-checks alongside.  Run with no arguments.
"""

from __future__ import annotations

import numpy as np

from jpmsim.protocol import (
    IqModel,
    ProtocolConfig,
    depletion_recovery,
    fidelity_budget,
    iq_fidelity,
    relaxation_error,
    separation_fidelity,
)


def main() -> None:
    cfg = ProtocolConfig()
    n_shots = 100_000
    budget = fidelity_budget(cfg, n_shots)
    print(f"{n_shots} shots per prepared state:")
    print(f"  raw fidelity F_raw    = {budget['F_raw']:.4f}")
    print(f"  relaxation error      = {budget['epsilon_relax']:.4f}")
    print(f"  dark-count error      = {budget['epsilon_dark']:.4f}")
    print(f"  residual error        = {budget['epsilon_other']:.4f}")
    closure = budget["F_raw"] + budget["epsilon_relax"] + budget["epsilon_dark"] + budget["epsilon_other"]
    print(f"  partition closure     = {closure:.12f}")
    print()

    # Analytic channel values the Monte Carlo should straddle.
    print("analytic cross-checks:")
    print(f"  relaxation over the preparation pulse: {relaxation_error(cfg.t_prep, cfg.t1):.4f}")
    model = IqModel()
    d_over_sigma = model.separation / model.sigma
    print(f"  IQ separation fidelity at d/sigma = {d_over_sigma:.2f}: {separation_fidelity(model):.6f}")
    empirical = iq_fidelity(model, 50_000, np.random.default_rng(cfg.rng_seed))
    print(f"  empirical single-shot fidelity:          {empirical['single_shot_fidelity']:.6f}")
    print()

    # Post-measurement reset: longer depletion intervals drain the
    # leftover cavity photons and restore the dephasing contrast.
    print("depletion recovery (100 leftover photons):")
    print("  t_dep (ns)   residual photons   fringe contrast")
    for t_dep in (0.0, 10e-9, 20e-9, 40e-9, 80e-9):
        out = depletion_recovery(t_dep, cfg)
        print(
            f"  {t_dep * 1e9:10.0f}   {out['residual_photons']:16.3f}   "
            f"{out['ramsey_contrast']:15.4f}"
        )


if __name__ == "__main__":
    main()
