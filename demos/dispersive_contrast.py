"""Contrast free dispersive decay with the plateau caused by a zero mode.

Three sup-norm decay curves for the same initial bump:
  1. free evolution                       -> t^{-3/2}
  2. tuned potential, no projection       -> plateau (zero-energy eigenvalue)
  3. tuned potential, point spectrum off  -> t^{-3/2} restored

The fitted log-log exponents and the decay tables are printed; pass an
output directory to also get plot-ready CSV files.

Run:  python demos/dispersive_contrast.py [out_dir]
"""

import os
import sys

import numpy as np

from speclab import birman, evolution, grids, jordan, potentials
from speclab.grids import Mode


def main(out_dir=None):
    grid = grids.make_grid(Mode.RADIAL_SWAVE, 40.0, 800)
    tuned, _, _ = potentials.tune_coupling(
        potentials.exact_eigen(grid, s=2.0), grid
    )

    # the projected run needs a wider domain: the tuned potential enhances
    # modes near lambda ~ 4, and their boundary reflection reaches the
    # origin around t ~ L/8, which would cut the fit window short at L = 40
    wide = grids.make_grid(Mode.RADIAL_SWAVE, 80.0, 1600)
    tuned_wide, _, _ = potentials.tune_coupling(
        potentials.exact_eigen(wide, s=2.0), wide
    )
    basis = jordan.threshold(tuned_wide, wide).basis
    Ppp = jordan.build_Ppp(tuned_wide, wide, basis=basis)

    runs = [
        ("free", birman.sample_potential("free", grid, np.zeros_like), grid, None,
         2.5, np.linspace(2.0, 6.4, 10)),
        ("zero mode, unprojected", tuned, grid, None, 2.5,
         np.linspace(2.0, 6.4, 10)),
        ("zero mode, projected", tuned_wide, wide, Ppp, 4.0,
         np.linspace(2.5, 8.0, 10)),
    ]
    for name, V, g, P, k_max, times in runs:
        plan = evolution.make_plan(
            V, g, times, k_max=k_max, T_fit_min=times[0]
        )
        report = evolution.dispersive_scan(plan, grids.gaussian_bump(g), P)
        print(f"{name:28s} exponent {report['exponent']:+.4f} "
              f"+/- {report['stderr']:.4f}")
        for t, s in zip(report["t"], report["sup_norm"]):
            print(f"    t = {t:4.1f}   sup = {s:.5e}")
        if out_dir is not None:
            slug = name.replace(", ", "_").replace(" ", "_")
            evolution.write_decay_csv(
                report, os.path.join(out_dir, f"decay_{slug}.csv")
            )

    print("\nthe unprojected curve saturates at the zero-mode amplitude;")
    print("removing the point spectrum restores the -3/2 law.")


if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else None
    if out is not None:
        os.makedirs(out, exist_ok=True)
    main(out)
