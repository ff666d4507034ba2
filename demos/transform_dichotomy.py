"""Low-window transform scan: stabilization vs divergence near threshold.

For data orthogonal to the threshold space, the L^1 norm of the transformed
low-energy Birman-Schwinger family stabilizes as the spectral grid is
refined.  For generic data the zero-energy chain contributes a lambda^{-2K}
singularity and the scan totals grow without bound (flagged DIVERGENT once
they pass the cap).

Run:  python demos/transform_dichotomy.py
"""

import numpy as np

from speclab import ftdiag, grids, jordan, potentials
from speclab.grids import GridFunction, Mode


def main():
    grid = grids.make_grid(Mode.RADIAL_SWAVE, 6.0, 300)
    tuned, _, _ = potentials.tune_coupling(
        potentials.exact_eigen(grid, s=4.0), grid
    )
    basis = jordan.threshold(tuned, grid).basis
    P0 = jordan.build_P0(basis, grid)

    rng = np.random.default_rng(3)
    f = GridFunction(grid, rng.standard_normal(grid.size).astype(complex))
    f_perp = GridFunction(grid, grids.apply_complement(P0, f.values))

    print("low-window totals under spectral-grid doubling")
    print(f"{'n':>6s} {'orthogonal data':>18s} {'generic data':>18s}")
    for n in (128, 256, 512):
        params = {"n": n, "lam_max": 8.0, "lambda1": 1.0, "r": 0.25}
        sp = ftdiag.t_hat_l1_scan(tuned, grid, f_perp, "LOW", params)
        sg = ftdiag.t_hat_l1_scan(tuned, grid, f, "LOW", params)
        print(f"{n:6d} {sp.total:14.3f} ({sp.verdict:>2s}) "
              f"{sg.total:14.3f} ({sg.verdict})")

    print("\nK2 kernel bounds on a tuned single-chain scenario:")
    g6 = grids.make_grid(Mode.RADIAL_SWAVE, 6.0, 300)
    tuned2, _, _ = potentials.tune_coupling(
        potentials.exact_eigen(g6, s=2.0), g6
    )
    basis2 = jordan.threshold(tuned2, g6).basis
    print(f"{'r':>10s} {'R0 variant':>12s} {'quad bound':>12s} {'B0 variant':>12s}")
    for r in (0.25, 0.125, 0.0625):
        row = ftdiag.k2_bound_check(g6, basis2, r)[0]
        print(f"{r:10.4f} {row['r0_variant']:12.4f} "
              f"{row['r0_quadrature_bound']:12.4f} {row['b0_variant']:12.4f}")
    print("\nthe R0 variant stays O(1); the B0 variant shrinks linearly in r.")


if __name__ == "__main__":
    main()
