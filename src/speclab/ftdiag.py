"""Fourier-transform L^1 diagnostics for the resolvent family T(lambda).

The dispersive argument rests on lambda -> rho transforms: the windowed
transforms of T^+(lambda) = (I + V R0^+(lambda^2))^{-1} should have finite
double-L^1 norm (high/mid/low windows with a smooth partition of unity), and
the difference-kernel transform obeys the closed-form bound built from the
cutoff's transform.  The routines here sample those transforms on
symmetric lambda grids (power-of-two length, offset half a step so
lambda = 0 is never hit) and report refinement-friendly totals.

Transform convention: K-hat(rho) = delta_lambda * sum_j e^{-i rho lambda_j}
K(lambda_j), the plain Riemann discretization of int e^{-i rho lambda} K
d(lambda) (no 2 pi prefactor), matching the closed forms used by the
kernel-bound checks below.  `_transform` is the one routine that takes it:
it overwrites the samples with their transform, in FFT order, so a scan
holds one n x M array, and each caller puts in increasing rho only what it
reads, after reducing over the nodes where it can.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass

import numpy as np

from . import birman
from .birman import smooth_cutoff
from .grids import lp_norm
from .resolvent import Branch

#: Reported verdict when a LOW-window total exceeds the divergence cap.
DIVERGENT = "DIVERGENT"
OK = "OK"

#: Default divergence cap multiplier (times ||f||_1).
DEFAULT_CAP = 1e3


@dataclass
class TransformScan:
    """Windowed lambda -> rho transform of T(lambda) f."""

    window: str
    lambdas: np.ndarray
    rho: np.ndarray
    profile: np.ndarray  # per-rho L^1 norm over the spatial nodes
    total: float
    n: int
    delta_lambda: float
    verdict: str

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rho", "l1_profile"])
            for rho, prof in zip(self.rho, self.profile):
                writer.writerow([f"{rho:.12g}", f"{prof:.12g}"])


def lambda_grid(n, lam_max):
    """Symmetric lambda grid of power-of-two length avoiding lambda = 0.

    Uniform spacing, offset by half a step about the origin so no sample
    collides with the threshold singularity.
    """
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"n = {n} must be a power of two")
    delta = 2.0 * lam_max / n
    return (np.arange(n) - (n - 1) / 2.0) * delta, delta


def window_cutoffs(lams, lambda1, r):
    """Partition of unity {HIGH, MID, LOW} on the lambda grid from one chi.

    LOW = chi(lam/r), MID = chi(lam/lambda1) - chi(lam/r), HIGH =
    1 - chi(lam/lambda1); the three sum to 1 identically.
    """
    if not 0 < r < lambda1:
        raise ValueError("need 0 < r < lambda1 for nested windows")
    low = smooth_cutoff(lams / r)
    outer = smooth_cutoff(lams / lambda1)
    return {"HIGH": 1.0 - outer, "MID": outer - low, "LOW": low}


def _transform(samples, lams, delta):
    """Transform samples over the lambda axis (axis 0) in place.

    samples, a complex (n,) or (n, M) array, becomes its transform in FFT
    order: the FFT is written into its own buffer and the grid-origin phase
    multiplied in place, so no second copy of the samples is made.  Returns
    rho in increasing order and the permutation `order` of axis 0 that puts
    the rows in that order; each caller reorders only what it reads.
    """
    n = lams.shape[0]
    np.fft.fft(samples, axis=0, out=samples)
    rho = 2.0 * np.pi * np.fft.fftfreq(n, d=delta)
    # compensate the grid origin offset lambda_0 = lams[0]
    phase = delta * np.exp(-1j * rho * lams[0])
    # phase first: numpy's complex product is not bitwise symmetric in its
    # operands, and phase * spectrum keeps the bits of the copying product
    np.multiply(phase[:, None] if samples.ndim == 2 else phase, samples, out=samples)
    order = np.argsort(rho)
    return rho[order], order


def chi_hat_l1(r=1.0, n=4096, lam_max=64.0):
    """L^1 norm of the transform of chi(lambda / r) (same discrete convention)."""
    lams, delta = lambda_grid(n, lam_max)
    ch = smooth_cutoff(lams / r).astype(complex)
    rho, order = _transform(ch, lams, delta)
    drho = rho[1] - rho[0]
    return float(np.sum(np.abs(ch[order])) * drho)


def t_hat_l1_scan(V, grid, f, window, params):
    """Double-L^1 norm of the windowed transform of T^+(lambda) f.

    Samples T^+(lambda) f = (I + V R0^+(lambda^2))^{-1} f on the symmetric
    lambda grid (negative lambda rides the same kernel formula, which there
    realizes the conjugate branch), multiplies by the window cutoff,
    transforms per spatial node and integrates |.| in rho and x.  Each
    sample is one `birman.bs_solve`, a tridiagonal solve, O(M) per lambda,
    with its NearSingularError refusal; samples outside the window's
    support are skipped.  Real samples and a real f give
    T(-lambda) f = conj T(lambda) f bit for bit, so only the first member
    of each pair +-lambda is solved.  Before the first solve, every lambda
    to be solved is checked with `birman.banded_energy`: ValueError names
    the first whose lambda h is near a nonzero multiple of pi, where
    T_lambda does not exist.  The samples are one n x M complex
    array, transformed in place; the per-rho profile is reduced over the
    nodes in FFT order and then sorted in rho, and the total sums the
    sorted profile.  A LOW window total beyond
    cap * ||f||_1 is reported as DIVERGENT -- for generic f against a
    nontrivial threshold space that is the expected verdict, not a
    failure.  params holds n, lam_max, lambda1 and r, the keys of a
    scenario's ftscan section, and may hold cap (DEFAULT_CAP if absent).
    """
    n, lam_max, lambda1, r = (params[key] for key in ("n", "lam_max", "lambda1", "r"))
    cap = params.get("cap", DEFAULT_CAP)
    lams, delta = lambda_grid(n, lam_max)
    cut = window_cutoffs(lams, lambda1, r)[window.upper()]
    mirror = not np.iscomplexobj(birman._samples(V)) and not np.any(f.values.imag)
    solved = [i for i in range(n) if cut[i] != 0.0 and not (mirror and i >= n // 2)]
    for i in solved:
        if not birman.banded_energy(grid, lams[i]):
            raise ValueError(
                f"lambda = {lams[i]:.6g} on spacing h = {grid.spacing:.6g} puts "
                "lambda h near a nonzero multiple of pi"
            )
    samples = np.zeros((n, grid.size), complex)
    for i in solved:
        lam = lams[i]
        _, tinv_f, _ = birman.bs_solve(
            V, grid, lam, f.values, context=f"t_hat scan at lambda={lam:.6g}"
        )
        samples[i] = cut[i] * tinv_f
        if mirror:
            samples[n - 1 - i] = np.conj(samples[i])
    rho, order = _transform(samples, lams, delta)
    drho = rho[1] - rho[0]
    profile = (np.abs(samples) @ grid.weights)[order]
    total = float(np.sum(profile) * drho)
    verdict = DIVERGENT if total > cap * lp_norm(f, 1) else OK
    return TransformScan(window.upper(), lams, rho, profile, total, n, delta, verdict)


# ---------------------------------------------------------------------------
# semi-analytic bound on the transformed V*B kernel


@functools.cache
def _chi_hat():
    """The transform of the plateau cutoff, tabulated once on 8192 lambda
    samples over [-64, 64] and linearly interpolated in rho."""
    lams, delta = lambda_grid(8192, 64.0)
    ch = smooth_cutoff(lams).astype(complex)
    table, order = _transform(ch, lams, delta)
    re, im = ch.real[order], ch.imag[order]

    def chi_hat(rho):
        return np.interp(rho, table, re) + 1j * np.interp(rho, table, im)

    return chi_hat


def vb_hat_bound_check(V, grid, r, halvings=4):
    """Measured constant of the transformed V*B kernel bound and its r-scaling.

    The kernel transform has the closed form |V(x)| / (4 pi d) * |r
    chi-hat(r (rho - d)) - r chi-hat(r rho)| in modulus, with d = |x - y|;
    the phase of the subtraction point lambda0 drops out of the modulus, so
    the bound does not depend on it.  The spatial integral uses the grid's
    volume weights with y at the origin; the rho integral is direct
    quadrature, on 2048 points, of the tabulated cutoff transform.
    Reports the measured value per r-halving and the fitted r-exponent, to
    compare against epsilon = min(3/p - 2, 2 - 3/q).
    """
    chihat = _chi_hat()
    vals = np.abs(V.values.values)
    d = grid.nodes
    radii = [r / 2**m for m in range(halvings)]
    measured = []
    for rm in radii:
        # rho support of both bumps: |rho| <= d_max + 4 / rm
        rho_max = float(d.max()) + 4.0 / rm + 4.0
        rho = np.linspace(-rho_max, rho_max, 2048)
        drho = rho[1] - rho[0]
        diff = np.abs(
            rm * chihat(rm * (rho[None, :] - d[:, None]))
            - rm * chihat(rm * rho[None, :])
        )
        per_x = np.sum(diff, axis=1) * drho  # int drho per node
        total = float(
            np.sum(grid.volume_weights * vals / (4.0 * np.pi * d) * per_x)
        )
        measured.append(total)
    if len(radii) > 1:
        fit = float(np.polyfit(np.log(radii), np.log(measured), 1)[0])
    else:
        fit = float("nan")
    return {
        "values": measured,
        "fitted_exponent": fit,
        "epsilon": V.epsilon,
    }


# ---------------------------------------------------------------------------
# Section 7 K2 bounds


def k2_bound_check(grid, basis, r):
    """sup_x L^1_rho norms of the K2 transforms (R0 and B0 variants).

    K2 is the transform of chi(2 lambda / r) R0^-(lambda^2) psi-bar_{k,k},
    sampled at 1024 lambdas on [-max(4 r, 2), max(4 r, 2)]; the R0 variant
    should be r-uniform (O(1)) and the B0 variant O(r).  Each sample is one
    tridiagonal solve, O(M) (ValueError where lambda h is near a nonzero
    multiple of pi).  Returns per-chain dicts with both values plus the
    quadrature bound ||chi-hat||_1 * sup_x sum_y w_y |psi(y)| min(x, y),
    the sum being R0(0)|psi|, one more solve.
    """
    if not basis.chains:
        raise ValueError("empty threshold basis")
    n, lam_max = 1024, max(4.0 * r, 2.0)
    lams, delta = lambda_grid(n, lam_max)
    cut = smooth_cutoff(2.0 * lams / r)
    chi_l1 = chi_hat_l1(r=r / 2.0, n=n, lam_max=lam_max)
    R00 = birman._tridiagonal_solver(*birman.tridiagonal_bs(grid, 0.0))
    out = []
    for C in basis.chains:
        psibar = np.conj(C[:, -1])
        R00_psibar = R00(psibar)
        samples_r = np.zeros((n, grid.size), complex)
        samples_b = np.zeros((n, grid.size), complex)
        for i, lam in enumerate(lams):
            if cut[i] == 0.0:
                continue
            bands = birman.tridiagonal_bs(grid, lam, Branch.MINUS)
            R_psibar = birman._tridiagonal_solver(*bands)(psibar)
            samples_r[i] = cut[i] * R_psibar
            samples_b[i] = cut[i] * (R_psibar - R00_psibar)
        rho, order = _transform(samples_r, lams, delta)
        _transform(samples_b, lams, delta)
        drho = rho[1] - rho[0]
        val_r = float((np.sum(np.abs(samples_r)[order], axis=0) * drho).max())
        val_b = float((np.sum(np.abs(samples_b)[order], axis=0) * drho).max())
        quad = float(R00(np.abs(psibar)).max())
        out.append(
            {
                "r0_variant": val_r,
                "b0_variant": val_b,
                "r0_quadrature_bound": chi_l1 * quad,
            }
        )
    return out
