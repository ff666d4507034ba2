"""Numerical laboratory for threshold spectral structure and dispersive
decay of (possibly non-self-adjoint) Schrodinger operators H = -Delta + V.

Modules
-------
grids       the radial s-wave grid, grid functions, quadrature, operator norms
resolvent   sampled free-resolvent kernels R0(lambda^2) and difference kernels
birman      Birman-Schwinger operators I + V R0 and their inverses
potentials  builtin potential families (exact zero-energy eigenvalue, wells)
jordan      zero-energy filtration, self-dual Jordan bases, spectral projectors
lowenergy   regularized low-energy inverse S(lambda) and identity residuals
evolution   discretized propagator and dispersive-decay scans
ftdiag      lambda -> rho Fourier-transform L1 diagnostics
cli         scenario runner (speclab threshold|invert|evolve|ftscan|full|fixtures)
"""

__version__ = "0.1.0"
