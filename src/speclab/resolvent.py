"""Free-resolvent kernels R0(lambda^2 +/- i0).

The 3-D kernel is e^{+/- i lambda |x-y|} / (4 pi |x-y|).  On the radial
s-wave grid the operators act on reduced waves u = r psi with the half-line
kernel

    G_lambda(r, r') = sin(lambda r_<) e^{+/- i lambda r_>} / lambda

(r_< for lambda = 0), which is the Green's function of -d^2/dr^2 with a
Dirichlet condition at r = 0.  At lambda = 0 the sampled kernel matrix is the
exact two-sided inverse of the discrete radial Laplacian assembled in
:mod:`speclab.evolution`, which keeps the threshold identities sharp.

The kernel is semiseparable, G(r, r') = a(r_<) b(r_>) with the generators
a = sin(lambda r) / lambda and b = e^{+/- i lambda r} (`kernel_generators`),
so its sampled application matrix has a tridiagonal inverse T_lambda for
every lambda and both branches (Meurant, SIAM J. Matrix Anal. Appl. 13,
1992); `birman.tridiagonal_bs` gives its bands in closed form, and at
lambda = 0 it is the discrete H0 above.  It breaks down where lambda h is a
nonzero multiple of pi (h the spacing): on the midpoint nodes the sampled
kernel then has rank one (odd multiples) or vanishes (even multiples), and
T_lambda does not exist.

A spectral point is passed, here as throughout the package, as the plain
arguments lam, sign=Branch.PLUS: the limit R0(lambda^2 + i0 sign).

The dense kernel matrix (`build_R0`) serves only `birman.bs_solve` where
lambda h is near a nonzero multiple of pi; elsewhere R0(lambda^2) and its
differences are tridiagonal solves with T_lambda.
"""

from __future__ import annotations

import enum

import numpy as np


class Branch(enum.IntEnum):
    PLUS = 1
    MINUS = -1


def kernel_generators(r, lam, sign=Branch.PLUS):
    """Generators (a, b) of the radial kernel: G(r, r') = a(r_<) b(r_>).

    a = sin(lambda r) / lambda and b = e^{i s lambda r}, or a = r and b = 1
    at lambda = 0.  The real quotient sin(lambda r) / lambda is formed
    before the phase multiplies it: dividing the complex product by a
    subnormal lambda overflows to inf + nan j.
    """
    r = np.asarray(r, dtype=float)
    if lam == 0:
        return r, np.ones_like(r)
    return np.sin(lam * r) / lam, np.exp(1j * Branch(sign) * lam * r)


def build_R0(grid, lam, sign=Branch.PLUS):
    """Assemble the free resolvent: the kernel samples a(r_<) b(r_>) of
    `kernel_generators` (the nodes ascend, so r_< is the node of the lower
    index) times the quadrature weights."""
    a, b = kernel_generators(grid.nodes, lam, sign)
    i = np.arange(grid.size)
    K = a[np.minimum.outer(i, i)] * b[np.maximum.outer(i, i)]
    return K.astype(complex, copy=False) * grid.weights[None, :]
