"""Discretization substrate: grids, sampled functions, quadrature, operator norms.

The one grid is the radial s-wave line (Mode.RADIAL_SWAVE): midpoint
nodes r_i = (i + 1/2) h on (0, L).  Grid functions store the *reduced* wave
u(r) = r * psi(r), so the working quadrature weight is the flat spacing h.
Three-dimensional norms of the underlying radial profile psi = u / r use the
volume weights 4 pi r^2 h instead; both weight sets live on the Grid and
callers pick per context.

Operators are plain ndarrays A acting by f -> A @ f.values: real (float64)
for a real potential, complex otherwise.  An integral kernel sampled as
K(r_i, r_j) becomes the application matrix K * weights[None, :] once, at
assembly; the working weights are uniform, so the bilinear transpose of an
operator is its plain transpose.  A rank-n projection is the pair (U, W)
of M x n factors of its application matrix P = U W^T, never an M x M
array; `apply_complement` applies I - P.
All norms, pairings and induced operator norms use the working weights,
with fixed-order summation so that results are reproducible bit for bit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class GridError(ValueError):
    """Invalid grid construction parameters."""


class GridMismatchError(ValueError):
    """Operands live on different grids."""


class Mode(enum.Enum):
    RADIAL_SWAVE = "radial_swave"


@dataclass(frozen=True)
class Grid:
    """Discretization descriptor.

    nodes: radii (M,).
    weights: working quadrature weights (the flat spacing h).
    volume_weights: 3-D volume weights 4 pi r^2 h.
    """

    mode: Mode
    nodes: np.ndarray
    weights: np.ndarray
    volume_weights: np.ndarray
    extent: float
    spacing: float

    def __post_init__(self):
        for arr in (self.nodes, self.weights, self.volume_weights):
            arr.setflags(write=False)

    @property
    def size(self):
        return self.weights.shape[0]

    def __eq__(self, other):
        if not isinstance(other, Grid):
            return NotImplemented
        return (
            self.mode is other.mode
            and self.extent == other.extent
            and self.nodes.shape == other.nodes.shape
        )

    def __hash__(self):
        return hash((self.mode, self.extent, self.nodes.shape))


def make_grid(mode, extent, node_count):
    """Build a radial grid of node_count midpoint radii r_i = (i + 1/2) h,
    h = extent / node_count."""
    if node_count < 8:
        raise GridError(f"node_count={node_count} below minimum of 8")
    if extent <= 0:
        raise GridError(f"extent must be positive, got {extent}")
    mode = Mode(mode)
    h = extent / node_count
    r = (np.arange(node_count) + 0.5) * h
    flat = np.full(node_count, h)
    vol = 4.0 * np.pi * r**2 * h
    return Grid(mode, r, flat, vol, float(extent), h)


@dataclass(frozen=True)
class GridFunction:
    """Complex-valued function sampled on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        # Copy, so that freezing the values leaves the caller's array writable.
        vals = np.array(self.values, dtype=complex)
        if vals.shape != (self.grid.size,):
            raise GridMismatchError(
                f"value count {vals.shape} != node count {self.grid.size}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def profile_values(f):
    """Underlying 3-D profile psi = u / r at each node."""
    return f.values / f.grid.nodes


def _check_same_grid(a, b):
    if a != b:
        raise GridMismatchError("grid mismatch")


def lp_norm(f, p, weights=None):
    """Discrete L^p norm (sum w_i |f_i|^p)^(1/p); max |f_i| for p = inf.

    Uses the working weights unless an explicit weight array is given
    (e.g. grid.volume_weights for 3-D norms of radial profiles).
    """
    if p != np.inf and p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    absf = np.abs(f.values)
    if p == np.inf:
        return float(absf.max())
    w = f.grid.weights if weights is None else weights
    return float(np.sum(w * absf**p) ** (1.0 / p))


def profile_lp_norm(f, p):
    """3-D L^p norm of the profile psi = u / r."""
    psi = profile_values(f)
    if p == np.inf:
        return float(np.abs(psi).max())
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    w = f.grid.volume_weights
    return float(np.sum(w * np.abs(psi) ** p) ** (1.0 / p))


def gaussian_bump(grid, width=1.0):
    """L1-normalized origin-centered Gaussian bump: profile exp(-(r/width)^2)."""
    vals = np.exp(-((grid.nodes / width) ** 2)) * grid.nodes
    f = GridFunction(grid, vals.astype(complex))
    return GridFunction(grid, f.values / profile_lp_norm(f, 1))


def bilinear_pair(f, g):
    """Symmetric bilinear pairing sum w_i f_i g_i (no conjugation), w the
    working weights."""
    _check_same_grid(f.grid, g.grid)
    return complex(np.sum(f.grid.weights * f.values * g.values))


def apply_complement(P, x):
    """(I - P) x for P = U W^T given as (U, W); x a vector or matrix of columns."""
    U, W = P
    return x - U @ (W.T @ x)


def operator_l1_norm(A, grid):
    """Induced norm of the application matrix A on the weighted discrete L^1
    space of `grid`: max_j sum_i w_i |A_ij| / w_j."""
    w = grid.weights
    return float(((w @ np.abs(A)) / w).max())
