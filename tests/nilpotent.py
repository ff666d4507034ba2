"""Synthetic inputs of the abstract Jordan construction, for the tests only:
random nilpotent matrices, symmetric under the dot product, with a
prescribed chain structure."""

import numpy as np
from scipy import linalg as sla


def nilpotent_fixture(chain_spec, rng=None):
    """Random B-symmetric (B = dot) nilpotent with prescribed chain structure.

    chain_spec maps chain length k to multiplicity L_k.  Each chain block is
    realized on its own coordinates through a dot-isotropic dual pair basis,
    then the whole matrix is conjugated by a random complex orthogonal
    similarity (which preserves plain symmetry): the Cayley transform
    Q = (I - A)^{-1} (I + A) of a random complex skew-symmetric A.
    """
    rng = np.random.default_rng(rng)
    blocks = []
    for k in sorted(chain_spec, reverse=True):
        for _ in range(chain_spec[k]):
            blocks.append(_symmetric_jordan_block(k))
    base = sla.block_diag(*blocks) if blocks else np.zeros((0, 0))
    n = base.shape[0]
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A = 0.175 * (A - A.T) / np.sqrt(max(n, 1))
    Q = np.linalg.solve(np.eye(n) - A, np.eye(n) + A)  # Q^T Q = I
    return Q @ base @ Q.T


def _symmetric_jordan_block(k):
    """Plain-symmetric nilpotent k x k matrix with a single length-k chain.

    Built from a dot-self-dual chain basis: coordinates are allocated to
    dual pairs (e_j, e_{k+1-j}) through isotropic vectors (1, +/- i)/sqrt 2,
    with a real middle vector when k is odd; then N = sum over j of
    psi_{j-1} psi_{k+1-j}^T, j = 2..k, which is symmetric and shifts the
    chain.
    """
    psi = np.zeros((k, k), complex)  # column j-1 holds psi_j
    for j in range(1, k // 2 + 1):
        a, b = 2 * (j - 1), 2 * (j - 1) + 1
        psi[a, j - 1] = 1 / np.sqrt(2)
        psi[b, j - 1] = 1j / np.sqrt(2)
        psi[a, k - j] = 1 / np.sqrt(2)
        psi[b, k - j] = -1j / np.sqrt(2)
    if k % 2 == 1:
        mid = (k + 1) // 2
        psi[k - 1, mid - 1] = 1.0
    return psi[:, : k - 1] @ np.flip(psi[:, : k - 1], axis=1).T
