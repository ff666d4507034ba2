"""Zero-energy threshold machinery: filtration, Jordan chains, projections.

The generalized null space X = union of X_k = ker H^k is built through the
resolvent route (Psi in X_{k+1} iff (I + R0(0) V) Psi = R0(0) Phi for some
Phi in X_k), then H restricted to X is brought to a self-dual Jordan basis:
chains psi_{1,k}, ..., psi_{k,k} with H psi_{j,k} = psi_{j-1,k} whose Gram
matrix under the *bilinear* (unconjugated) pairing is the antidiagonal 0/1
pattern pair(psi_{j1,k}, psi_{j2,k}) = delta_{j1+j2 = k+1}.  Each chain is
kept as one array whose columns are psi_{1,k}, ..., psi_{k,k}, so the dual
partner of a column is its mirror image in the chain.

The basis construction works for any nilpotent matrix N that is symmetric
with respect to a nondegenerate symmetric bilinear form B; that abstract
version (`jordan_dual_basis`) is also exercised directly on synthetic
fixtures.  `threshold` computes the concrete version once per scenario:
the filtration dims, the X_1 states that `classify_state` sorts into
eigenvalues and resonances (with c0 in one fixed phase), and the basis.

The potential is a vector of samples, so H = H0 + V is tridiagonal and
I + V R0(0) = H H0^{-1}, and no M x M matrix is formed: the rank decision
comes from power iterations made of banded solves, X_1 = ker H from
inverse iteration, and, since an irreducible tridiagonal H has nullity at
most 1, X is a single Jordan chain whose members are bordered tridiagonal
solves, O(M) each.

From the basis come the spectral projections P0 (full), the limited P~0
(whose factors the low-energy inverse uses for Q~0 = I - P~0) and P_pp
(all point spectrum: eigenvalues by Sturm bisection of a real tridiagonal
H, by Aberth-Ehrlich sweeps of a complex tridiagonal H, O(M K) per sweep
plus the O(M^2) Ehrlich sums, K the nodes before the bands level off, and
by a dense `eigvals` when the sweeps fail; bilinear rank-one
projectors of simple eigenvalues by tridiagonal inverse iteration,
Schur-based Riesz projectors elsewhere).  Each is returned as
the M x n factors (U, W) of P = U W^T, n its rank, never as an M x M array.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from . import birman, evolution, grids
from .grids import GridFunction, bilinear_pair


class NotNilpotentError(ValueError):
    """Input matrix is not nilpotent at the working tolerance."""


class NotSymmetricError(ValueError):
    """Input matrix is not symmetric with respect to the bilinear form."""


class DegeneratePairingError(ArithmeticError):
    """No dual partner with nonzero pairing exists (degenerate form)."""


class NoStabilizationError(ArithmeticError):
    """Filtration dimensions keep growing past the iteration cap."""


class ZeroVectorError(ValueError):
    """Cannot classify the zero vector."""


class ClusterAmbiguousError(ArithmeticError):
    """Two eigenvalue clusters are too close to separate reliably."""


EIGENVALUE = "EIGENVALUE"
RESONANCE = "RESONANCE"

#: Relative rank cutoff of the filtration, relative tolerance of
#: `jordan_dual_basis`, and filtration steps before NoStabilizationError.
RANK_TOL = 1e-8
BASIS_TOL = 1e-10
MAX_FILTRATION_STEPS = 8


# ---------------------------------------------------------------------------
# Jordan basis container


@dataclass
class JordanBasis:
    """Self-dual Jordan chain basis.

    chains holds one array per chain, longest chain first, whose k columns
    are psi_{1,k}, ..., psi_{k,k}; the dual partner of column j is column
    k + 1 - j.  pairing_certificate is the Gram matrix of bilinear pairs of
    all the columns in that order, to be compared against
    `expected_gram(multiplicities)`.
    """

    chains: tuple
    pairing_certificate: np.ndarray

    @property
    def multiplicities(self):
        """Chain length k -> number of chains of that length, k descending."""
        return dict(Counter(C.shape[1] for C in self.chains))

    @property
    def dim(self):
        return sum(C.shape[1] for C in self.chains)


def expected_gram(multiplicities):
    """The target Gram pattern: one antidiagonal 0/1 block per chain, longest
    chain first."""
    blocks = [np.eye(k)[::-1] for k in sorted(multiplicities, reverse=True)
              for _ in range(multiplicities[k])]
    return sla.block_diag(np.zeros((0, 0)), *blocks)


def _gram(chains, pair):
    """The pairing certificate: pair(u, v) over all pairs of columns."""
    cols = [c for C in chains for c in C.T]
    G = [[pair(u, v) for v in cols] for u in cols]
    return np.array(G, complex).reshape(len(cols), len(cols))


def _chain(vectors):
    """The vectors as the contiguous, read-only columns of one chain array."""
    C = np.array(vectors).T
    C.setflags(write=False)
    return C


# ---------------------------------------------------------------------------
# Abstract construction: B-symmetric nilpotent -> self-dual chains


def _null_basis(M, tol_rank, scale):
    """Orthonormal basis of the (right) null space by SVD.

    The rank cutoff is tol_rank times `scale`, given from outside: a
    numerically-zero power of a nilpotent matrix has only noise singular
    values.
    """
    if M.shape[0] == 0:
        return np.zeros((0, 0))
    U, s, Vh = np.linalg.svd(M)
    rank = int(np.sum(s > tol_rank * scale))
    return Vh[rank:].conj().T


def _complement_in(big, small, tol_rank):
    """Orthonormal vectors extending span(small) to span(big)."""
    if small.shape[1] == 0:
        return big
    proj = big - small @ (small.conj().T @ big)
    U, s, _ = np.linalg.svd(proj, full_matrices=False)
    cutoff = tol_rank * max(1.0, s[0] if len(s) else 1.0)
    return U[:, s > cutoff]


def jordan_dual_basis(N, B=None):
    """Self-dual Jordan basis of a B-symmetric nilpotent matrix.

    N is a square matrix acting on a space where B
    (default: plain dot product) is a nondegenerate symmetric bilinear form
    with B(Nu, v) = B(u, Nv), checked to BASIS_TOL.  The construction is
    top-down in chain length: candidate chain tops are orthogonalized
    against finished chains through their dual partners and normalized to
    m = B(N^{k-1} psi, psi) = 1.  The next top is chosen by symmetric
    pivoting on G_ab = B(N^{k-1} q_a, q_b) over the queued candidates q_a:
    the candidate of largest |G_aa|, or, when an off-diagonal |G_bc| is
    larger (an isotropic top among them), the better of (q_b +- q_c) / sqrt 2,
    whose |m| is at least |G_bc|.  So |m| is never small next to the
    pairings of the queue, and the top, divided by sqrt(m), stays of the
    candidates' size; DegeneratePairingError is raised when no candidate
    pairs with any.  Each top is then corrected by
    psi <- psi - (m_a / 2) N^{k-1-a} psi to kill the remaining same-chain
    pairings.
    """
    N = np.asarray(N, dtype=complex)
    n = N.shape[0]
    if B is None:
        B = np.eye(n)
    B = np.asarray(B, dtype=complex)
    scale = max(np.abs(N).max(), 1.0) * max(np.abs(B).max(), 1.0)

    if np.abs(B @ N - N.T @ B).max() > 100 * BASIS_TOL * scale:
        raise NotSymmetricError("matrix is not symmetric under the bilinear form")

    # Filtration ker N^k and chain length K.
    normN = max(np.linalg.norm(N, 2), 1.0)
    powers = [np.eye(n, dtype=complex)]
    kernels = [np.zeros((n, 0))]
    K = None
    for k in range(1, n + 1):
        powers.append(powers[-1] @ N)
        kernels.append(_null_basis(powers[-1], BASIS_TOL, scale=normN**k))
        if kernels[-1].shape[1] == n:
            K = k
            break
    if K is None:
        raise NotNilpotentError("N^n != 0 at the working tolerance")

    def pair(u, v):
        return complex(u @ B @ v)

    chains = []

    def project_out(v):
        """Remove all pairings of v with finished chains via dual partners."""
        for C in chains:
            for j in range(C.shape[1]):
                coef = pair(v, C[:, j])
                if coef != 0:
                    v = v - coef * C[:, -1 - j]
        return v

    for k in range(K, 0, -1):
        # Accounted part of ker N^k: ker N^{k-1} plus level-k members of
        # longer chains.
        accounted = [kernels[k - 1]]
        for C in chains:
            if C.shape[1] > k:
                accounted.append(C[:, k - 1 : k])
        accounted = np.hstack(accounted) if accounted else np.zeros((n, 0))
        if accounted.shape[1]:
            Q, _ = np.linalg.qr(accounted)
        else:
            Q = accounted
        cands = _complement_in(kernels[k], Q, BASIS_TOL)
        queue = [project_out(cands[:, i]) for i in range(cands.shape[1])]

        while queue:
            # Symmetric pivoting on G_ab = B(N^{k-1} q_a, q_b) over the queue.
            G = np.array([[pair(powers[k - 1] @ u, v) for v in queue] for u in queue])
            a = int(np.argmax(np.abs(np.diag(G))))
            off = np.abs(G - np.diag(np.diag(G)))
            b, c = np.unravel_index(np.argmax(off), off.shape)
            if off[b, c] > abs(G[a, a]):
                # (q_b +- q_c) / sqrt 2 have m = (G_bb + G_cc) / 2 +- G_bc, so
                # the larger has |m| >= |G_bc|; the other one stays queued.
                u, v = queue[b], queue[c]
                queue = [w for i, w in enumerate(queue) if i not in (b, c)]
                pm = [(u + v) / np.sqrt(2.0), (u - v) / np.sqrt(2.0)]
                ms = [pair(powers[k - 1] @ w, w) for w in pm]
                i = int(abs(ms[1]) > abs(ms[0]))
                psi, m = pm[i], ms[i]
                queue.append(pm[1 - i])
            else:
                psi, m = queue.pop(a), G[a, a]
            norm2 = max(float(np.abs(psi) @ np.abs(psi)), 1e-300)
            if abs(m) <= BASIS_TOL * scale * norm2:
                raise DegeneratePairingError(
                    f"no dual partner for a length-{k} chain top"
                )
            psi = psi / np.lib.scimath.sqrt(m)
            # Kill same-chain pairings below the antidiagonal.
            for a in range(k - 2, -1, -1):
                ma = pair(powers[a] @ psi, psi)
                psi = psi - 0.5 * ma * (powers[k - 1 - a] @ psi)
            chains.append(_chain([powers[k - j] @ psi for j in range(1, k + 1)]))
            queue = [project_out(v) for v in queue]

    return JordanBasis(tuple(chains), _gram(chains, pair))


# ---------------------------------------------------------------------------
# Concrete threshold machinery


@dataclass(frozen=True)
class Threshold:
    """The zero-energy threshold of H = -Delta + V on a grid, computed once.

    dims are the dimensions of the filtration X_1 subset ... subset X_K;
    states are the X_1 states Psi = R0(0) g (GridFunctions) over a basis g
    of the null space of I + V R0(0), ready for `classify_state`; basis is
    the self-dual Jordan basis of H restricted to X.
    """

    dims: tuple
    states: tuple
    basis: JordanBasis


def threshold(V, grid):
    """Filtration dims, X_1 states and self-dual chain basis of H = -Delta + V.

    The filtration of `build_filtration`, lifted by `_lift`.  The rank
    decisions take RANK_TOL, the basis BASIS_TOL.
    """
    return _lift(V, grid, *build_filtration(V, grid))


def _lift(V, grid, spaces, states):
    """The Threshold of the filtration (spaces, states) of H = -Delta + V.

    Restricts H to span(X) in the orthonormal coordinate frame Q of the
    last space, runs the abstract construction on N = Q^H H Q, with H Q a
    banded product, O(M) per column, and lifts each chain back to the grid
    column by column.
    """
    dims = tuple(sp.shape[1] for sp in spaces)
    if not spaces:
        return Threshold(dims, (), JordanBasis((), np.zeros((0, 0))))
    Q = spaces[-1]
    N = Q.conj().T @ birman._tridiagonal_apply(*birman.hamiltonian(V, grid), Q)
    Bres = Q.T @ (grid.weights[:, None] * Q)
    chains = []
    for C in jordan_dual_basis(N, Bres).chains:
        if not (np.iscomplexobj(Q) or np.any(C.imag)):
            C = C.real  # real samples: a real basis
        chains.append(_chain([Q @ c for c in C.T]))

    def pair(u, v):
        return bilinear_pair(GridFunction(grid, u), GridFunction(grid, v))

    basis = JordanBasis(tuple(chains), _gram(chains, pair))
    return Threshold(dims, tuple(states), basis)


def classify_state(psi, tol_res=1e-2):
    """EIGENVALUE / RESONANCE verdict by fitting the 1/r tail.

    Fits the 3-D profile psi(r) = c0/r + c1/r^2 over the outer third of the
    radii; a resonance is a surviving c0 tail relative to the profile's sup.
    A threshold state is defined only up to a unit phase, so (c0, c1) are
    reported in the phase that makes c0 real and >= 0 (left as fitted when
    c0 = 0): the fit of psi, -psi and e^{i theta} psi is the same, and the
    verdict reads |c0| in any phase.  Returns a dict with verdict, c0, c1
    and the discrete L1/L2 profile norms.
    """
    sup = float(np.abs(psi.values).max())
    if sup == 0.0:
        raise ZeroVectorError("cannot classify the zero vector")
    r = psi.grid.nodes
    prof = grids.profile_values(psi)
    order = np.argsort(r)
    outer = order[2 * len(r) // 3 :]
    if len(outer) < 8:
        raise ValueError("tail-fit window shorter than 8 nodes")
    ro, po = r[outer], prof[outer]
    design = np.column_stack([1.0 / ro, 1.0 / ro**2])
    coef, *_ = np.linalg.lstsq(design, po, rcond=None)
    c0, c1 = complex(coef[0]), complex(coef[1])
    if c0 != 0:
        phase = c0.conjugate() / abs(c0)
        c0, c1 = complex(abs(c0)), c1 * phase
    prof_sup = float(np.abs(prof).max())
    verdict = RESONANCE if abs(c0) > tol_res * prof_sup else EIGENVALUE
    return {
        "verdict": verdict,
        "c0": c0,
        "c1": c1,
        "l1_norm": grids.profile_lp_norm(psi, 1),
        "l2_norm": grids.profile_lp_norm(psi, 2),
    }


#: Power-iteration steps of `_norm_estimate` at most, and the relative
#: growth of the estimate below which it stops.  The rank decision needs
#: the norms to a factor of a few; they converge in a handful of steps.
NORM_STEPS = 30
NORM_RTOL = 1e-3


def _norm_estimate(apply, adjoint, x):
    """||A||_2 from below, by power iteration on A^H A from the vector x."""
    s = 0.0
    for _ in range(NORM_STEPS):
        x = x / np.linalg.norm(x)
        y = apply(x)
        s, prev = float(np.linalg.norm(y)), s
        if s <= prev * (1.0 + NORM_RTOL):
            break
        x = adjoint(y)
    return s


def build_filtration(V, grid):
    """Nested bases of X_1 subset ... subset X_K, stabilized, and the X_1 states.

    X_1 is the null space of I + R0(0) V, whose states Psi = R0(0) g come
    from the null vectors g of T = I + V R0(0), and X_{k+1} solves
    (I + R0(0) V) Psi = R0(0) Phi over Phi in X_k.  T has a null space when
    s_min(T) <= RANK_TOL s_max(T), and X_{k+1} grows past X_k when the
    left null vectors of I + R0(0) V annihilate R0(0) X_k up to RANK_TOL
    times ||R0(0) X_k||_2.  Returns (spaces, states): a list of orthonormal
    column matrices, where X_{k+1} collects the solutions over the solvable
    part of X_k together with X_1, and a list of GridFunctions.  Raises
    NoStabilizationError when the dims still grow after MAX_FILTRATION_STEPS
    steps.

    All of it is O(M) per solve.  R0(0) is exactly H0^{-1}, so
    T = H H0^{-1} with the tridiagonal H = H0 + V.  The rank decision takes
    s_max(T) and 1 / s_min(T) = ||T^{-1}||_2, T^{-1} = H0 H^{-1}, from power
    iterations made of banded applies and solves (`_norm_estimate`).  An
    irreducible tridiagonal H has nullity at most 1, so X_1 = ker H is one
    vector psi, the right singular vector of H at s_min, found by inverse
    iteration with H^H H; the null vector of T is g = H0 psi / ||H0 psi||
    and its state R0(0) g = psi / ||H0 psi||, with no solve.  The left null
    vector of I + R0(0) V is H0 psi-bar / ||H0 psi||, so the solvability of
    X_{k+1} is the bilinear psi^T X_k / ||H0 psi||, and X is a single Jordan
    chain: each member phi_{k+1}, H phi_{k+1} = phi_k, is one solve of
    Keller's bordered system (`birman._bordered_solver`).  An exactly zero
    pivot of H moves its factorization by a few ulps (`_shifted_solver`); a
    second one raises birman.NearSingularError.
    """
    d, e = birman.hamiltonian(V, grid)
    d0, _ = birman.tridiagonal_bs(grid, 0.0)
    solve_H = _shifted_solver(d, e, 0.0)
    if solve_H is None:
        raise birman.NearSingularError(np.inf, "threshold: zero pivot of H at both shifts")
    solve_H0 = birman._tridiagonal_solver(d0, e)

    def H(x):
        return birman._tridiagonal_apply(d, e, x)

    def H0(x):
        return birman._tridiagonal_apply(d0, e, x)

    rng = np.random.default_rng(0)
    start = rng.standard_normal(d.size)  # real bands: a real chain
    if np.iscomplexobj(d):
        start = start + 1j * rng.standard_normal(d.size)
    t_norm = _norm_estimate(
        lambda x: H(solve_H0(x)),
        lambda y: solve_H0(birman._tridiagonal_apply(d.conj(), e, y)),  # H^H, e real
        start,
    )
    t_inv_norm = _norm_estimate(
        lambda x: H0(solve_H(x)), lambda y: solve_H(H0(y), "C"), start
    )
    if RANK_TOL * t_norm * t_inv_norm < 1.0:
        return [], []
    psi = start
    for _ in range(INVERSE_ITERATIONS):
        psi = solve_H(psi, "C")
        psi = solve_H(psi / np.linalg.norm(psi))
        psi /= np.linalg.norm(psi)
    g_norm = np.linalg.norm(H0(psi))
    states = [GridFunction(grid, psi / g_norm)]
    e_r = np.zeros((d.size, 1))
    e_r[np.argmax(np.abs(psi))] = 1.0
    chain, _ = birman._bordered_solver(
        d, e, e_r, psi[:, None], e_r, "threshold chain solve"
    )
    Q = psi[:, None]
    spaces = [Q]
    for _ in range(MAX_FILTRATION_STEPS):
        R0Q = solve_H0(Q)
        scale = np.sqrt(np.linalg.eigvalsh(R0Q.conj().T @ R0Q)[-1])
        if np.linalg.norm(psi @ Q) / g_norm > RANK_TOL * scale:
            return spaces, states
        phi, _ = chain(Q[:, -1], np.zeros(1))
        for _ in range(2):  # Gram-Schmidt, repeated once for orthogonality
            phi -= Q @ (Q.conj().T @ phi)
        Q = np.column_stack([Q, phi / np.linalg.norm(phi)])
        spaces.append(Q)
    raise _still_growing(spaces)


def _still_growing(spaces):
    return NoStabilizationError(
        f"filtration still growing after {MAX_FILTRATION_STEPS} steps: dims "
        f"{[sp.shape[1] for sp in spaces]}"
    )


# ---------------------------------------------------------------------------
# Projections


def _factors(grid, vecs, duals):
    """Factors (U, W) of the sum of the maps f -> pair(f, dual) vec: U the
    columns of vecs side by side, W the weighted columns w dual of duals."""
    empty = np.zeros((grid.size, 0))  # rank 0 for no columns
    return np.hstack([empty, *vecs]), grid.weights[:, None] * np.hstack([empty, *duals])


def build_P0(basis, grid):
    """Factors (U, W) of P0 f = sum pair(f, psi_{k+1-j,k}) psi_{j,k}: the
    chains, and the chains with their columns reversed."""
    return _factors(grid, basis.chains, [C[:, ::-1] for C in basis.chains])


def build_Ptilde0(basis, grid):
    """Factors (U, W) of P~0 f = sum pair(f, psi_{1,k}) psi_{k,k}: the chain
    tops (last columns) and the chain bottoms (first columns)."""
    return _factors(
        grid, [C[:, -1:] for C in basis.chains], [C[:, :1] for C in basis.chains]
    )


def free_edge_scale(grid):
    """Lowest eigenvalue of the free discretized Laplacian (continuum edge)."""
    return (np.pi / (2.0 * grid.extent)) ** 2


def build_Ppp(
    V,
    grid,
    basis=None,
    delta_edge=None,
    delta_im=1e-3,
    cluster_tol=1e-6,
):
    """Factors (U, W) of the projection P_pp = U W^T onto all point spectrum
    away from the continuum edge.

    Discrete eigenvalues of H with Re < -delta_edge or |Im| > delta_im are
    point spectrum; they are clustered, and the factors of the clusters'
    Riesz projectors are set side by side, then those of P0 when a
    threshold basis (zero-energy part) is supplied.  W^T U is the identity.

    The eigenvalue source is read off the samples.  Real samples make H
    real-symmetric tridiagonal, and only its eigenvalues below -delta_edge
    are found, by Sturm bisection (`_eigenvalues_below`, O(M) per step and
    eigenvalue).  Complex samples make H complex-symmetric tridiagonal, and
    all M of its eigenvalues come from Aberth-Ehrlich sweeps
    (`_tridiagonal_eigenvalues`, O(M K) per sweep plus the O(M^2) Ehrlich
    sums, K the nodes before the free tail), since the selection rule
    takes complex eigenvalues anywhere off the real axis.  Complex samples
    whose sweeps do not converge or fail their trace checks take one dense
    `eigvals` of H, O(M^3).  H is formed only for that `eigvals` or for a
    Schur projector.

    The path per cluster is read off the cluster.  H is complex symmetric,
    so the left eigenvector of a simple eigenvalue z is the transposed
    right one psi, and its Riesz projector is the bilinear rank-one
    psi psi^T / (psi^T psi), in the pairing of the self-dual Jordan basis.
    A single-member cluster takes that formula, with psi from inverse
    iteration on the tridiagonal H - z (`_rank_one_projector`, O(M) per
    step).  `_riesz_projector`, a sorted Schur form and a Sylvester solve,
    serves the rest: a cluster of more than one eigenvalue, a
    near-defective eigenvalue (condition kappa = ||psi||^2 / |psi^T psi|
    above KAPPA_MAX) and an eigenpair whose residual ||H psi - z psi||
    exceeds RESIDUAL_TOL ||H||_1 ||psi||.
    """
    if delta_edge is None:
        delta_edge = 3.0 * free_edge_scale(grid)
    d, e = birman.hamiltonian(V, grid)
    H = None
    if np.iscomplexobj(d):
        evals = _tridiagonal_eigenvalues(d, e)
    else:
        evals = _eigenvalues_below(d, e, -delta_edge)
    if evals is None:
        H = evolution.discretize_H(V, grid)
        evals = np.linalg.eigvals(H)
    selected = [
        ev for ev in evals if ev.real < -delta_edge or abs(ev.imag) > delta_im
    ]
    factors = [_factors(grid, [], [])]  # rank 0 when nothing is selected
    for center, members in _cluster(selected, cluster_tol):
        proj = None
        if len(members) == 1:
            proj = _rank_one_projector(d, e, center)
        if proj is None:
            if H is None:
                H = evolution.discretize_H(V, grid)
            radius = max(abs(ev - center) for ev in members) + cluster_tol
            proj = _riesz_projector(H, center, radius)
        factors.append(proj)
    if basis is not None:
        factors.append(build_P0(basis, grid))
    return tuple(np.hstack(parts) for parts in zip(*factors))


def _eigenvalues_below(d, e, upper):
    """The eigenvalues up to `upper` of the real symmetric tridiag(e, d, e).

    Sturm bisection (LAPACK dstebz through `eigvalsh_tridiagonal`,
    select="v") on an interval whose lower end lies below Gershgorin's
    bound, so that no eigenvalue up to `upper` is missed.
    """
    lower = float(birman._gershgorin(d, e)[0])
    if lower > upper:
        return np.zeros(0)
    lower -= 1.0 + abs(lower)
    return sla.eigvalsh_tridiagonal(d, e, select="v", select_range=(lower, upper))


#: Aberth sweeps of `_tridiagonal_eigenvalues` at most.  The evolve
#: scenario takes 5 at M = 700 and 1400; random complex samples (M <= 200,
#: |Im v| <= 30) took up to 48.
ABERTH_SWEEPS = 50

#: Aberth step, relative to ||H||_1, at or below which an approximation is
#: frozen; the trace checks allow M times it.
ABERTH_TOL = 4 * np.finfo(float).eps

#: Entries of one row block of the Ehrlich sums: 0.5 MB of complex values.
EHRLICH_BLOCK = 1 << 15


def _tridiagonal_eigenvalues(d, e):
    """All eigenvalues of the complex symmetric tridiag(e, d, e), e real, or None.

    Simultaneous Aberth-Ehrlich iteration on p(z) = det(H - z) (Aberth,
    Math. Comp. 27, 1973; Bini, Gemignani & Tisseur, SIAM J. Matrix Anal.
    Appl. 27, 2005), started from the eigenvalues of the real part
    tridiag(e, Re d, e) (`eigvalsh_tridiagonal`): exact when Im d = 0, and
    close on the quasi-continuum.  A sweep sets each active approximation
    z_i <- z_i - 1 / (p'/p(z_i) - sum_{j != i} 1 / (z_i - z_j)), with p'/p from
    the pivot recurrence over the first K nodes and one transfer-matrix
    power over the free tail, where the bands are constant
    (`_log_derivative`, O(K + log M) per point), and the Ehrlich sum taken
    in row blocks of EHRLICH_BLOCK entries, so no M x M array is formed:
    O(M K) plus O(M^2) per sweep.  A potential that levels off within the
    box (eps ||H||_1 of its last interior sample) has K much below M; one
    that never does, such as a 1/r^2 tail, has K = M - 2 and sweeps as
    long as the full recurrence.  An approximation whose step is at
    most ABERTH_TOL ||H||_1 is frozen where it stands, within about that
    step of its eigenvalue; hence the trace checks sum z = tr H and
    sum z^2 = tr H^2 = sum d^2 + 2 sum e^2, to M ABERTH_TOL ||H||_1 and
    2 M ABERTH_TOL ||H||_1^2 (|z| <= ||H||_1).  Returns None, for the dense
    `eigvals`, when ABERTH_SWEEPS sweeps leave an approximation active or a
    check fails.
    """
    z = sla.eigvalsh_tridiagonal(d.real, e).astype(complex)
    norm = birman._one_norm(d, e)
    e2 = e * e
    rows = max(1, EHRLICH_BLOCK // d.size)
    active = np.arange(d.size)
    for _ in range(ABERTH_SWEEPS):
        if not active.size:
            break
        # Near an eigenvalue p'/p may overflow, and coincident
        # approximations divide by zero: a step that is not finite leaves a
        # root missed or z not finite, and the trace checks fail.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = _log_derivative(d, e2, z[active], np.finfo(float).eps * norm)
            for start in range(0, active.size, rows):
                block = active[start : start + rows]
                diff = z[block, None] - z
                diff[np.arange(block.size), block] = np.inf
                step[start : start + rows] -= (1.0 / diff).sum(axis=1)
            w = 1.0 / step
            moving = np.abs(w) > ABERTH_TOL * norm
            z[active[moving]] -= w[moving]
        active = active[moving]
    if active.size:
        return None
    bound = d.size * ABERTH_TOL * norm
    trace_ok = abs(z.sum() - d.sum()) <= bound  # False for a NaN
    square_ok = abs(z @ z - d @ d - 2.0 * e2.sum()) <= 2.0 * bound * norm
    return z if trace_ok and square_ok else None


def _log_derivative(d, e2, z, pivmin):
    """p'/p at the points z, for p(z) = det(tridiag(e, d, e) - z) and e2 = e^2.

    The leading principal minors obey P_k = (d_k - z) P_{k-1} - e2_{k-1} P_{k-2},
    and p = P_{M-1}.  Up to the start K of the free tail (`_free_tail`) they
    are taken as pivots q_k = P_k / P_{k-1} = (d_k - z) - e2_{k-1} / q_{k-1},
    p'/p accumulating q_k'/q_k with q_k' = -1 + (e2_{k-1} / q_{k-1})
    q_{k-1}'/q_{k-1}; a pivot that is exactly zero is replaced by pivmin, as
    LAPACK's dstebz does.  Over the tail, where d_k = c and e2_{k-1} = s^2,
    the scaled minors x_k = P_k / s^k obey x_k = t x_{k-1} - x_{k-2},
    t = (c - z) / s.  Near the band edges t = +-2 the transfer matrix
    [[t, -1], [1, 0]] is close to a Jordan block and its powers cancel, so
    the state is (x_k, x_k - sigma x_{k-1}), sigma = sign Re t, which moves
    by sigma B with B = [[1 - delta, 1], [-delta, 1]], delta = 2 - sigma t:
    B is close to [[1, 1], [0, 1]] there, and delta = sigma (z - (c - 2 sigma
    s)) / s carries z without cancellation.  The n = M - 1 - K tail steps are one
    power B^n with its z-derivative (`_transfer_power`), the sign sigma^n
    cancels in p'/p, and the last node is one explicit step.  Vectorized over
    z: O(K + log M) per point.
    """
    K = _free_tail(d, e2, pivmin)
    piv = d[0] - z
    piv[piv == 0] = pivmin
    ratio = -1.0 / piv
    total = np.zeros_like(ratio)  # sum of q_k'/q_k over k <= K - 2
    for k in range(1, K):
        total += ratio
        c = e2[k - 1] / piv
        piv = (d[k] - z) - c
        piv[piv == 0] = pivmin
        ratio = (c * ratio - 1.0) / piv
    # The state at node K - 1 over P_{K-2} / s^{K-2}, and its z-derivative,
    # as 2 x 1 columns: x_{K-1} = q_{K-1} / s, x_{K-2} = 1.
    s = np.sqrt(e2[-2])
    sigma = np.where((d[-2] - z).real < 0, -1.0, 1.0)
    x = piv / s
    u = np.stack([x, x - sigma])[:, None]
    du = np.stack([ratio * x, ratio * x])[:, None]
    delta = sigma * (z - (d[-2] - 2.0 * sigma * s)) / s
    B, dB = _transfer_power(delta, sigma / s, d.size - 1 - K)
    u, du = _product(B, u), _product(dB, u) + _product(B, du)
    x, dx = u[0, 0], du[0, 0]
    x_prev, dx_prev = sigma * (x - u[1, 0]), sigma * (dx - du[1, 0])
    last, coupling = d[-1] - z, e2[-1] / s
    w = last * x - coupling * x_prev  # P_{M-1}, to a common factor
    dw = last * dx - coupling * dx_prev - x
    w[w == 0] = pivmin  # as a zero pivot
    return total + dw / w


def _free_tail(d, e2, tol):
    """The first node K of the free tail of tridiag(e, d, e), e2 = e^2, on
    M >= 3 nodes: the longest run of nodes K, ..., M - 2 whose diagonal
    entries lie within tol of the last interior one and whose couplings
    e2_{k-1} to the node before equal e2_{M-3}, so 1 <= K <= M - 2: node 0
    and the last node are never part of it, and node M - 2 always is
    (K = M - 2 is the empty tail of a potential that never levels off,
    folded as a single step).  With tol = eps ||H||_1 the run is folded at
    a diagonal backward error the size of the one the pivot recurrence
    commits.
    """
    off = (np.abs(d[1:-1] - d[-2]) > tol) | (e2[:-1] != e2[-2])
    last_off = np.flatnonzero(off)
    return int(last_off[-1]) + 2 if last_off.size else 1


def _transfer_power(delta, ddelta, n):
    """B^n and its z-derivative for B = [[1 - delta, 1], [-delta, 1]] and
    delta' = ddelta, as 2 x 2 x m arrays: the matrices of the m points z stacked along the
    last axis, each divided by one positive factor.

    Repeated squaring of the pair (B, B'), with (X, X')(Y, Y') =
    (XY, X'Y + XY'), normalized by the largest entry of the product after
    each step so that nothing overflows: O(log n) per point.
    """
    power = np.ones((2, 2) + delta.shape, complex)
    power[0, 0], power[1, 0] = 1.0 - delta, -delta
    dpower = np.zeros_like(power)
    dpower[0, 0] = dpower[1, 0] = -ddelta
    result = None
    while True:
        if n & 1:
            result = (power, dpower) if result is None else _dual_product(
                *result, power, dpower
            )
        n >>= 1
        if not n:
            return result
        power, dpower = _dual_product(power, dpower, power, dpower)


def _dual_product(X, dX, Y, dY):
    """(XY, X'Y + XY') for stacked 2 x 2 pairs, divided by the largest entry
    of XY per point."""
    XY = _product(X, Y)
    scale = np.abs(XY).max(axis=(0, 1))
    return XY / scale, (_product(dX, Y) + _product(X, dY)) / scale


def _product(X, Y):
    """XY for matrices stacked along the last axis, one per point z."""
    return (X[:, :, None] * Y[None]).sum(axis=1)


#: Largest eigenvalue condition kappa = ||psi||^2 / |psi^T psi| at which
#: `build_Ppp` uses the rank-one projector; beyond it the eigenvalue counts
#: as near-defective and takes the Schur path.
KAPPA_MAX = 1e3

#: Largest residual ||H psi - z psi|| / (||H||_1 ||psi||) of an accepted
#: inverse-iteration eigenpair.
RESIDUAL_TOL = 1e-12

#: Inverse-iteration steps.  z is a backward-stable eigenvalue, so each
#: solve amplifies psi over the other eigenvectors by about
#: gap / (eps ||H|| kappa); the second step reaches round-off.
INVERSE_ITERATIONS = 3


def _rank_one_projector(d, e, z):
    """Columns (psi, psi / psi^T psi), the factors of the projector of the
    simple eigenvalue z of tridiag(e, d, e).

    psi comes from INVERSE_ITERATIONS steps of inverse iteration on
    tridiag(e, d - z, e), factored once (`birman._tridiagonal_solver`);
    an exactly zero pivot at the computed z moves z by a few ulps of
    ||H||_1.  Returns None, for the Schur path, when the factorization
    still fails, the eigenvalue is near-defective (kappa > KAPPA_MAX) or the
    residual check fails.
    """
    solve = _shifted_solver(d, e, z)
    if solve is None:
        return None
    # A fixed random start vector: deterministic, and without the structure
    # that can leave a constant vector nearly free of an oscillating psi.
    rng = np.random.default_rng(0)
    psi = rng.standard_normal(d.size) + 1j * rng.standard_normal(d.size)
    for _ in range(INVERSE_ITERATIONS):
        psi = solve(psi)
        psi /= np.linalg.norm(psi)
    resid = np.linalg.norm(birman._tridiagonal_apply(d, e, psi) - z * psi)
    bilinear = psi @ psi
    if resid > RESIDUAL_TOL * birman._one_norm(d, e) or abs(bilinear) * KAPPA_MAX < 1.0:
        return None
    return psi[:, None], (psi / bilinear)[:, None]


def _shifted_solver(d, e, z):
    """The solver of tridiag(e, d - z, e) (`birman._tridiagonal_solver`).

    An exactly zero pivot at z moves z by a few ulps of ||H||_1; returns
    None when the factorization still fails.
    """
    for shift in (0.0, 4.0 * np.finfo(float).eps * birman._one_norm(d, e)):
        try:
            return birman._tridiagonal_solver(d - (z + shift), e)
        except birman.NearSingularError:
            continue
    return None


def _cluster(evals, cluster_tol):
    """Greedy clustering of selected eigenvalues; ambiguity guarded."""
    clusters = []
    for ev in sorted(evals, key=lambda z: (z.real, z.imag)):
        for c in clusters:
            if abs(ev - c[0]) <= 10 * cluster_tol:
                c[1].append(ev)
                c[0] = np.mean(c[1])
                break
        else:
            clusters.append([ev, [ev]])
    centers = [c[0] for c in clusters]
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            gap = abs(centers[i] - centers[j])
            if gap < 10 * cluster_tol:
                raise ClusterAmbiguousError(
                    f"clusters at {centers[i]:.6g} and {centers[j]:.6g} "
                    f"separated by {gap:.3e}"
                )
    return [(c[0], c[1]) for c in clusters]


def _riesz_projector(H, center, radius):
    """Factors (U, W) of the spectral projector for eigenvalues within
    `radius` of `center`.

    Sorted complex Schur form [[T11, T12], [0, T22]] with the s eigenvalues
    of the cluster in T11; the projector is Z [[I, X], [0, 0]] Z* with
    T11 X - X T22 = T12, so U = Z[:, :s] and W = conj(Z) [I, X]^T (s = 0
    and s = M included).  O(M^3); `build_Ppp` uses it for clusters of more
    than one eigenvalue and near-defective eigenvalues, where the rank-one
    formula is not safe, and the tests use it as the oracle of
    `_rank_one_projector`.
    """
    T, Z, sdim = sla.schur(
        H, output="complex", sort=lambda z: abs(z - center) <= radius
    )
    X = sla.solve_sylvester(T[:sdim, :sdim], -T[sdim:, sdim:], T[:sdim, sdim:])
    return Z[:, :sdim], Z.conj() @ np.vstack([np.eye(sdim), X.T])
