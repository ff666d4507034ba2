"""Dense and full-length references of the fast paths, and closed forms
of the continuum, for the tests only.

Most form an M x M matrix that the package never forms, at up to O(M^3)
cost: the sampled free kernel R0(lambda^2), the dense LU inverse with its
condition estimate, the dense I + V R0(lambda^2), with the sampled free
kernel or with the domain resolvent, the dense LU of the bordered S0
system, S0 itself
from the package's bordered solve, the dense series step of the
low-energy inverse and the dense SVD filtration of the threshold.  Two
are banded: the pivot recurrence of p'/p over all M nodes, which
`jordan._log_derivative` shortens by folding the free tail into one
transfer-matrix power, and a long-double tridiagonal solve.  One
is a copy: the out-of-place lambda -> rho transform, which
`ftdiag._transform` does in place.  The rest are the continuum objects
the discretization is compared against: the exact free evolution on the
half line, the closed-form threshold profile psi_s, the L^{p'} growth of
the 3-D difference kernel, and the transform of the d/dlambda free-kernel
family.
"""

import numpy as np
from scipy import linalg as sla

from speclab import birman, ftdiag, jordan, lowenergy, resolvent
from speclab.grids import GridFunction
from speclab.resolvent import Branch


def build_R0(grid, lam, sign=Branch.PLUS):
    """The sampled free resolvent: the kernel samples a(r_<) b(r_>) of
    `resolvent.kernel_generators` (the nodes ascend, so r_< is the node of
    the lower index) times the quadrature weights."""
    a, b = resolvent.kernel_generators(grid.nodes, lam, sign)
    i = np.arange(grid.size)
    K = a[np.minimum.outer(i, i)] * b[np.maximum.outer(i, i)]
    return K.astype(complex, copy=False) * grid.weights[None, :]


def direct_inverse(A, context=""):
    """Dense LU inverse of the square matrix A with a condition estimate.

    Raises birman.NearSingularError when the 1-norm condition estimate
    exceeds birman.COND_CUTOFF, the cutoff of `birman.bs_solve`.  zgecon
    reports a zero inverse norm or a NaN/Inf estimate with info > 0, which
    counts as singular.
    """
    lu, piv = sla.lu_factor(A)
    anorm = np.linalg.norm(A, 1)
    rcond, info = sla.lapack.zgecon(lu, anorm)
    if info < 0:
        raise ValueError(f"zgecon rejected argument {-info} (1-norm {anorm})")
    with np.errstate(divide="ignore", over="ignore"):
        cond = np.inf if info > 0 or rcond == 0 else 1.0 / rcond
    if not np.isfinite(cond) or cond > birman.COND_CUTOFF:
        raise birman.NearSingularError(cond, context)
    inv = sla.lu_solve((lu, piv), np.eye(A.shape[0], dtype=complex))
    return inv, float(cond)


def build_bs(V, grid, lam, sign=Branch.PLUS):
    """The dense I + V R0(lambda^2 +/- i0) with the sampled free kernel."""
    R0 = build_R0(grid, lam, sign)
    return np.eye(grid.size) + birman.potential_operator(V, R0)


def bs_matrix(V, grid, lam):
    """The dense I + V R0(lambda^2) with the domain resolvent family."""
    R = lowenergy.domain_resolvent(grid, lam)(np.eye(grid.size, dtype=complex))
    return np.eye(grid.size) + birman.potential_operator(V, R)


def bordered_S0(V, grid, Y, Z, R0Y):
    """S0 from the dense LU of the bordered matrix of `lowenergy.build_S0`.

    With no chains (Y and Z of width 0) it is the dense inverse of
    I + V R0(0).
    """
    M, n = Y.shape
    T0 = bs_matrix(V, grid, 0.0)
    K = np.zeros((M + n, M + n), complex)
    K[:M, :M] = T0 - Y @ (Z.T @ T0)
    K[:M, M:] = Y
    K[M:, :M] = (grid.weights[:, None] * R0Y).T
    Kinv, _ = direct_inverse(K, context="S0 bordered solve")
    return Kinv[:M, :M]


def dense_S0(reg):
    """S0 as an M x M array: the bordered solve `reg.S0` on the identity."""
    return reg.S0(np.eye(reg.grid.size))


def series_step(reg, lam):
    """The dense series step -(R0(l^2) X^T - R0(0) X^T)^T, X = S0 Q~0 V,
    built out of place from `dense_S0`."""
    S0 = dense_S0(reg)
    X = (S0 - (S0 @ reg.Y) @ reg.Z.T) * birman._samples(reg.V)
    R, R_0 = (lowenergy.domain_resolvent(reg.grid, l) for l in (lam, 0.0))
    return -(R(X.T) - R_0(X.T)).T


def dense_filtration(V, grid):
    """`jordan.build_filtration` from one dense SVD of T = I + V R0(0).

    Its right null vectors g give the states Psi = R0(0) g.  The filtration
    solves (I + R0(0)V) Psi = R0(0) Phi, whose matrix is T^T: R0(0) is
    exactly symmetric on the uniform-weight grid and V is a multiplier, so
    the factors of T^T are the transposed factors of T.
    """
    R0 = build_R0(grid, 0.0)
    Ut, s, Vht = np.linalg.svd(np.eye(grid.size) + birman.potential_operator(V, R0))
    rank = int(np.sum(s > jordan.RANK_TOL * s[0]))
    G = Vht[rank:].conj().T
    states = [GridFunction(grid, R0 @ G[:, i]) for i in range(G.shape[1])]
    if not states:
        return [], []
    U, Vh = Vht.T, Ut.T  # SVD factors of T^T = I + R0(0)V
    X1 = Vh[rank:].conj().T
    left_null = U[:, rank:]
    # Minimal-norm solver restricted to the numerically regular part.
    Ur, sr, Vr = U[:, :rank], s[:rank], Vh[:rank]

    def solve(rhs):
        return Vr.conj().T @ ((Ur.conj().T @ rhs) / sr[:, None])

    spaces = [X1]
    for _ in range(jordan.MAX_FILTRATION_STEPS):
        Xk = spaces[-1]
        rhs = R0 @ Xk
        # Solvable combinations: R0 Phi must avoid the left null space.
        C = left_null.conj().T @ rhs
        alpha = jordan._null_basis(C, jordan.RANK_TOL, max(np.linalg.norm(rhs, 2), 1e-300))
        particular = solve(rhs @ alpha)
        stacked = np.hstack([Xk, X1, particular])
        Q, sv, _ = np.linalg.svd(stacked, full_matrices=False)
        nxt = Q[:, sv > jordan.RANK_TOL * sv[0]]
        if nxt.shape[1] == Xk.shape[1]:
            return spaces, states
        spaces.append(nxt)
    raise jordan._still_growing(spaces)


def dense_threshold(V, grid):
    """The threshold of V from `dense_filtration`, lifted to the Jordan basis
    by the code of `jordan.threshold`."""
    return jordan._lift(V, grid, *dense_filtration(V, grid))


def log_derivative(d, e2, z, pivmin):
    """p'/p at the points z, for p(z) = det(tridiag(e, d, e) - z) and e2 = e^2,
    by the pivot recurrence over all M nodes: q_k = (d_k - z) - e2_{k-1} /
    q_{k-1}, p'/p = sum q_k'/q_k with q_k' = -1 + (e2_{k-1} / q_{k-1})
    q_{k-1}'/q_{k-1}, and a pivot that is exactly zero replaced by pivmin.
    """
    piv = d[0] - z
    piv[piv == 0] = pivmin
    ratio = -1.0 / piv
    total = ratio.copy()
    for k in range(1, d.size):
        c = e2[k - 1] / piv
        piv = (d[k] - z) - c
        piv[piv == 0] = pivmin
        ratio = (c * ratio - 1.0) / piv
        total += ratio
    return total


def thomas_longdouble(d, e, B):
    """tridiag(e, d, e)^{-1} B in long double, for positive definite bands.

    The Thomas algorithm (elimination without pivoting, stable for positive
    definite bands) on the exact long-double values of the double bands d,
    e and columns B: the same matrix and data as a double solve, with the
    rounding of a 64-bit mantissa (eps 1.1e-19 on x86-64).
    """
    d, e = np.asarray(d, np.longdouble), np.asarray(e, np.longdouble)
    X = np.array(B, np.clongdouble if np.iscomplexobj(B) else np.longdouble)
    ratio = np.empty_like(e)
    piv = d[0]
    X[0] /= piv
    for k in range(1, d.size):
        ratio[k - 1] = e[k - 1] / piv
        piv = d[k] - e[k - 1] * ratio[k - 1]
        X[k] = (X[k] - e[k - 1] * X[k - 1]) / piv
    for k in range(d.size - 2, -1, -1):
        X[k] -= ratio[k] * X[k + 1]
    return X


def out_of_place_transform(samples, lams, delta):
    """rho and the transform of samples (n,) or (n, M) over the lambda axis,
    both in increasing rho, formed out of place: the samples are left as
    they are, and the FFT, the phased product and the rho-sorted rows are
    three new arrays."""
    n = lams.shape[0]
    spectrum = np.fft.fft(samples, axis=0)
    rho = 2.0 * np.pi * np.fft.fftfreq(n, d=delta)
    phase = np.exp(-1j * rho * lams[0])
    out = delta * phase[:, None] * spectrum if samples.ndim == 2 else delta * phase * spectrum
    order = np.argsort(rho)
    return rho[order], out[order]


def free_evolution_radial(grid, f, t):
    """Analytic free evolution on the half line via the image method.

    u(r, t) = integral of [K(r - r') - K(r + r')] u0(r') dr' with the
    complex Gaussian K(x) = (4 pi i t)^{-1/2} e^{i x^2 / 4t}; this is the
    infinite-domain radial s-wave evolution (exact until boundary effects).
    """
    if t == 0:
        return f
    r = grid.nodes
    amp = np.exp(-1j * np.pi / 4 * np.sign(t)) / np.sqrt(4.0 * np.pi * abs(t))
    K = lambda x: amp * np.exp(1j * x**2 / (4.0 * t))
    kernel = K(r[:, None] - r[None, :]) - K(r[:, None] + r[None, :])
    return GridFunction(grid, kernel @ (grid.weights * f.values))


def exact_eigen_profile(s):
    """The closed-form threshold profile psi_s(r) = (1 + r^2)^{-s} of
    `potentials.exact_eigen`."""
    return lambda r: (1.0 + np.asarray(r) ** 2) ** (-s)


def column_lp_norm_3d(lam, mu, pprime, r_max):
    """L^{p'}(R^3) norm of the 3-D difference-kernel column for shift centers.

    The difference kernel is translation invariant, so every column has the
    same norm; it is computed by midpoint radial quadrature on 20000 nodes
    out to r_max.
    """
    n = 20000
    h = r_max / n
    r = (np.arange(n) + 0.5) * h
    vals = np.abs(np.exp(1j * lam * r) - np.exp(1j * mu * r)) / (4.0 * np.pi * r)
    return float(np.sum(4.0 * np.pi * r**2 * vals**pprime * h) ** (1.0 / pprime))


def kernel_difference_check(grid, lambda_list, mu=0.0, p=1.4):
    """Measure L^{p'} norms of R0(lambda^2) - R0(mu^2) and fit the growth rate.

    Returns a dict with the fitted exponent in |lambda - mu|, the predicted
    exponent 1 - 3/p', and a pass flag that is false when the fit falls more
    than 0.15 below the prediction.
    """
    lams = [l for l in lambda_list if l != mu]
    if len(lams) < 4:
        raise ValueError("need at least 4 distinct lambda values to fit")
    pprime = p / (p - 1.0)
    r_max = 40.0 * grid.extent
    norms = np.array([column_lp_norm_3d(l, mu, pprime, r_max) for l in lams])
    gaps = np.abs(np.asarray(lams) - mu)
    slope, intercept = np.polyfit(np.log(gaps), np.log(norms), 1)
    predicted = 1.0 - 3.0 / pprime
    return {
        "fitted_exponent": float(slope),
        "predicted_exponent": float(predicted),
        "ok": bool(slope >= predicted - 0.15),
    }


def dlambda_kernel_check(t):
    """Max relative deviation of |transform of e^{-i t lambda^2} d/dlambda
    free kernel| from (16 pi |t|)^{-1/2} at four (d, rho) points, on 2^14
    lambda samples over [-48, 48], in the convention of `ftdiag._transform`.

    d/dlambda [e^{i lambda d} / (4 pi d)] = i e^{i lambda d} / (4 pi): a pure
    phase family whose t-weighted transform is a complex Gaussian integral
    with constant modulus (16 pi |t|)^{-1/2} independent of (rho, d).
    """
    if t == 0:
        raise ValueError("t must be nonzero")
    lams, delta = ftdiag.lambda_grid(2**14, 48.0)
    target = (16.0 * np.pi * abs(t)) ** -0.5
    worst = 0.0
    for d, rho_want in ((0.5, 0.0), (2.0, 1.0), (5.0, -3.0), (10.0, 8.0)):
        kernel = 1j * np.exp(1j * lams * d) * np.exp(-1j * t * lams**2) / (4.0 * np.pi)
        rho, order = ftdiag._transform(kernel, lams, delta)
        hat = kernel[order]
        idx = int(np.argmin(np.abs(rho - rho_want)))
        worst = max(worst, abs(abs(hat[idx]) - target) / target)
    return float(worst)
