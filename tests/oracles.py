"""Independent oracles used to freeze expected values in the tests.

Everything here recomputes quantities by a route disjoint from the package
code path: quadrature instead of closed-form antiderivatives, fixed-step RK4
instead of exact solutions, dense matrix exponentials instead of nilpotent
shortcuts, the linear generator instead of its exact propagator, and plain
mode loops instead of vectorised norms.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm

from rotcouette import _kernels
from rotcouette.diagnostics import EnergyReport, compute_K_check, compute_Q
from rotcouette.simulation import VelocityField, _waves, frame_symbols
from rotcouette.spectral import (
    GridSpec,
    SpectralField,
    WaveVector,
    hermitian_symmetrize,
    integral_w,
    w_symbol,
)


def quad_integral_w(t: float, kv: WaveVector) -> float:
    """Adaptive quadrature of the shear-frame symbol over [0, t]."""
    val, _ = quad(lambda s: w_symbol(s, kv), 0.0, t, limit=200)
    return val


def quad_phase_angle(t: float, kv: WaveVector) -> float:
    """Adaptive quadrature of the rotation rate |k||k,l|/w over [0, t].

    The rate is strictly positive, so this equals the closed-form angle for
    either sign of k.
    """
    b = kv.kl_magnitude
    crit = kv.eta / kv.k
    pts = [p for p in (crit,) if 0.0 < p < t]
    val, _ = quad(
        lambda s: abs(kv.k) * b / w_symbol(s, kv), 0.0, t, points=pts or None, limit=400
    )
    return val


def rk4_K_batch(K1_0, K2_0, nu, k, eta, l, t_final, rtol_step: float = 0.02):
    """Fixed-step vectorised RK4 of the damped-rotation pair system.

    dK1/ds = a(s) K2 - nu w(s) K1,  dK2/ds = -a(s) K1 - nu w(s) K2,
    a = |k||k,l| / w.  The common step count is set so the stiffest sampled
    mode keeps nu*w*dt below ``rtol_step``.
    """
    K1 = np.asarray(K1_0, dtype=complex).copy()
    K2 = np.asarray(K2_0, dtype=complex).copy()
    k = np.asarray(k, float)
    eta = np.asarray(eta, float)
    l = np.asarray(l, float)
    nu = np.asarray(nu, float)
    t_final = np.asarray(t_final, float)
    b = np.hypot(k, l)

    w_ends = np.maximum(
        k * k + eta * eta + l * l, k * k + (eta - k * t_final) ** 2 + l * l
    )
    # the rotation rate is bounded by 1, so (nu w + 1) dt <= rtol_step controls
    # both the stiff decay and the rotation accuracy
    n = int(np.clip(np.max((nu * w_ends + 1.0) * t_final) / rtol_step, 400, 25000))
    dt = t_final / n

    def deriv(s, K1, K2):
        d = eta - k * s
        w = k * k + d * d + l * l
        a = np.abs(k) * b / w
        damp = nu * w
        return a * K2 - damp * K1, -a * K1 - damp * K2

    s = np.zeros_like(t_final)
    for _ in range(n):
        a1, b1 = deriv(s, K1, K2)
        a2, b2 = deriv(s + 0.5 * dt, K1 + 0.5 * dt * a1, K2 + 0.5 * dt * b1)
        a3, b3 = deriv(s + 0.5 * dt, K1 + 0.5 * dt * a2, K2 + 0.5 * dt * b2)
        a4, b4 = deriv(s + dt, K1 + dt * a3, K2 + dt * b3)
        K1 = K1 + dt / 6.0 * (a1 + 2 * a2 + 2 * a3 + a4)
        K2 = K2 + dt / 6.0 * (b1 + 2 * b2 + 2 * b3 + b4)
        s = s + dt
    return K1, K2


def rk4_M_batch(nu, k, eta, t_final, n: int = 4000):
    """Fixed-step vectorised RK4 of the ghost-weight ODE with M(0) = 1."""
    k = np.asarray(k, float)
    eta = np.asarray(eta, float)
    nu = np.asarray(nu, float)
    t_final = np.asarray(t_final, float)
    third = nu ** (1.0 / 3.0)
    ratio = eta / k
    M = np.ones_like(t_final)
    dt = t_final / n

    def rate(s, M):
        x = third * (s - ratio)
        return -third / (1.0 + x * x) * M

    s = np.zeros_like(t_final)
    for _ in range(n):
        k1 = rate(s, M)
        k2 = rate(s + 0.5 * dt, M + 0.5 * dt * k1)
        k3 = rate(s + 0.5 * dt, M + 0.5 * dt * k2)
        k4 = rate(s + dt, M + dt * k3)
        M = M + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        s = s + dt
    return M


def expm_zero_mode(eta: float, l: int, nu: float, t: float) -> np.ndarray:
    """Dense scaling-and-squaring exponential of the x-averaged generator."""
    rho = eta * eta + l * l
    mat = np.array(
        [
            [-nu * rho, 0.0, 0.0],
            [-(l * l) / rho, -nu * rho, 0.0],
            [eta * l / rho, 0.0, -nu * rho],
        ]
    )
    return expm(mat * t)


def truncate_to_decay(t: float, nu: float, kv: WaveVector, max_exponent: float = 25.0) -> float:
    """Largest time <= t at which nu * integral of w stays below max_exponent."""
    if nu * integral_w(t, kv) <= max_exponent:
        return t
    lo, hi = 0.0, t
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if nu * integral_w(mid, kv) <= max_exponent:
            lo = mid
        else:
            hi = mid
    return lo


def slow_sobolev_norm(f: SpectralField, s: float) -> float:
    """Direct mode loop over the coefficient array."""
    g = f.grid
    total = 0.0
    for ik, k in enumerate(g.k_index):
        for ij, eta in enumerate(g.eta_values):
            for il, l in enumerate(g.l_index):
                c = f.coeffs[ik, ij, il]
                total += (1.0 + k * k + eta * eta + l * l) ** s * (c.real**2 + c.imag**2)
    return math.sqrt(total * g.cell_measure)


def slow_weighted_norm(grid: GridSpec, coeffs: np.ndarray, s: float, weight_fn) -> float:
    """Direct mode loop with an arbitrary per-mode scalar weight."""
    total = 0.0
    for ik, k in enumerate(grid.k_index):
        for ij, eta in enumerate(grid.eta_values):
            for il, l in enumerate(grid.l_index):
                c = coeffs[ik, ij, il]
                wgt = weight_fn(int(k), float(eta), int(l))
                total += (
                    (1.0 + k * k + eta * eta + l * l) ** s
                    * wgt**2
                    * (c.real**2 + c.imag**2)
                )
    return math.sqrt(total * grid.cell_measure)


def physical_l2(f: SpectralField) -> float:
    """Riemann-sum L2 norm of the synthesised samples over the physical box.

    Uses the honest volume element (2 pi / Nx)(Ly / Ny)(2 pi / Nz); the
    package's spectral norm equals this divided by 2 pi sqrt(Ny).
    """
    from rotcouette.spectral import field_to_physical

    vals = field_to_physical(f)
    g = f.grid
    dv = (2.0 * math.pi / g.Nx) * (g.Ly / g.Ny) * (2.0 * math.pi / g.Nz)
    return math.sqrt(float(np.sum(np.abs(vals) ** 2)) * dv)


def random_modes(rng, n, kmax=8, eta_max=50.0, lmax=8, nonzero_k=True):
    """Sample mode labels for the randomized checks."""
    out = []
    while len(out) < n:
        k = int(rng.integers(-kmax, kmax + 1))
        if nonzero_k and k == 0:
            continue
        out.append(WaveVector(k=k, eta=float(rng.uniform(-eta_max, eta_max)), l=int(rng.integers(-lmax, lmax + 1))))
    return out


def wave_numbers(grid: GridSpec):
    """Float (k, eta, l) arrays that broadcast over the coefficient layout."""
    return (
        grid.k_index.astype(np.float64)[:, None, None],
        grid.eta_values[None, :, None],
        grid.l_index.astype(np.float64)[None, None, :],
    )


def convective_nonlinear_rhs(grid: GridSpec, coeffs, t: float, beta: float = 1.0):
    """Convective-form advection -P_L (u . grad_L u) with 15 complex FFTs.

    Each of the nine velocity gradients is synthesised separately on the
    physical grid from 2/3-masked full-spectrum coefficients, the products
    are analysed back, masked, and projected with an inline frame Leray
    projection.  Returns the three coefficient arrays.
    """
    n = grid.n_modes
    mask = grid.dealias_mask
    kk, ee, ll = wave_numbers(grid)
    etal = ee - kk * (beta * t)
    cs = [c * mask for c in coeffs]

    def physical(c):
        return np.real(np.fft.ifftn(c)) * n

    u = [physical(c) for c in cs]
    adv = []
    for c in cs:
        grads = [physical(1j * sym * c) for sym in (kk, etal, ll)]
        a = u[0] * grads[0] + u[1] * grads[1] + u[2] * grads[2]
        adv.append(np.fft.fftn(a) / n * mask)
    w = kk * kk + etal * etal + ll * ll
    w[0, 0, 0] = 1.0
    phi = 1j * (kk * adv[0] + etal * adv[1] + ll * adv[2]) / w
    phi[0, 0, 0] = 0.0
    return [-(a + 1j * sym * phi) for a, sym in zip(adv, (kk, etal, ll))]


def linear_rhs(U: VelocityField, t: float, beta: float = 1.0) -> VelocityField:
    """Non-diffusive linear generator: rotation forcing plus its pressure correction.

    Returns -beta [ (0, U1, 0) + grad_L (-Delta_L)^{-1} (d_X U2 + d_Y^L U1) ],
    whose frame divergence is i beta k U2: keeping div_L u = 0 under
    d/dt (eta - beta k t) = -beta k asks for exactly that.  On x-averaged
    modes this is the nilpotent lift-up generator; with -nu w U added it is
    the generator of ``simulation.propagator``.
    """
    k, etal, l, w = frame_symbols(U.grid, t, beta)
    c = U.coeffs
    f = np.zeros_like(c)
    f[1] = -beta * c[0]
    psi = (1j * (k * f[0] + etal * f[1] + l * f[2]) - 1j * beta * k * c[1]) / w
    psi[0, 0, 0] = 0.0
    f[0] += 1j * k * psi
    f[1] += 1j * etal * psi
    f[2] += 1j * l * psi
    f[:, 0, 0, 0] = 0.0
    return VelocityField(U.grid, f, t)


def random_band_loop(grid: GridSpec, seed: int) -> np.ndarray:
    """The random-band draw as four nested mode loops, before projection.

    One (re, im) pair per mode of the band |k| <= 2, |eta| <= 2, |l| <= 2
    (clipped to the dealiased band), component by component in (k, j, l)
    order, then each component averaged with its conjugate reflection.
    """
    rng = np.random.default_rng(seed)
    cx, cy, cz = grid.dealias_cutoffs
    jmax = min(cy, int(math.floor(2.0 / grid.eta_spacing)))
    c = np.zeros((3,) + grid.shape, dtype=np.complex128)
    for i in range(3):
        for k in range(-min(2, cx), min(2, cx) + 1):
            for j in range(-jmax, jmax + 1):
                for l in range(-min(2, cz), min(2, cz) + 1):
                    if (k, j, l) == (0, 0, 0):
                        continue
                    re, im = rng.standard_normal(2)
                    c[i, k % grid.Nx, j % grid.Ny, l % grid.Nz] = re + 1j * im
        c[i] = hermitian_symmetrize(SpectralField(grid, c[i], 0.0)).coeffs
    return c


def _weighted_norm(grid: GridSpec, coeffs: np.ndarray, weight_sq) -> float:
    power = coeffs.real**2 + coeffs.imag**2
    return float(np.sqrt(np.sum(weight_sq * power) * grid.cell_measure))


def _multiplier_grids(grid: GridSpec, t: float, nu: float, window: float):
    """m over the coefficient layout; M and -Mdot/M, which have no l, as (Nx,Ny,1)."""
    wv = _waves(grid, False)
    m = _kernels.m_values(t, wv.k, wv.eta, wv.l, nu, window)
    M = _kernels.M_values(t, wv.k, wv.eta, wv.l, nu)
    dmm = _kernels.neg_MdotM_values(t, wv.k, wv.eta, wv.l, nu)
    return m, M, dmm


def reference_bootstrap_report(U, t: float, cfg, acc):
    """The weighted energy ledger as thirty masked full-grid norm passes.

    This is the loop structure ``diagnostics.bootstrap_report`` replaced:
    every norm multiplies the whole coefficient grid by its k != 0 or k = 0
    mask and its weights and sums it separately.  Kept unchanged as the
    reference for the one-pass report.

    Combination values (running max plus the viscosity-weighted running
    integrals) are compared against the a-priori bound shapes with the
    configured constants; a raised flag before t = 1 is informational only,
    since the hypotheses are formulated past the local-existence window.
    """
    grid = U.grid
    N = cfg.N
    kk, etal, ll, _ = frame_symbols(grid, t, cfg.beta)
    w = kk * kk + etal * etal + ll * ll
    hsN = grid.sobolev_weights(N)
    hsNm1 = grid.sobolev_weights(N - 1.0)
    m, M, dmm = _multiplier_grids(grid, t, cfg.nu, cfg.mult_window)
    nonzero = kk != 0.0
    zero = ~nonzero

    c1, c2, c3 = U.coeff_arrays()
    Q1, Q2, Q3 = (f.coeffs for f in compute_Q(U, t, cfg.beta))
    K1, K2 = (f.coeffs for f in compute_K_check(U, t, cfg.beta))

    def hn_neq(coeffs, extra=1.0):
        return _weighted_norm(grid, coeffs * nonzero, hsN * extra**2)

    def hn_zero(coeffs, weights, extra=1.0):
        return _weighted_norm(grid, coeffs * zero, weights * extra**2)

    sq_dmm = np.sqrt(dmm)
    sq_w = np.sqrt(w)

    norms: dict[str, float] = {}
    norms["MK1_neq_HN"] = hn_neq(K1, M)
    norms["MK2_neq_HN"] = hn_neq(K2, M)
    norms["mMQ3_neq_HN"] = hn_neq(Q3, m * M)
    norms["Q0_1_HN"] = hn_zero(Q1, hsN)
    norms["Q0_2_HN"] = hn_zero(Q2, hsN)
    norms["Q0_3_HN"] = hn_zero(Q3, hsN)
    norms["U0_1_HNm1"] = hn_zero(c1, hsNm1)
    norms["U0_2_HNm1"] = hn_zero(c2, hsNm1)
    norms["U0_3_HNm1"] = hn_zero(c3, hsNm1)
    norms["U1_neq_HN"] = hn_neq(c1)
    norms["U2_neq_HN"] = hn_neq(c2)
    norms["U3_neq_HN"] = hn_neq(c3)
    norms["U_neq_HN_total"] = math.sqrt(
        norms["U1_neq_HN"] ** 2 + norms["U2_neq_HN"] ** 2 + norms["U3_neq_HN"] ** 2
    )
    norms["U12_neq_L2"] = math.sqrt(
        _weighted_norm(grid, c1 * nonzero, 1.0) ** 2
        + _weighted_norm(grid, c2 * nonzero, 1.0) ** 2
    )
    norms["dMM_K1_HN"] = hn_neq(K1, sq_dmm)
    norms["dMM_K2_HN"] = hn_neq(K2, sq_dmm)
    norms["dMM_mQ3_HN"] = hn_neq(Q3, sq_dmm * m)
    norms["gradL_MK1_HN"] = hn_neq(K1, M * sq_w)
    norms["gradL_MK2_HN"] = hn_neq(K2, M * sq_w)
    norms["gradL_mMQ3_HN"] = hn_neq(Q3, m * M * sq_w)
    norms["grad_Q0_1_HN"] = hn_zero(Q1, hsN, sq_w)
    norms["grad_Q0_2_HN"] = hn_zero(Q2, hsN, sq_w)
    norms["grad_Q0_3_HN"] = hn_zero(Q3, hsN, sq_w)
    norms["grad_U0_1_HNm1"] = hn_zero(c1, hsNm1, sq_w)
    norms["grad_U0_2_HNm1"] = hn_zero(c2, hsNm1, sq_w)
    norms["grad_U0_3_HNm1"] = hn_zero(c3, hsNm1, sq_w)
    norms["Kcheck_neq_HN"] = math.sqrt(hn_neq(K1) ** 2 + hn_neq(K2) ** 2)
    norms["mQ3_neq_HN"] = hn_neq(Q3, m)
    norms["gradL_U12_neq_HN"] = math.sqrt(
        hn_neq(c1, sq_w) ** 2 + hn_neq(c2, sq_w) ** 2
    )

    div = kk * c1 + etal * c2 + ll * c3
    norms["div_defect"] = float(np.max(np.abs(div)))

    integrands = {
        "int_dMM_K1_HN": norms["dMM_K1_HN"],
        "int_dMM_K2_HN": norms["dMM_K2_HN"],
        "int_dMM_mQ3_HN": norms["dMM_mQ3_HN"],
        "int_gradL_MK1_HN": norms["gradL_MK1_HN"],
        "int_gradL_MK2_HN": norms["gradL_MK2_HN"],
        "int_gradL_mMQ3_HN": norms["gradL_mMQ3_HN"],
        "int_grad_Q0_1_HN": norms["grad_Q0_1_HN"],
        "int_grad_Q0_2_HN": norms["grad_Q0_2_HN"],
        "int_grad_Q0_3_HN": norms["grad_Q0_3_HN"],
        "int_grad_U0_1_HNm1": norms["grad_U0_1_HNm1"],
        "int_grad_U0_2_HNm1": norms["grad_U0_2_HNm1"],
        "int_grad_U0_3_HNm1": norms["grad_U0_3_HNm1"],
        "int_U0_2_HNm1": norms["U0_2_HNm1"],
        "int_Kcheck_neq_HN": norms["Kcheck_neq_HN"],
        "int_mQ3_neq_HN": norms["mQ3_neq_HN"],
        "int_gradL_U12_neq_HN": norms["gradL_U12_neq_HN"],
    }
    totals = acc.update(t, integrands)
    norms.update(totals)
    acc.note_max(
        {
            name: norms[name]
            for name in (
                "MK1_neq_HN",
                "MK2_neq_HN",
                "mMQ3_neq_HN",
                "Q0_1_HN",
                "Q0_2_HN",
                "Q0_3_HN",
                "U0_1_HNm1",
                "U0_2_HNm1",
                "U0_3_HNm1",
            )
        }
    )

    eps = cfg.eps
    nu = cfg.nu
    rnu = math.sqrt(nu)
    mx = acc.maxima

    def combo(max_name, *integral_names, extra=0.0):
        return mx[max_name] + sum(rnu * norms[n] for n in integral_names) + extra

    flags = {
        "flag_K1": combo("MK1_neq_HN", "int_gradL_MK1_HN") + norms["int_dMM_K1_HN"]
        > 8.0 * eps,
        "flag_K2": combo("MK2_neq_HN", "int_gradL_MK2_HN") + norms["int_dMM_K2_HN"]
        > 8.0 * eps,
        "flag_Q3": combo("mMQ3_neq_HN", "int_gradL_mMQ3_HN") + norms["int_dMM_mQ3_HN"]
        > 8.0 * cfg.C0 * eps * nu ** (-1.0 / 3.0),
        "flag_Q0_1": combo("Q0_1_HN", "int_grad_Q0_1_HN") > 8.0 * eps,
        "flag_Q0_2": combo("Q0_2_HN", "int_grad_Q0_2_HN") > 8.0 * cfg.C1 * eps / nu,
        "flag_Q0_3": combo("Q0_3_HN", "int_grad_Q0_3_HN") > 8.0 * cfg.C0 * eps / nu,
        "flag_U0_1": combo("U0_1_HNm1", "int_grad_U0_1_HNm1") > 8.0 * eps,
        "flag_U0_2": combo("U0_2_HNm1", "int_grad_U0_2_HNm1", "int_U0_2_HNm1")
        > 8.0 * cfg.C1 * eps / nu,
        "flag_U0_3": combo("U0_3_HNm1", "int_grad_U0_3_HNm1") > 8.0 * cfg.C0 * eps / nu,
    }
    return EnergyReport(t=t, norms=norms, flags=flags)
