"""Independent oracles used to freeze expected values in the tests.

Everything here recomputes quantities by a route disjoint from the package
code path: quadrature instead of closed-form antiderivatives, fixed-step RK4
instead of exact solutions, dense matrix exponentials instead of nilpotent
shortcuts, the linear generator instead of its exact propagator, plain
mode loops instead of vectorised norms, one ``repr`` per CSV field
instead of deduplicated string tables, the half-spectrum stepper with
dealias masks instead of the one on the retained box, and the initial
condition and Sobolev norms on the full layout instead of the box, the
per-component curl, cross product, projection and propagator rows
instead of the stacked ones (``rotational_nonlinear_rhs``), and the
weights m, M and -Mdot M as one expression per time (``m_values``,
``M_values``, ``neg_MdotM_values``) instead of per-run constants.
``full_step`` is no oracle: it runs the package's box stepper on a
full-layout field.

The last section holds the helpers that only the tests call: a single
run that raises what ended it, its snapshots as fields, physical
synthesis, Hermitian symmetrisation, the band-edge monitor on a full
field, the Laplacian unknowns, the enhanced-dissipation envelope check
and the scans of the two spectral weights over sample sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm

from rotcouette.diagnostics import EnergyReport, compute_K_check
from rotcouette.linear import ModeStateK, _require_nonzero_k, evolve_K_closed
from rotcouette.multipliers import WINDOW, M_closed, M_log_derivative, m_exact
from rotcouette.simulation import (
    BlowUpError,
    VelocityField,
    _box,
    _full,
    _propagator_coeffs,
    _to_box,
    _to_grid,
    _waves,
    frame_symbols,
    leray_project_L,
    run,
    step,
)
from rotcouette.spectral import (
    GridSpec,
    SpectralField,
    WaveVector,
    _conjugate_flip,
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


def sobolev_weights(grid: GridSpec, s: float) -> np.ndarray:
    """(1 + k^2 + eta^2 + l^2)^s over the full coefficient layout."""
    k = grid.k_index.astype(np.float64)[:, None, None]
    eta = grid.eta_values[None, :, None]
    l = grid.l_index.astype(np.float64)[None, None, :]
    return (1.0 + k * k + eta * eta + l * l) ** s


def sobolev_norm(f: SpectralField, s: float) -> float:
    """Weighted-l2 Sobolev norm sqrt(sum (1+k^2+eta^2+l^2)^s |C|^2 * cell).

    The uniform cell weight Ly/Ny makes this a Riemann-sum surrogate for the
    continuum eta-integral; it differs from the physical-space L2 integral by
    a fixed grid constant, so all ratio- and envelope-type comparisons are
    unaffected.  s = 0 is the (surrogate) L2 norm.
    """
    if s < 0:
        raise ValueError(f"sobolev_norm requires s >= 0, got {s}")
    weights = sobolev_weights(f.grid, s) if s != 0 else 1.0
    total = np.sum(weights * (f.coeffs.real**2 + f.coeffs.imag**2))
    return float(np.sqrt(total * f.grid.cell_measure))


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


def convective_nonlinear_rhs(grid: GridSpec, coeffs, t: float):
    """Convective-form advection -P_L (u . grad_L u) with 15 complex FFTs.

    Each of the nine velocity gradients is synthesised separately on the
    physical grid from 2/3-masked full-spectrum coefficients, the products
    are analysed back, masked, and projected with an inline frame Leray
    projection.  Returns the three coefficient arrays.
    """
    n = grid.n_modes
    mask = grid.dealias_mask
    kk, ee, ll = wave_numbers(grid)
    etal = ee - kk * t
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


def linear_rhs(U: VelocityField, t: float) -> VelocityField:
    """Non-diffusive linear generator: rotation forcing plus its pressure correction.

    Returns -[ (0, U1, 0) + grad_L (-Delta_L)^{-1} (d_X U2 + d_Y^L U1) ],
    whose frame divergence is i k U2: keeping div_L u = 0 under
    d/dt (eta - k t) = -k asks for exactly that.  On x-averaged
    modes this is the nilpotent lift-up generator; with -nu w U added it is
    the generator of ``simulation.propagator``.
    """
    k, etal, l, w = frame_symbols(U.grid, t)
    c = U.coeffs
    f = np.zeros_like(c)
    f[1] = -c[0]
    psi = (1j * (k * f[0] + etal * f[1] + l * f[2]) - 1j * k * c[1]) / w
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


def full_initial_condition(cfg, normalise: bool = True) -> VelocityField:
    """The configured initial state built, projected and normalised on the full layout.

    The construction ``simulation._initial_box`` replaced, kept as its
    reference: the random band of ``random_band_loop``, or the single mode
    and its conjugate reflection, projected with the full-layout symbols and
    (unless ``normalise`` is false) scaled by the H^sigma norm of
    ``sobolev_norm``; a file is read and checked.
    """
    from rotcouette.reporting import read_snapshot_csv

    grid = cfg.grid
    if cfg.ic_kind == "file":
        U = read_snapshot_csv(cfg.ic_file)
        if U.grid != grid:
            raise ValueError("snapshot grid does not match the configured grid")
        if np.any(U.coeffs[:, ~grid.dealias_mask]):
            raise ValueError("snapshot holds modes outside the dealiased band")
        mirror = U.coeffs.reshape(3, -1)[:, _waves(grid, True).mirror]
        if not np.array_equal(mirror, np.conjugate(_box(U)[..., 1:])):
            raise ValueError("snapshot is not a real field")
        return U

    if cfg.ic_kind == "random_band":
        c = random_band_loop(grid, cfg.seed)
    else:
        c = np.zeros((3,) + grid.shape, dtype=np.complex128)
        k0, j0, l0 = cfg.ic_mode
        idx = (k0 % grid.Nx, j0 % grid.Ny, l0 % grid.Nz)
        amp = (cfg.eps, 0.0, 0.0) if k0 == 0 else (cfg.eps / math.sqrt(3.0),) * 3
        mirror = tuple(-i % n for i, n in zip(idx, grid.shape))
        for a, ci in zip(amp, c):
            ci[idx] += a
            ci[mirror] += a
    c = leray_project_L(c, frame_symbols(grid, 0.0))
    c[:, 0, 0, 0] = 0.0
    U = VelocityField(grid, c, 0.0)
    if cfg.ic_kind == "random_band" and normalise:
        total = math.sqrt(sum(sobolev_norm(f, cfg.sigma) ** 2 for f in U.components()))
        c *= (cfg.eps / total) if total > 0 else 0.0
    return U


def row_by_row_snapshot_csv(path, U: VelocityField, nu: float) -> Path:
    """The snapshot CSV formatted one ``repr`` per field, row by row."""
    path = Path(path)
    grid = U.grid
    mask = grid.dealias_mask
    ik, ij, il = np.nonzero(mask)
    columns = [grid.k_index[ik].tolist(), grid.j_index[ij].tolist(), grid.l_index[il].tolist(),
               grid.eta_values[ij].tolist()]
    for kept in U.coeffs[:, mask]:
        columns += [kept.real.tolist(), kept.imag.tolist()]
    lines = [
        f"# grid {grid.Nx} {grid.Ny} {grid.Nz}",
        f"# ly {float(grid.Ly)!r}",
        f"# nu {float(nu)!r}",
        f"# time {float(U.time)!r}",
        "k,j,l,eta,u1_re,u1_im,u2_re,u2_im,u3_re,u3_im",
    ]
    for k, j, l, *values in zip(*columns):
        lines.append(",".join([str(k), str(j), str(l)] + [repr(v) for v in values]))
    path.write_text("\n".join(lines) + "\n")
    return path


def _ratio(k, eta):
    """eta/k where k != 0 (0 elsewhere), with the k != 0 mask."""
    nonzero = k != 0
    return nonzero, np.where(nonzero, eta / np.where(nonzero, k, 1.0), 0.0)


def m_values(t, k, eta, l, nu):
    """The stretching weight m over broadcast mode arrays, in one expression per time.

    The reference for ``_kernels.weights``, which splits it into constants
    and a per-time evaluation.
    """
    lw = WINDOW * nu ** (-1.0 / 3.0)
    nonzero, ratio = _ratio(k, eta)
    wt = k * k + (eta - k * t) ** 2 + l * l
    w_end = k * k + (WINDOW * k) ** 2 * nu ** (-2.0 / 3.0) + l * l
    w0 = k * k + eta * eta + l * l
    kl2 = k * k + l * l
    tend = ratio + lw

    neg = nonzero & (ratio > -lw) & (ratio < 0.0)
    pos = nonzero & (ratio >= 0.0)
    safe_wt = np.where(wt > 0.0, wt, 1.0)
    safe_end = np.where(w_end > 0.0, w_end, 1.0)
    out = np.where(neg, np.where(t < tend, w0 / safe_wt, w0 / safe_end), 1.0)
    return np.where(
        pos,
        np.where(t < ratio, 1.0, np.where(t < tend, kl2 / safe_wt, kl2 / safe_end)),
        out,
    )


def _M(t, nonzero, ratio, third):
    expo = -(np.arctan(third * (t - ratio)) + np.arctan(third * ratio))
    return np.where(nonzero, np.exp(expo), 1.0)


def M_values(t, k, eta, l, nu):
    """The ghost weight M over broadcast mode arrays; the reference for ``_kernels.weights``."""
    nonzero, ratio = _ratio(k, eta)
    return _M(t, nonzero, ratio, nu ** (1.0 / 3.0))


def neg_MdotM_values(t, k, eta, l, nu):
    """-Mdot M over broadcast mode arrays; the reference for ``_kernels.weights``."""
    nonzero, ratio = _ratio(k, eta)
    third = nu ** (1.0 / 3.0)
    M = _M(t, nonzero, ratio, third)
    x = third * (t - ratio)
    return np.where(nonzero, M * M * third / (1.0 + x * x), 0.0)


def _weighted_norm(grid: GridSpec, coeffs: np.ndarray, weight_sq) -> float:
    power = coeffs.real**2 + coeffs.imag**2
    return float(np.sqrt(np.sum(weight_sq * power) * grid.cell_measure))


def _multiplier_grids(grid: GridSpec, t: float, nu: float):
    """m over the coefficient layout; M and -Mdot M, which have no l, as (Nx,Ny,1)."""
    wv = _waves(grid, False)
    m = m_values(t, wv.k, wv.eta, wv.l, nu)
    M = M_values(t, wv.k, wv.eta, wv.l, nu)
    dmm = neg_MdotM_values(t, wv.k, wv.eta, wv.l, nu)
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
    kk, etal, ll, _ = frame_symbols(grid, t)
    w = kk * kk + etal * etal + ll * ll
    hsN = sobolev_weights(grid, N)
    hsNm1 = sobolev_weights(grid, N - 1.0)
    m, M, dmm = _multiplier_grids(grid, t, cfg.nu)
    nonzero = kk != 0.0
    zero = ~nonzero

    c1, c2, c3 = U.coeff_arrays()
    Q1, Q2, Q3 = (f.coeffs for f in compute_Q(U, t))
    K1, K2 = (f.coeffs for f in compute_K_check(U, t))

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


def _half_symbols(grid: GridSpec, t: float):
    """(K, ETA_L, L, w) on the (Nx, Ny, Nz//2 + 1) half-spectrum layout."""
    nl = grid.Nz // 2 + 1
    k = grid.k_index.astype(np.float64)[:, None, None]
    l = grid.l_index[:nl].astype(np.float64)[None, None, :]
    etal = grid.eta_values[None, :, None] - k * t
    w = k * k + etal * etal + l * l
    w[0, 0, 0] = 1.0
    return k, etal, l, w


def psi_project_L(f, sym):
    """The Leray projection as f + grad_L psi with psi = i (d . f) / |d|^2, per component."""
    k, etal, l, w = sym
    psi = 1j * (k * f[0] + etal * f[1] + l * f[2]) / w
    psi[0, 0, 0] = 0.0
    f[0] += 1j * k * psi
    f[1] += 1j * etal * psi
    f[2] += 1j * l * psi
    return f


def _half_advection(u, sym, grid: GridSpec, t: float):
    """mask * (u x curl_L u) with the whole half spectrum through both real FFTs."""
    k, etal, l, _ = sym
    mask = np.ascontiguousarray(grid.dealias_mask[:, :, : u.shape[-1]])
    c = np.empty((6,) + u.shape[1:], dtype=np.complex128)
    np.multiply(u, mask, out=c[:3])
    u1, u2, u3 = c[:3]
    c[3] = 1j * (etal * u3 - l * u2)
    c[4] = 1j * (l * u1 - k * u3)
    c[5] = 1j * (k * u2 - etal * u1)
    v1, v2, v3, o1, o2, o3 = np.fft.irfftn(c, s=grid.shape, axes=(1, 2, 3))
    prod = np.empty((3,) + grid.shape)
    np.subtract(v2 * o3, v3 * o2, out=prod[0])
    np.subtract(v3 * o1, v1 * o3, out=prod[1])
    np.subtract(v1 * o2, v2 * o1, out=prod[2])
    a = np.fft.rfftn(prod, axes=(1, 2, 3))
    a *= mask * float(grid.n_modes)
    if not np.isfinite(a).all():
        raise BlowUpError("non-finite values in the advection term", time=t)
    return a


def _half_propagator(grid: GridSpec, t0: float, t1: float, nu: float):
    k, e0, l, _ = _half_symbols(grid, t0)
    e1 = _half_symbols(grid, t1)[1]
    kl2 = k * k + l * l
    e01 = e0 * e1
    q = t1 - t0
    decay = np.exp((-nu * (t1 - t0)) * (kl2 + (e0 * e0 + e01 + e1 * e1) / 3.0))
    w1 = kl2 + e1 * e1
    w1[0, 0, 0] = 1.0
    dw = decay / w1
    diag = dw * (kl2 + e01)
    qdw = q * dw
    c12 = qdw * (k * k)
    c21 = qdw * kl2
    qldw = qdw * l
    return two_multiply_apply((diag, c12, c21, decay, qldw * e1, qldw * k))


def two_multiply_apply(coeffs):
    """The propagator map of coefficients (diag, c12, c21, decay, c31, c32), one row at a time."""
    diag, c12, c21, decay, c31, c32 = coeffs

    def apply(u):
        out = np.empty_like(u)
        np.multiply(diag, u[0], out=out[0])
        out[0] += c12 * u[1]
        np.multiply(diag, u[1], out=out[1])
        out[1] -= c21 * u[0]
        np.multiply(decay, u[2], out=out[2])
        out[2] += c31 * u[0]
        out[2] += c32 * u[1]
        return out

    return apply


def rotational_nonlinear_rhs(u, sym, grid: GridSpec, t: float):
    """``nonlinear_rhs`` one component at a time: the curl, the cross product and ``psi_project_L``.

    The same transforms as the package, with the six fields in its order
    (u2, u3, u1, w3, w1, w2): a BLAS product may round a column by its
    position in the matrix, so the fields must sit where the package puts
    them.  Its stacked operators must then match this bit for bit.
    """
    k, etal, l, _ = sym
    u1, u2, u3 = u
    c = np.empty((6,) + u.shape[1:], dtype=np.complex128)
    c[:3] = u2, u3, u1
    np.multiply(1j, k * u2 - etal * u1, out=c[3])
    np.multiply(1j, etal * u3 - l * u2, out=c[4])
    np.multiply(1j, l * u1 - k * u3, out=c[5])
    v2, v3, v1, o3, o1, o2 = _to_grid(c, grid)
    prod = np.empty((3,) + grid.shape)
    np.subtract(v2 * o3, v3 * o2, out=prod[0])
    np.subtract(v3 * o1, v1 * o3, out=prod[1])
    np.subtract(v1 * o2, v2 * o1, out=prod[2])
    a = _to_box(prod, grid)
    if not np.isfinite(a).all():
        raise BlowUpError("non-finite values in the advection term", time=t)
    return psi_project_L(a, sym)


def rotational_propagator(grid: GridSpec, t0: float, t1: float, nu: float):
    """``propagator`` with ``two_multiply_apply``."""
    return two_multiply_apply(_propagator_coeffs(grid, t0, t1, nu))


def full_step(U: VelocityField, t: float, dt: float, cfg) -> VelocityField:
    """``simulation.step`` on a full-layout field: its box stepped, then expanded."""
    return _full(cfg.grid, step(_box(U), t, dt, cfg), t + dt)


def half_spectrum_step(U: VelocityField, t: float, dt: float, cfg) -> VelocityField:
    """One Lawson-RK4 step with the whole (3, Nx, Ny, Nz//2 + 1) half spectrum as state.

    Every spectral operation runs on the half spectrum and the result is
    multiplied by the 2/3 dealias mask; the full layout is rebuilt by
    conjugate reflection of the half spectrum.  No blow-up cap.
    """
    grid = U.grid
    nu = cfg.nu
    tm, t1 = t + 0.5 * dt, t + dt
    nh = grid.Nz // 2 + 1
    u0 = np.ascontiguousarray(U.coeffs[..., :nh])
    sym1 = _half_symbols(grid, t1)
    if not cfg.nonlinear_enabled:
        new = _half_propagator(grid, t, t1, nu)(u0)
    else:
        ph = _half_propagator(grid, t, tm, nu)
        ph2 = _half_propagator(grid, tm, t1, nu)
        symm = _half_symbols(grid, tm)

        def rhs(u, sym, s):
            return psi_project_L(_half_advection(u, sym, grid, s), sym)

        k1 = rhs(u0, _half_symbols(grid, t), t)
        pu, pk = ph(u0), ph(k1)
        k2 = rhs(pu + 0.5 * dt * pk, symm, tm)
        k3 = rhs(pu + 0.5 * dt * k2, symm, tm)
        k4 = rhs(ph2(pu + dt * k3), sym1, t1)
        new = ph2(pu + dt / 6.0 * (pk + 2.0 * (k2 + k3)))
        new += dt / 6.0 * k4
    new = psi_project_L(new, sym1)
    new *= grid.dealias_mask[:, :, :nh]
    new[:, 0, 0, 0] = 0.0

    full = np.empty((3,) + grid.shape, dtype=np.complex128)
    full[..., :nh] = new
    rx = (-np.arange(grid.Nx)) % grid.Nx
    ry = (-np.arange(grid.Ny)) % grid.Ny
    np.conjugate(new[..., grid.Nz - nh : 0 : -1][:, rx][:, :, ry], out=full[..., nh:])
    return VelocityField(grid, full, t1)


# ---------------------------------------------------------------------------
# helpers that only the tests call


def run_one(cfg):
    """``run`` of one configuration, raising what ended an ``error`` run as ``simulate`` does."""
    (result,) = run([cfg])
    if result.error is not None:
        raise result.error
    return result


def snapshot_fields(res) -> list[tuple[float, VelocityField]]:
    """The snapshots of a run as fields: each kept box expanded at its time tag, as ``simulate`` writes it."""
    return [(t, _full(res.cfg.grid, b, t)) for t, b in res.snapshots]


def field_to_physical(f: SpectralField) -> np.ndarray:
    """Synthesise physical samples: sum of C * exp(i(kx + eta y + lz)) on the grid."""
    return np.fft.ifftn(f.coeffs) * f.grid.n_modes


def hermitian_symmetrize(f: SpectralField) -> SpectralField:
    """Average the field with its conjugate reflection (exact real-field part)."""
    sym = 0.5 * (f.coeffs + _conjugate_flip(f.grid, f.coeffs))
    return SpectralField(f.grid, sym, f.time)


def high_eta_energy_fraction(f: SpectralField, frac: float = 0.9, j_limit: int | None = None) -> float:
    """Fraction of |C|^2 carried by |j| >= frac * j_limit; resolution monitor.

    ``j_limit`` defaults to the Nyquist index Ny/2; pass the dealias cutoff to
    monitor the live band edge of a dealiased computation.  The reference for
    ``simulation._band_edge_fraction``, which reads the retained box.
    """
    power = f.coeffs.real**2 + f.coeffs.imag**2
    total = float(np.sum(power))
    if total == 0.0:
        return 0.0
    jcut = frac * (f.grid.Ny // 2 if j_limit is None else j_limit)
    mask = np.abs(f.grid.j_index) >= jcut
    return float(np.sum(power[:, mask, :])) / total


def compute_Q(U: VelocityField, t: float | None = None):
    """Laplacian unknowns: Q_i = -w(t) * U_i per mode."""
    if t is None:
        t = U.time
    w = frame_symbols(U.grid, t)[3].copy()  # the symbols are read-only
    w[0, 0, 0] = 0.0  # excluded mean mode
    return tuple(SpectralField(U.grid, -w * c, t) for c in U.coeffs)


def enhanced_dissipation_check(
    state0: ModeStateK, t: float, nu: float, kv: WaveVector, slack: float = 1e-12
) -> bool:
    """True iff |K(t)|^2 <= e^{-(nu/6) k^2 t^3} |K(0)|^2 + slack.

    Holds for every closed-form trajectory because the dissipation integral
    dominates k^2 t^3 / 12.
    """
    _require_nonzero_k(kv, "enhanced_dissipation_check")
    evolved = evolve_K_closed(state0, t, nu, kv)
    envelope = math.exp(-(nu / 6.0) * kv.k * kv.k * t**3) * state0.magnitude**2
    return evolved.magnitude**2 <= envelope + slack


def neg_MdotM(t: float, kv: WaveVector, nu: float) -> float:
    """-dM/dt * M >= 0, the density of the ghost-weight dissipation."""
    M = M_closed(t, kv, nu)
    return -M_log_derivative(t, kv, nu) * M * M


@dataclass(frozen=True)
class MBoundsReport:
    """Scan results for the stretching weight over a sample set."""

    n_samples: int
    m_max: float
    c1: float  # smallest observed m / nu^{2/3}
    c2: float  # smallest observed m * w / (k^2 + l^2)
    upper_bound_ok: bool

    @property
    def ok(self) -> bool:
        return self.upper_bound_ok and self.c1 > 0.0 and self.c2 > 0.0


def check_m_bounds(samples: Sequence[tuple[float, WaveVector]], nu: float) -> MBoundsReport:
    """Verify m <= 1 and report the sharpest admissible lower-bound constants.

    c1 is the largest constant with m >= c1 * nu^{2/3} on the samples, c2 the
    largest with m >= c2 * (k^2 + l^2) / w (modes with k = l = 0 are skipped
    in the c2 scan since both sides vanish).
    """
    m_max = 0.0
    c1 = math.inf
    c2 = math.inf
    nu23 = nu ** (2.0 / 3.0)
    for t, kv in samples:
        m = m_exact(t, kv, nu)
        m_max = max(m_max, m)
        c1 = min(c1, m / nu23)
        kl2 = kv.k * kv.k + kv.l * kv.l
        if kl2 > 0:
            c2 = min(c2, m * w_symbol(t, kv) / kl2)
    return MBoundsReport(
        n_samples=len(samples),
        m_max=m_max,
        c1=c1,
        c2=c2,
        upper_bound_ok=m_max <= 1.0 + 1e-12,
    )


@dataclass(frozen=True)
class MCoercivityReport:
    """Scan results for the ghost weight over a sample set."""

    n_samples: int
    M_min: float
    M_max: float
    coercivity_inf: float  # inf of nu^{-1/6} sqrt(-Mdot M) + nu^{1/3} |k, eta-kt, l| over k != 0

    @property
    def bounds_ok(self) -> bool:
        return math.exp(-math.pi) <= self.M_min and self.M_max <= 1.0 + 1e-12


def check_M_bounds_and_coercivity(
    samples: Iterable[tuple[float, WaveVector]], nu: float
) -> MCoercivityReport:
    """Verify e^{-pi} <= M <= 1 and report the observed coercivity infimum.

    The coercivity quantity nu^{-1/6} sqrt(-Mdot M) + nu^{1/3} |k, eta-kt, l|
    is scanned over the k != 0 samples only; its positive lower bound is what
    converts ghost-weight dissipation into an integrated-decay estimate.
    """
    M_min = math.inf
    M_max = 0.0
    inf = math.inf
    n = 0
    for t, kv in samples:
        n += 1
        M = M_closed(t, kv, nu)
        M_min = min(M_min, M)
        M_max = max(M_max, M)
        if kv.k != 0:
            value = nu ** (-1.0 / 6.0) * math.sqrt(neg_MdotM(t, kv, nu)) + nu ** (
                1.0 / 3.0
            ) * math.sqrt(w_symbol(t, kv))
            inf = min(inf, value)
    return MCoercivityReport(n_samples=n, M_min=M_min, M_max=M_max, coercivity_inf=inf)
