"""Pseudospectral integration of the perturbation system in the shear frame.

The state is a divergence-free (with respect to the frame gradient) triple of
spectral velocity components, held as one (3, Nx, Ny, Nz) coefficient array.
The whole linearised system (frame Laplacian, rotation and the pressure that
keeps the velocity divergence free) is solved exactly mode by mode: the
``propagator`` is the closed-form damped rotation of the paper's good
unknowns, written out as a rational 3x3 map per mode, and the x-averaged
modes follow the nilpotent lift-up as its k = 0 case.  Time stepping is
Lawson's integrating-factor Runge-Kutta method with that operator, so only
the projected advection goes through the explicit stages; a linearised run
is exact at any step size.  Inside a step the state is one half-spectrum
array (the l >= 0 planes of a real field); the full-spectrum
``VelocityField`` is built only on return.  The quadratic term
is evaluated in rotational form on the physical grid with a sharp symmetric
dealiasing mask and re-projected, which keeps the discrete advection
energy-neutral.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .spectral import (
    GridSpec,
    SpectralField,
    _conjugate_flip,
    high_eta_energy_fraction,
    resolve_eta_index,
)

__all__ = [
    "BlowUpError",
    "SimConfig",
    "VelocityField",
    "RunResult",
    "leray_project_L",
    "nonlinear_rhs",
    "propagator",
    "step",
    "run",
    "initial_condition",
    "divergence_defect",
    "advective_rate_bound",
]

logger = logging.getLogger(__name__)


class BlowUpError(RuntimeError):
    """Numerical blow-up: non-finite coefficients or norm past the cap."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


@dataclass
class VelocityField:
    """The three spectral velocity components as one (3, Nx, Ny, Nz) array at one frame time."""

    grid: GridSpec
    coeffs: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        if self.coeffs.shape != (3,) + self.grid.shape:
            raise ValueError(
                f"velocity shape {self.coeffs.shape} does not match 3 x grid {self.grid.shape}"
            )

    def components(self) -> tuple[SpectralField, SpectralField, SpectralField]:
        """Views of the three components as spectral fields."""
        return tuple(SpectralField(self.grid, c, self.time) for c in self.coeffs)

    def coeff_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views of the three component arrays."""
        return tuple(self.coeffs)

    def copy(self) -> "VelocityField":
        return VelocityField(self.grid, self.coeffs.copy(), self.time)


@dataclass(frozen=True)
class SimConfig:
    """Run parameters for the nonlinear (or linearised) integrator."""

    nu: float
    grid: GridSpec
    dt: float | None = None  # None: min(0.01, 0.5 / advective rate of the IC)
    t_end: float = 10.0
    eps: float = 1e-6
    beta: float = 1.0
    seed: int = 0
    ic_kind: str = "single_mode"  # single_mode | random_band | file
    ic_mode: tuple[int, int, int] = (1, 0, 1)  # (k, j, l) with eta = 2 pi j / Ly
    ic_file: str | None = None
    sigma: float = 5.0
    nonlinear_enabled: bool = True
    rk_stages: int = 4  # 4 (classical) or 2 (midpoint)
    diag_every: int = 10
    snapshot_every: int = 0
    blowup_cap: float = 1e6
    C0: float = 100.0
    C1: float = 10.0
    mult_window: float = 1000.0

    def __post_init__(self) -> None:
        if not (0.0 < self.nu < 1.0):
            raise ValueError(f"nu must lie in (0, 1), got {self.nu}")
        if self.dt is not None and self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end < 0:
            raise ValueError(f"t_end must be nonnegative, got {self.t_end}")
        if self.eps < 0:
            raise ValueError(f"eps must be nonnegative, got {self.eps}")
        if self.sigma <= 4.5:
            raise ValueError(f"sigma must exceed 9/2 for the weighted diagnostics, got {self.sigma}")
        if self.rk_stages not in (2, 4):
            raise ValueError(f"rk_stages must be 2 or 4, got {self.rk_stages}")
        if self.ic_kind not in ("single_mode", "random_band", "file"):
            raise ValueError(f"unknown ic_kind {self.ic_kind!r}")
        if self.diag_every < 1:
            raise ValueError("diag_every must be at least 1")

    @property
    def N(self) -> float:
        """Sobolev index of the weighted diagnostics (two below the data index)."""
        return self.sigma - 2.0


# ---------------------------------------------------------------------------
# frame symbols


@dataclass(frozen=True, eq=False)
class _Waves:
    """Time-independent pieces of the frame symbols on one storage layout."""

    k: np.ndarray  # (Nx, 1, 1)
    eta: np.ndarray  # (1, Ny, 1)
    l: np.ndarray  # (1, 1, nl)
    k2: np.ndarray
    l2: np.ndarray
    kl2: np.ndarray  # k^2 + l^2, (Nx, 1, nl)
    mask: np.ndarray  # dealias mask, (Nx, Ny, nl)
    amp_mask: np.ndarray  # dealias mask times the mode count


@lru_cache(maxsize=16)
def _waves(grid: GridSpec, half: bool) -> _Waves:
    """Built once per grid and layout; the symbol arrays are read-only."""
    nl = grid.Nz // 2 + 1 if half else grid.Nz
    k = grid.k_index.astype(np.float64)[:, None, None]
    eta = grid.eta_values[None, :, None]
    l = grid.l_index[:nl].astype(np.float64)[None, None, :]
    mask = np.ascontiguousarray(grid.dealias_mask[:, :, :nl])
    for a in (k, eta, l):
        a.flags.writeable = False
    return _Waves(k, eta, l, k * k, l * l, k * k + l * l, mask, mask * float(grid.n_modes))


def frame_symbols(grid: GridSpec, t: float, beta: float = 1.0, half: bool = False):
    """(K, ETA_L, L, w) at frame time t with unit-safe w at the mean mode.

    The symbols broadcast as (Nx,1,1), (Nx,Ny,1), (1,1,nl) and (Nx,Ny,nl),
    where nl is Nz for the full coefficient layout and Nz//2 + 1 for the
    half-spectrum (``half=True``) layout of the stepper's state.
    """
    wv = _waves(grid, half)
    etal = wv.eta - wv.k * (beta * t)
    w = wv.k2 + etal * etal + wv.l2
    w[0, 0, 0] = 1.0
    return wv.k, etal, wv.l, w


# ---------------------------------------------------------------------------
# array kernels
#
# They act on stacked (3, Nx, Ny, nl) coefficient arrays, on either layout
# unless noted, with the symbols of ``frame_symbols``.


def _project(f: np.ndarray, sym) -> np.ndarray:
    """In place: f + grad_L psi, with psi making the result frame divergence free.

    The mean mode, whose symbol vanishes, passes through untouched.
    """
    k, etal, l, w = sym
    psi = 1j * (k * f[0] + etal * f[1] + l * f[2]) / w
    psi[0, 0, 0] = 0.0
    f[0] += 1j * k * psi
    f[1] += 1j * etal * psi
    f[2] += 1j * l * psi
    return f


def _advection(u: np.ndarray, sym, grid: GridSpec, t: float) -> np.ndarray:
    """Dealiased rotational-form advection mask * (u x curl_L u), half-spectrum layout.

    One batched inverse real FFT of (u, curl_L u) and one batched forward
    real FFT of the three products.  After the Leray projection this equals
    -P_L (u . grad_L u): with 3 kc < N the 2/3 mask removes every alias, and
    P_L annihilates the gradient grad_L |u|^2 / 2 that separates the forms.
    """
    k, etal, l, _ = sym
    wv = _waves(grid, True)
    c = np.empty((6,) + u.shape[1:], dtype=np.complex128)
    np.multiply(u, wv.mask, out=c[:3])
    u1, u2, u3 = c[:3]
    c[3] = 1j * (etal * u3 - l * u2)
    c[4] = 1j * (l * u1 - k * u3)
    c[5] = 1j * (k * u2 - etal * u1)
    v1, v2, v3, o1, o2, o3 = np.fft.irfftn(c, s=grid.shape, axes=(1, 2, 3))
    prod = np.empty((3,) + grid.shape)
    np.subtract(v2 * o3, v3 * o2, out=prod[0])
    np.subtract(v3 * o1, v1 * o3, out=prod[1])
    np.subtract(v1 * o2, v2 * o1, out=prod[2])
    # physical samples are n_modes * irfftn, amplitudes are rfftn / n_modes
    a = np.fft.rfftn(prod, axes=(1, 2, 3))
    a *= wv.amp_mask
    if not np.isfinite(a).all():
        raise BlowUpError("non-finite values in the advection term", time=t)
    return a


def _full(grid: GridSpec, h: np.ndarray, t: float) -> VelocityField:
    """Expand a half-spectrum array by conjugate reflection: C(-k,-eta,-l) = conj C(k,eta,l)."""
    nh = h.shape[-1]
    full = np.empty((3,) + grid.shape, dtype=np.complex128)
    full[..., :nh] = h
    rx = (-np.arange(grid.Nx)) % grid.Nx
    ry = (-np.arange(grid.Ny)) % grid.Ny
    np.conjugate(h[..., grid.Nz - nh : 0 : -1][:, rx][:, :, ry], out=full[..., nh:])
    return VelocityField(grid, full, t)


# ---------------------------------------------------------------------------
# spatial operators


def leray_project_L(U: VelocityField, t: float, beta: float = 1.0) -> VelocityField:
    """Remove the frame-gradient part: U - grad_L (Delta_L)^{-1} (div_L U).

    Idempotent, annihilates pure gradients, and passes the excluded mean mode
    through untouched (its symbol vanishes).
    """
    # astype copies, so the in-place projection leaves the input alone
    out = _project(U.coeffs.astype(np.complex128), frame_symbols(U.grid, t, beta))
    return VelocityField(U.grid, out, t)


def divergence_defect(U: VelocityField, beta: float = 1.0, t: float | None = None) -> float:
    """Max per-mode |i k u1 + i (eta - k t) u2 + i l u3| (frame divergence).

    The frame time t defaults to the time tag of U.
    """
    kk, etal, ll, _ = frame_symbols(U.grid, U.time if t is None else t, beta)
    c = U.coeffs
    return float(np.max(np.abs(kk * c[0] + etal * c[1] + ll * c[2])))


def nonlinear_rhs(U: VelocityField, t: float, beta: float = 1.0) -> VelocityField:
    """Dealiased advection with its pressure correction: -P_L (U . grad_L U).

    Evaluated in rotational form, P_L (U x curl_L U), on the half spectrum
    of the (Hermitian) input; the result is divergence free in the frame
    sense and Hermitian by construction.
    """
    sym = frame_symbols(U.grid, t, beta, half=True)
    u = U.coeffs[..., : U.grid.Nz // 2 + 1]
    a = _project(_advection(u, sym, U.grid, t), sym)
    return _full(U.grid, a, t)


def advective_rate_bound(U: VelocityField, t_horizon: float, beta: float = 1.0) -> float:
    """Cheap upper bound on max|U| * max|grad_L symbol| for a CFL warning.

    Uses the l1 bound on the physical maximum (no transforms) and the frame
    gradient magnitude at the end of the horizon, where it is largest.
    """
    grid = U.grid
    umax = float(sum(np.sum(np.abs(c)) for c in U.coeff_arrays()))
    cx, cy, cz = grid.dealias_cutoffs
    eta_max = cy * grid.eta_spacing + cx * beta * t_horizon
    return umax * (cx + eta_max + cz)


# ---------------------------------------------------------------------------
# time stepping


def propagator(
    grid: GridSpec, t0: float, t1: float, nu: float, beta: float = 1.0
) -> Callable[[np.ndarray], np.ndarray]:
    """Exact solution operator of the linearised system from t0 to t1, half-spectrum layout.

    With e_i = eta - beta k t_i, w1 = k^2 + e1^2 + l^2, q = beta (t1 - t0)
    and D = exp(-nu int_{t0}^{t1} w), the damped rotation of the good unknowns
    (K1, K2) by ``linear.phase_angle`` reads, in velocity variables,

        u1' = (D / w1) [(k^2 + l^2 + e0 e1) u1 + q k^2 u2]
        u2' = (D / w1) [(k^2 + l^2 + e0 e1) u2 - q (k^2 + l^2) u1]
        u3' = D u3 + (D q l / w1) (e1 u1 + k u2)

    since cos and sin of a difference of two arctangents are rational in the
    frame symbols.  At k = 0 this is the nilpotent lift-up of
    ``linear.zero_mode_evolve``.  It maps the frame divergence at t0 to D times
    the frame divergence at t1, and frame gradients to frame gradients, so it
    commutes with the Leray projection.  Returns a function that applies the
    operator to a (3, Nx, Ny, nl) array and leaves its argument unchanged.
    """
    wv = _waves(grid, True)
    e0 = wv.eta - wv.k * (beta * t0)
    e1 = wv.eta - wv.k * (beta * t1)
    e01 = e0 * e1
    q = beta * (t1 - t0)
    # e is linear in s, so the mean of e^2 over [t0, t1] is (e0^2 + e0 e1 + e1^2) / 3
    decay = np.exp((-nu * (t1 - t0)) * (wv.kl2 + (e0 * e0 + e01 + e1 * e1) / 3.0))
    w1 = wv.kl2 + e1 * e1
    w1[0, 0, 0] = 1.0
    dw = decay / w1
    diag = dw * (wv.kl2 + e01)
    qdw = q * dw
    c12 = qdw * wv.k2
    c21 = qdw * wv.kl2
    qldw = qdw * wv.l
    c31 = qldw * e1
    c32 = qldw * wv.k

    def apply(u: np.ndarray) -> np.ndarray:
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


def step(U: VelocityField, t: float, dt: float, cfg: SimConfig) -> VelocityField:
    """Advance one step: exact linear propagator + explicit RK on the advection.

    Lawson's integrating-factor Runge-Kutta method: the stages carry only the
    projected advection and every linear term is applied exactly by the two
    half-step propagators, so a linearised step is one propagator application
    and the step size is limited only by the advective CFL.  The state lives
    in one half-spectrum array for the whole step; symbols are evaluated once
    per distinct stage time.  The result is re-projected, re-masked, checked
    against the blow-up cap and expanded by conjugate reflection, so it is
    Hermitian by construction.
    """
    grid = U.grid
    nu, beta = cfg.nu, cfg.beta
    tm, t1 = t + 0.5 * dt, t + dt
    # a contiguous copy: the propagator reads it seven times, a strided view is slower
    u0 = np.ascontiguousarray(U.coeffs[..., : grid.Nz // 2 + 1])
    sym1 = frame_symbols(grid, t1, beta, half=True)

    if not cfg.nonlinear_enabled:
        new = propagator(grid, t, t1, nu, beta)(u0)
    else:
        ph = propagator(grid, t, tm, nu, beta)
        ph2 = propagator(grid, tm, t1, nu, beta)
        symm = frame_symbols(grid, tm, beta, half=True)

        def rhs(u, sym, s):
            return _project(_advection(u, sym, grid, s), sym)

        k1 = rhs(u0, frame_symbols(grid, t, beta, half=True), t)
        pu, pk = ph(u0), ph(k1)
        k2 = rhs(pu + 0.5 * dt * pk, symm, tm)
        if cfg.rk_stages == 2:
            new = ph2(pu + dt * k2)
        else:
            k3 = rhs(pu + 0.5 * dt * k2, symm, tm)
            k4 = rhs(ph2(pu + dt * k3), sym1, t1)
            new = ph2(pu + dt / 6.0 * (pk + 2.0 * (k2 + k3)))
            new += dt / 6.0 * k4

    new = _project(new, sym1)
    new *= _waves(grid, True).mask
    new[:, 0, 0, 0] = 0.0

    # full-spectrum l2: the l = 0 and l = Nz/2 planes are stored once, the
    # others stand for themselves and their conjugate reflection
    power = new.real**2 + new.imag**2
    l2 = math.sqrt(
        float(2.0 * np.sum(power) - np.sum(power[..., 0]) - np.sum(power[..., -1]))
    )
    if not math.isfinite(l2):
        raise BlowUpError("non-finite state after step", time=t1)
    if l2 > cfg.blowup_cap:
        raise BlowUpError(f"state norm {l2:.3e} exceeded the cap {cfg.blowup_cap:.3e}", time=t1)
    return _full(grid, new, t1)


# ---------------------------------------------------------------------------
# initial conditions


def _place_conjugate_pair(grid: GridSpec, coeffs: np.ndarray, idx: tuple[int, int, int], value: complex):
    ik, ij, il = idx
    coeffs[ik, ij, il] += value
    coeffs[(-ik) % grid.Nx, (-ij) % grid.Ny, (-il) % grid.Nz] += np.conj(value)


def _random_band(grid: GridSpec, seed: int) -> np.ndarray:
    """Hermitian Gaussian coefficients on |k| <= 2, |eta| <= 2, |l| <= 2, before projection.

    One draw of (re, im) pairs per component, in (k, j, l) order over the
    band clipped to the dealiased one; the mean mode is left out.
    """
    cx, cy, cz = grid.dealias_cutoffs
    kx, jmax, lz = min(2, cx), min(cy, int(math.floor(2.0 / grid.eta_spacing))), min(2, cz)
    axes = (np.arange(-kx, kx + 1), np.arange(-jmax, jmax + 1), np.arange(-lz, lz + 1))
    band = np.stack(np.meshgrid(*axes, indexing="ij")).reshape(3, -1)
    band = band[:, np.any(band != 0, axis=0)]
    idx = tuple(b % n for b, n in zip(band, grid.shape))
    rng = np.random.default_rng(seed)
    c = np.zeros((3,) + grid.shape, dtype=np.complex128)
    for ci in c:
        z = rng.standard_normal((band.shape[1], 2))
        ci[idx] = z[:, 0] + 1j * z[:, 1]
    return 0.5 * (c + _conjugate_flip(grid, c))


def initial_condition(cfg: SimConfig) -> VelocityField:
    """Build the configured divergence-free, mean-free initial state."""
    grid = cfg.grid
    if cfg.ic_kind == "file":
        if not cfg.ic_file:
            raise ValueError("ic_kind='file' requires ic_file")
        from .reporting import read_snapshot_csv

        U = read_snapshot_csv(cfg.ic_file)
        if U.grid != grid:
            raise ValueError("snapshot grid does not match the configured grid")
        return U

    if cfg.ic_kind == "random_band":
        c = _random_band(grid, cfg.seed)
    else:  # single_mode
        c = np.zeros((3,) + grid.shape, dtype=np.complex128)
        k0, j0, l0 = cfg.ic_mode
        if (k0, j0, l0) == (0, 0, 0):
            raise ValueError("single_mode initial condition cannot sit on the mean mode")
        cx, cy, cz = grid.dealias_cutoffs
        if abs(k0) > cx or abs(j0) > cy or abs(l0) > cz:
            raise ValueError(f"ic_mode {cfg.ic_mode} lies outside the dealiased band")
        idx = (k0 % grid.Nx, resolve_eta_index(grid, j0), l0 % grid.Nz)
        if k0 == 0:
            # purely x-averaged seed: feed the streamwise component, which is
            # what drives the secular lift-up growth
            amp = (cfg.eps, 0.0, 0.0)
        else:
            amp = (cfg.eps / math.sqrt(3.0),) * 3
        for a, ci in zip(amp, c):
            if a != 0.0:
                _place_conjugate_pair(grid, ci, idx, complex(a))

    c = _project(c, frame_symbols(grid, 0.0, cfg.beta))
    c[:, 0, 0, 0] = 0.0
    c *= grid.dealias_mask
    U = VelocityField(grid, c, 0.0)

    if cfg.ic_kind == "random_band":
        from .spectral import sobolev_norm

        total = math.sqrt(sum(sobolev_norm(f, cfg.sigma) ** 2 for f in U.components()))
        c *= (cfg.eps / total) if total > 0 else 0.0
    return U


# ---------------------------------------------------------------------------
# run loop


@dataclass
class RunResult:
    """Trajectory of one integration: diagnostic rows plus optional snapshots."""

    cfg: SimConfig
    times: list[float] = field(default_factory=list)
    reports: list = field(default_factory=list)
    snapshots: list[tuple[float, VelocityField]] = field(default_factory=list)
    status: str = "completed"  # completed | blown_up
    t_fail: float | None = None
    warnings: list[str] = field(default_factory=list)

    @property
    def blown_up(self) -> bool:
        return self.status == "blown_up"

    def norm_series(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        ts = np.array([r.t for r in self.reports])
        ys = np.array([r.norms[name] for r in self.reports])
        return ts, ys


def run(cfg: SimConfig, report_fn: Callable | None = None) -> RunResult:
    """Integrate from the configured initial state to t_end.

    Emits one diagnostic row every ``diag_every`` steps (and at t = 0 and the
    final time), stores snapshots at the ``snapshot_every`` cadence when
    requested, and converts a numerical blow-up into a ``blown_up`` result
    carrying the failing time.  Deterministic for a fixed config and seed.
    """
    from .diagnostics import Accumulators, bootstrap_report

    U = initial_condition(cfg)
    result = RunResult(cfg=cfg)
    acc = Accumulators()
    report = report_fn or bootstrap_report

    rate = advective_rate_bound(U, cfg.t_end, cfg.beta)
    dt = cfg.dt
    if dt is None:
        dt = min(0.01, 0.5 / rate) if rate > 0 else 0.01
    n_steps = max(1, int(math.ceil(cfg.t_end / dt - 1e-12))) if cfg.t_end > 0 else 0
    if cfg.t_end > 0:
        dt = cfg.t_end / n_steps

    if cfg.nonlinear_enabled and rate > 0 and dt > 0.5 / rate:
        msg = f"dt={dt:.3e} exceeds the advective CFL estimate {0.5 / rate:.3e}"
        logger.warning(msg)
        result.warnings.append(msg)

    def emit(t: float, state: VelocityField) -> None:
        result.times.append(t)
        result.reports.append(report(state, t, cfg, acc))

    def snap(t: float, state: VelocityField) -> None:
        if cfg.snapshot_every > 0:
            result.snapshots.append((t, state.copy()))

    emit(0.0, U)
    snap(0.0, U)
    warned_resolution = False
    t = 0.0
    try:
        for i in range(1, n_steps + 1):
            U = step(U, t, dt, cfg)
            t = i * dt
            if i % cfg.diag_every == 0 or i == n_steps:
                emit(t, U)
                if not warned_resolution:
                    # the dealias mask empties the outer third, so the live
                    # resolution limit is the retained band edge
                    jband = cfg.grid.dealias_cutoffs[1]
                    frac = max(
                        high_eta_energy_fraction(f, j_limit=jband) for f in U.components()
                    )
                    if frac > 1e-8:
                        msg = (
                            f"t={t:.3f}: fraction {frac:.2e} of spectral energy within 10% "
                            f"of the resolved eta band edge; increase Ny or Ly"
                        )
                        logger.warning(msg)
                        result.warnings.append(msg)
                        warned_resolution = True
            if cfg.snapshot_every > 0 and (i % cfg.snapshot_every == 0 or i == n_steps):
                snap(t, U)
    except BlowUpError as exc:
        result.status = "blown_up"
        result.t_fail = exc.time
        result.warnings.append(str(exc))
        if not result.times or result.times[-1] < t:
            emit(t, U)
    return result

