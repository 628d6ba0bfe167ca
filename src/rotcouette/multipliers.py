"""Spectral weights that convert transient stretching into monotone energies.

Two weights are used.  The stretching weight m freezes the growth a mode
undergoes while the shear sweeps its critical time: it follows the stretching
rate inside a window of length window * nu^{-1/3} after the critical time
t = eta/k and is constant elsewhere, with an exact piecewise-rational
formula.  The ghost weight M spends a fixed total decrement around the
critical time of every non-zero mode; its log-derivative is an arctan kernel,
so M itself is an explicit double-arctan exponential confined to [e^{-pi}, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .spectral import WaveVector, w_symbol

__all__ = [
    "MultiplierParams",
    "SwitchingTimeError",
    "m_exact",
    "m_log_derivative",
    "m_ode_residual",
    "M_closed",
    "M_log_derivative",
    "neg_MdotM",
    "MBoundsReport",
    "MCoercivityReport",
    "check_m_bounds",
    "check_M_bounds_and_coercivity",
]


class SwitchingTimeError(ValueError):
    """Requested a derivative at a non-differentiable branch-switching time."""


@dataclass(frozen=True)
class MultiplierParams:
    """Viscosity and the stretching-window width multiplier.

    The window constant of the defining piecewise ODE is 1000; it is exposed
    for experimentation but every documented bound assumes the default.
    """

    nu: float
    window: float = 1000.0

    def __post_init__(self) -> None:
        if not (0.0 < self.nu < 1.0):
            raise ValueError(f"nu must lie in (0, 1), got {self.nu}")
        if not 0.0 < self.window < math.inf:
            raise ValueError(f"window must be positive and finite, got {self.window}")

    @property
    def window_length(self) -> float:
        return self.window * self.nu ** (-1.0 / 3.0)


def m_exact(t: float, kv: WaveVector, p: MultiplierParams) -> float:
    """Exact piecewise value of the stretching weight at time t >= 0.

    k = 0 modes and modes whose window closed before t = 0 keep the value 1;
    inside the window the weight is the ratio of the frame Laplacian symbol
    at the window opening to its current value, and past the window it stays
    frozen at the closing value.
    """
    if t < 0:
        raise ValueError(f"m_exact requires t >= 0, got {t}")
    if kv.k == 0:
        return 1.0
    ratio = kv.eta / kv.k
    lw = p.window_length
    if ratio <= -lw:
        return 1.0
    wt = w_symbol(t, kv)
    w_end = kv.k * kv.k + (p.window * kv.k) ** 2 * p.nu ** (-2.0 / 3.0) + kv.l * kv.l
    if ratio < 0.0:
        w0 = kv.k * kv.k + kv.eta * kv.eta + kv.l * kv.l
        return w0 / wt if t < ratio + lw else w0 / w_end
    kl2 = kv.k * kv.k + kv.l * kv.l
    if t < ratio:
        return 1.0
    if t < ratio + lw:
        return kl2 / wt
    return kl2 / w_end


def m_log_derivative(t: float, kv: WaveVector, p: MultiplierParams) -> float:
    """Right-hand side of the defining ODE: 2k(eta - kt)/w inside the window, else 0."""
    if kv.k == 0:
        return 0.0
    ratio = kv.eta / kv.k
    if ratio <= t <= ratio + p.window_length:
        return 2.0 * kv.k * (kv.eta - kv.k * t) / w_symbol(t, kv)
    return 0.0


def m_ode_residual(t: float, kv: WaveVector, p: MultiplierParams, h: float = 1e-4) -> float:
    """|d/dt log m - ODE right-hand side| by central differences.

    Raises ``SwitchingTimeError`` when the stencil straddles a branch switch
    (window opening/closing or the t = 0 boundary), where the weight is
    continuous but not differentiable.
    """
    if kv.k == 0:
        return 0.0
    if t < 2.0 * h:
        raise SwitchingTimeError(f"t={t} too close to the domain boundary for stencil h={h}")
    ratio = kv.eta / kv.k
    for switch in (ratio, ratio + p.window_length):
        if abs(t - switch) < 2.0 * h:
            raise SwitchingTimeError(f"t={t} within stencil distance of switching time {switch}")
    fd = (math.log(m_exact(t + h, kv, p)) - math.log(m_exact(t - h, kv, p))) / (2.0 * h)
    return abs(fd - m_log_derivative(t, kv, p))


def M_closed(t: float, kv: WaveVector, p: MultiplierParams) -> float:
    """Exact ghost weight: exp(-arctan(nu^{1/3}(t - eta/k)) - arctan(nu^{1/3} eta/k)).

    Solves the arctan-kernel ODE with M(0) = 1; the exponent lives in
    (-pi, 0], so e^{-pi} < M <= 1 uniformly in the mode and the viscosity.
    k = 0 modes carry the constant weight 1.
    """
    if t < 0:
        raise ValueError(f"M_closed requires t >= 0, got {t}")
    if kv.k == 0:
        return 1.0
    third = p.nu ** (1.0 / 3.0)
    ratio = kv.eta / kv.k
    return math.exp(-(math.atan(third * (t - ratio)) + math.atan(third * ratio)))


def M_log_derivative(t: float, kv: WaveVector, p: MultiplierParams) -> float:
    """dM/dt / M = -nu^{1/3} / (1 + [nu^{1/3}(t - eta/k)]^2) for k != 0, else 0."""
    if kv.k == 0:
        return 0.0
    third = p.nu ** (1.0 / 3.0)
    x = third * (t - kv.eta / kv.k)
    return -third / (1.0 + x * x)


def neg_MdotM(t: float, kv: WaveVector, p: MultiplierParams) -> float:
    """-dM/dt * M >= 0, the density of the ghost-weight dissipation."""
    M = M_closed(t, kv, p)
    return -M_log_derivative(t, kv, p) * M * M


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


def check_m_bounds(samples: Sequence[tuple[float, WaveVector]], p: MultiplierParams) -> MBoundsReport:
    """Verify m <= 1 and report the sharpest admissible lower-bound constants.

    c1 is the largest constant with m >= c1 * nu^{2/3} on the samples, c2 the
    largest with m >= c2 * (k^2 + l^2) / w (modes with k = l = 0 are skipped
    in the c2 scan since both sides vanish).
    """
    m_max = 0.0
    c1 = math.inf
    c2 = math.inf
    nu23 = p.nu ** (2.0 / 3.0)
    for t, kv in samples:
        m = m_exact(t, kv, p)
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
    samples: Iterable[tuple[float, WaveVector]], p: MultiplierParams
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
        M = M_closed(t, kv, p)
        M_min = min(M_min, M)
        M_max = max(M_max, M)
        if kv.k != 0:
            value = p.nu ** (-1.0 / 6.0) * math.sqrt(neg_MdotM(t, kv, p)) + p.nu ** (
                1.0 / 3.0
            ) * math.sqrt(w_symbol(t, kv))
            inf = min(inf, value)
    return MCoercivityReport(n_samples=n, M_min=M_min, M_max=M_max, coercivity_inf=inf)
