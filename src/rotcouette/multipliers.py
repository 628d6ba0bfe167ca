"""Spectral weights that convert transient stretching into monotone energies.

Two weights are used.  The stretching weight m freezes the growth a mode
undergoes while the shear sweeps its critical time: it follows the stretching
rate inside a window of length WINDOW * nu^{-1/3} after the critical time
t = eta/k and is constant elsewhere, with an exact piecewise-rational
formula.  The ghost weight M spends a fixed total decrement around the
critical time of every non-zero mode; its log-derivative is an arctan kernel,
so M itself is an explicit double-arctan exponential confined to [e^{-pi}, 1].
"""

from __future__ import annotations

import math

from .spectral import WaveVector, w_symbol

__all__ = [
    "SwitchingTimeError",
    "m_exact",
    "m_log_derivative",
    "m_ode_residual",
    "M_closed",
    "M_log_derivative",
    "WINDOW",
]

# The window constant of the defining piecewise ODE, as in the multiplier of
# Bedrossian, Germain and Masmoudi (Ann. Math. 2017): the stretching window
# lasts WINDOW * nu^{-1/3} after the critical time.
WINDOW = 1000.0


class SwitchingTimeError(ValueError):
    """Requested a derivative at a non-differentiable branch-switching time."""


def m_exact(t: float, kv: WaveVector, nu: float) -> float:
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
    lw = WINDOW * nu ** (-1.0 / 3.0)
    if ratio <= -lw:
        return 1.0
    wt = w_symbol(t, kv)
    w_end = kv.k * kv.k + (WINDOW * kv.k) ** 2 * nu ** (-2.0 / 3.0) + kv.l * kv.l
    if ratio < 0.0:
        w0 = kv.k * kv.k + kv.eta * kv.eta + kv.l * kv.l
        return w0 / wt if t < ratio + lw else w0 / w_end
    kl2 = kv.k * kv.k + kv.l * kv.l
    if t < ratio:
        return 1.0
    if t < ratio + lw:
        return kl2 / wt
    return kl2 / w_end


def m_log_derivative(t: float, kv: WaveVector, nu: float) -> float:
    """Right-hand side of the defining ODE: 2k(eta - kt)/w inside the window, else 0."""
    if kv.k == 0:
        return 0.0
    ratio = kv.eta / kv.k
    if ratio <= t <= ratio + WINDOW * nu ** (-1.0 / 3.0):
        return 2.0 * kv.k * (kv.eta - kv.k * t) / w_symbol(t, kv)
    return 0.0


def m_ode_residual(t: float, kv: WaveVector, nu: float, h: float = 1e-4) -> float:
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
    for switch in (ratio, ratio + WINDOW * nu ** (-1.0 / 3.0)):
        if abs(t - switch) < 2.0 * h:
            raise SwitchingTimeError(f"t={t} within stencil distance of switching time {switch}")
    fd = (math.log(m_exact(t + h, kv, nu)) - math.log(m_exact(t - h, kv, nu))) / (2.0 * h)
    return abs(fd - m_log_derivative(t, kv, nu))


def M_closed(t: float, kv: WaveVector, nu: float) -> float:
    """Exact ghost weight: exp(-arctan(nu^{1/3}(t - eta/k)) - arctan(nu^{1/3} eta/k)).

    Solves the arctan-kernel ODE with M(0) = 1; the exponent lives in
    (-pi, 0], so e^{-pi} < M <= 1 uniformly in the mode and the viscosity.
    k = 0 modes carry the constant weight 1.
    """
    if t < 0:
        raise ValueError(f"M_closed requires t >= 0, got {t}")
    if kv.k == 0:
        return 1.0
    third = nu ** (1.0 / 3.0)
    ratio = kv.eta / kv.k
    return math.exp(-(math.atan(third * (t - ratio)) + math.atan(third * ratio)))


def M_log_derivative(t: float, kv: WaveVector, nu: float) -> float:
    """dM/dt / M = -nu^{1/3} / (1 + [nu^{1/3}(t - eta/k)]^2) for k != 0, else 0."""
    if kv.k == 0:
        return 0.0
    third = nu ** (1.0 / 3.0)
    x = third * (t - kv.eta / kv.k)
    return -third / (1.0 + x * x)
