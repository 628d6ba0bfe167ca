"""Spectral weights that convert transient stretching into monotone energies.

Two weights are used.  The stretching weight m freezes the growth a mode
undergoes while the shear sweeps its critical time: it follows the stretching
rate inside a window of length WINDOW * nu^{-1/3} after the critical time
t = eta/k and is constant elsewhere, with an exact piecewise-rational
formula.  The ghost weight M spends a fixed total decrement around the
critical time of every non-zero mode; its log-derivative is an arctan kernel,
so M itself is an explicit double-arctan exponential confined to [e^{-pi}, 1].

Both have one implementation, which the ledger and the ``multipliers``
command call: ``weight_constants`` builds what does not depend on t once per
mode arrays and viscosity, and ``weights`` evaluates M, -Mdot M and m at t
from it and the frame symbol w(t).  The arrays broadcast, and each element
takes the operations, in the order, of the closed forms that
``tests/oracles.py`` keeps as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import WaveVector, w_symbol

__all__ = [
    "WeightConstants",
    "weight_constants",
    "weights",
    "mode_weights",
    "m_log_derivative",
    "m_ode_residual",
    "M_log_derivative",
    "WINDOW",
]

# The window constant of the defining piecewise ODE, as in the multiplier of
# Bedrossian, Germain and Masmoudi (Ann. Math. 2017): the stretching window
# lasts WINDOW * nu^{-1/3} after the critical time.
WINDOW = 1000.0


@dataclass(frozen=True, eq=False)
class WeightConstants:
    """The time-independent parts of m, M and -Mdot M on one set of modes; read-only."""

    third: float  # nu^{1/3}
    nonzero: np.ndarray  # k != 0
    ratio: np.ndarray  # eta/k, the critical time (0 where k = 0)
    arc0: np.ndarray  # arctan(nu^{1/3} eta/k)
    start: np.ndarray  # m's window opens: eta/k if eta/k >= 0, -inf if -lw < eta/k < 0, else +inf
    tend: np.ndarray  # and closes, at eta/k + lw
    num: np.ndarray  # m's numerator in the window: |k, l|^2, or |k, eta, l|^2 if it opened before 0
    end: np.ndarray  # m after the window: num over w at the closing time


def weight_constants(k, eta, l, nu) -> WeightConstants:
    """The constants of ``weights`` on the broadcast mode arrays k, eta, l at viscosity nu."""
    third = nu ** (1.0 / 3.0)
    lw = WINDOW * nu ** (-1.0 / 3.0)
    nonzero = k != 0
    ratio = np.where(nonzero, eta / np.where(nonzero, k, 1.0), 0.0)
    w_end = k * k + (WINDOW * k) ** 2 * nu ** (-2.0 / 3.0) + l * l
    neg = nonzero & (ratio > -lw) & (ratio < 0.0)
    pos = nonzero & (ratio >= 0.0)
    num = np.where(neg, k * k + eta * eta + l * l, k * k + l * l)
    c = WeightConstants(
        third=third,
        nonzero=nonzero,
        ratio=ratio,
        arc0=np.arctan(third * ratio),
        start=np.where(pos, ratio, np.where(neg, -np.inf, np.inf)),
        tend=ratio + lw,
        num=num,
        end=num / np.where(w_end > 0.0, w_end, 1.0),
    )
    for a in vars(c).values():
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return c


def weights(c: WeightConstants, t, w) -> tuple:
    """(M, -Mdot M, m) at time t >= 0, given the frame symbol w(t), positive wherever k != 0.

    -Mdot M = M^2 nu^{1/3} / (1 + x^2) with x = nu^{1/3} (t - eta/k).  M and
    -Mdot M have no l: they broadcast as k, eta and t do.
    """
    x = c.third * (t - c.ratio)
    M = np.where(c.nonzero, np.exp(-(np.arctan(x) + c.arc0)), 1.0)
    dmm = np.where(c.nonzero, M * M * c.third / (1.0 + x * x), 0.0)
    m = np.where(t >= c.start, np.where(t < c.tend, c.num / w, c.end), 1.0)
    return M, dmm, m


def mode_weights(t, modes: list[WaveVector], nu: float) -> tuple:
    """(M, m) of each mode at each time t >= 0 of t, as (len(modes), len(t)) arrays."""
    k, eta, l = (np.array([[float(getattr(kv, a))] for kv in modes]) for a in ("k", "eta", "l"))
    t = np.asarray(t, dtype=float)
    if (t < 0.0).any():
        raise ValueError(f"the weights are defined for t >= 0, got {t.min()}")
    d = eta - k * t
    w = k * k + d * d + l * l  # w_symbol; unit-safe where it vanishes, as the frame symbol's
    M, _, m = weights(weight_constants(k, eta, l, nu), t, np.where(w > 0.0, w, 1.0))
    return M, m


def m_log_derivative(t: float, kv: WaveVector, nu: float) -> float:
    """Right-hand side of the defining ODE: 2k(eta - kt)/w inside the window, else 0."""
    if kv.k == 0:
        return 0.0
    ratio = kv.eta / kv.k
    if ratio <= t <= ratio + WINDOW * nu ** (-1.0 / 3.0):
        return 2.0 * kv.k * (kv.eta - kv.k * t) / w_symbol(t, kv)
    return 0.0


def m_ode_residual(t, kv: WaveVector, nu: float, h: float = 1e-4) -> list:
    """|d/dt log m - ODE right-hand side| at each time of t, by central differences of m.

    m is ``mode_weights``'.  None at a time whose stencil straddles a branch
    switch (window opening or closing, or the t = 0 boundary), where the
    weight is continuous but not differentiable.
    """
    ts = np.asarray(t, dtype=float).ravel().tolist()
    if kv.k == 0:
        return [0.0] * len(ts)
    ratio = kv.eta / kv.k
    switches = (0.0, ratio, ratio + WINDOW * nu ** (-1.0 / 3.0))
    smooth = [t for t in ts if all(abs(t - s) >= 2.0 * h for s in switches)]
    m = mode_weights([t + h for t in smooth] + [t - h for t in smooth], [kv], nu)[1][0].tolist()
    resid = {
        t: abs((math.log(right) - math.log(left)) / (2.0 * h) - m_log_derivative(t, kv, nu))
        for t, right, left in zip(smooth, m, m[len(smooth):])
    }
    return [resid.get(t) for t in ts]


def M_log_derivative(t: float, kv: WaveVector, nu: float) -> float:
    """dM/dt / M = -nu^{1/3} / (1 + [nu^{1/3}(t - eta/k)]^2) for k != 0, else 0."""
    if kv.k == 0:
        return 0.0
    third = nu ** (1.0 / 3.0)
    x = third * (t - kv.eta / kv.k)
    return -third / (1.0 + x * x)
