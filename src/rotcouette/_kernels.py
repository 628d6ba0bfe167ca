"""Per-mode kernels: the two spectral weights, split at the time.

The diagnostics weigh whole mode grids by m, M^2 and -Mdot M = M^2
nu^{1/3} / (1 + x^2), x = nu^{1/3} (t - eta/k).  Everything in them but
the time is fixed for a run, so ``weight_constants`` builds it once per
mode arrays and viscosity, and ``weights`` evaluates the three weights at
one time from those constants and the frame symbol w(t).  The mode
arguments broadcast: callers pass the wave arrays of the retained box,
(nk,1,1), (1,2cy+1,1) and (1,1,cz+1), and get the broadcast shape back,
with the values of the same kernels on raveled arrays exactly.  Each
element takes the operations, in the order, of the closed forms that
``tests/oracles.py`` keeps as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .multipliers import WINDOW

USE_NUMBA = False  # no compiled kernels; kept because perfbench/run.py records it


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


def weights(c: WeightConstants, t: float, w) -> tuple:
    """(M^2, -Mdot M, m) at time t, given the frame symbol w(t), positive wherever k != 0.

    M and -Mdot M have no l: they broadcast as k and eta do.
    """
    x = c.third * (t - c.ratio)
    M = np.where(c.nonzero, np.exp(-(np.arctan(x) + c.arc0)), 1.0)
    M2 = M * M
    dmm = np.where(c.nonzero, M2 * c.third / (1.0 + x * x), 0.0)
    m = np.where(t >= c.start, np.where(t < c.tend, c.num / w, c.end), 1.0)
    return M2, dmm, m
