"""Per-mode kernels: the two spectral weights.

The diagnostics evaluate the weights m, M and -Mdot/M over whole mode grids
at every report.  Each kernel is one numpy expression that broadcasts
over its ``k, eta, l`` arguments, so callers pass the wave arrays of the
retained box, (nk,1,1), (1,2cy+1,1) and (1,1,cz+1), and get the broadcast
shape back; the values equal those of the same kernel on raveled arrays
exactly.
"""

from __future__ import annotations

import numpy as np

from .multipliers import WINDOW

USE_NUMBA = False  # no compiled kernels; kept because perfbench/run.py records it


def _ratio(k, eta):
    """eta/k where k != 0 (0 elsewhere), with the k != 0 mask."""
    nonzero = k != 0
    return nonzero, np.where(nonzero, eta / np.where(nonzero, k, 1.0), 0.0)


def m_values(t, k, eta, l, nu):
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
    nonzero, ratio = _ratio(k, eta)
    return _M(t, nonzero, ratio, nu ** (1.0 / 3.0))


def neg_MdotM_values(t, k, eta, l, nu):
    nonzero, ratio = _ratio(k, eta)
    third = nu ** (1.0 / 3.0)
    M = _M(t, nonzero, ratio, third)
    x = third * (t - ratio)
    return np.where(nonzero, M * M * third / (1.0 + x * x), 0.0)
