"""Weighted energy diagnostics computed from velocity snapshots.

From a spectral velocity state this module derives the Laplacian unknowns,
the symmetrised good unknowns for the planar components, and the full set of
weighted Sobolev norms that the global-in-time theory controls: ghost-weighted
planar energies, doubly weighted third-component energies, x-averaged norms at
one derivative less, and the L2-in-time members accumulated by trapezoid rule.
Each row checks the nine a-priori hypotheses of the bootstrap, bounds of
size 8*{eps, C0 eps nu^{-1/3}, C1 eps/nu, C0 eps/nu} for user-supplied
constants C0 > C1; ``_BOUNDS`` states all nine, one flag per line.  One
``bootstrap_report`` call reports a stack of states at one time, each with
its own constants and accumulators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

from .multipliers import weight_constants, weights
from .simulation import SimConfig, VelocityField, _divergence_max, _time_cache, _waves, frame_symbols
from .simulation import _box_sobolev_weights
from .spectral import GridSpec, SpectralField

__all__ = [
    "EnergyReport",
    "Accumulators",
    "compute_K_check",
    "bootstrap_report",
    "INSTANT_COLUMNS",
    "ACCUMULATED_COLUMNS",
    "FLAG_NAMES",
]


@dataclass
class EnergyReport:
    """One diagnostic row: instantaneous norms, running integrals, flags."""

    t: float
    norms: dict[str, float]
    flags: dict[str, bool] = dc_field(default_factory=dict)


INSTANT_COLUMNS = [
    "MK1_neq_HN",
    "MK2_neq_HN",
    "mMQ3_neq_HN",
    "Q0_1_HN",
    "Q0_2_HN",
    "Q0_3_HN",
    "U0_1_HNm1",
    "U0_2_HNm1",
    "U0_3_HNm1",
    "U1_neq_HN",
    "U2_neq_HN",
    "U3_neq_HN",
    "U_neq_HN_total",
    "U12_neq_L2",
    "dMM_K1_HN",
    "dMM_K2_HN",
    "dMM_mQ3_HN",
    "gradL_MK1_HN",
    "gradL_MK2_HN",
    "gradL_mMQ3_HN",
    "grad_Q0_1_HN",
    "grad_Q0_2_HN",
    "grad_Q0_3_HN",
    "grad_U0_1_HNm1",
    "grad_U0_2_HNm1",
    "grad_U0_3_HNm1",
    "Kcheck_neq_HN",
    "mQ3_neq_HN",
    "gradL_U12_neq_HN",
    "div_defect",
]

ACCUMULATED_COLUMNS = [
    "int_dMM_K1_HN",
    "int_dMM_K2_HN",
    "int_dMM_mQ3_HN",
    "int_gradL_MK1_HN",
    "int_gradL_MK2_HN",
    "int_gradL_mMQ3_HN",
    "int_grad_Q0_1_HN",
    "int_grad_Q0_2_HN",
    "int_grad_Q0_3_HN",
    "int_grad_U0_1_HNm1",
    "int_grad_U0_2_HNm1",
    "int_grad_U0_3_HNm1",
    "int_U0_2_HNm1",
    "int_Kcheck_neq_HN",
    "int_mQ3_neq_HN",
    "int_gradL_U12_neq_HN",
]

# flag: (running-max column X, sqrt(nu)-weighted integral columns Y, unweighted integral
# columns Z, size F) of the hypothesis  max_s X + sqrt(nu) sum Y + sum Z <= 8 F eps.
_BOUNDS = {
    "flag_K1": ("MK1_neq_HN", ("int_gradL_MK1_HN",), ("int_dMM_K1_HN",), "1"),
    "flag_K2": ("MK2_neq_HN", ("int_gradL_MK2_HN",), ("int_dMM_K2_HN",), "1"),
    "flag_Q3": ("mMQ3_neq_HN", ("int_gradL_mMQ3_HN",), ("int_dMM_mQ3_HN",), "C0 nu^-1/3"),
    "flag_Q0_1": ("Q0_1_HN", ("int_grad_Q0_1_HN",), (), "1"),
    "flag_Q0_2": ("Q0_2_HN", ("int_grad_Q0_2_HN",), (), "C1/nu"),
    "flag_Q0_3": ("Q0_3_HN", ("int_grad_Q0_3_HN",), (), "C0/nu"),
    "flag_U0_1": ("U0_1_HNm1", ("int_grad_U0_1_HNm1",), (), "1"),
    "flag_U0_2": ("U0_2_HNm1", ("int_grad_U0_2_HNm1", "int_U0_2_HNm1"), (), "C1/nu"),
    "flag_U0_3": ("U0_3_HNm1", ("int_grad_U0_3_HNm1",), (), "C0/nu"),
}

FLAG_NAMES = list(_BOUNDS)


class Accumulators:
    """One run's running maxima and trapezoid-rule integrals of its squared integrands.

    ``run`` keeps one beside each run's result, and ``bootstrap_report``
    advances it at each of the run's rows, together with those of the other
    boxes of its batch.  Row times must be nondecreasing: a repeated time
    adds a zero-width trapezoid.  ``integrals`` follows
    ``ACCUMULATED_COLUMNS`` and ``maxima`` the running-max columns of
    ``_BOUNDS``; the report holds the square roots of the integrals.
    """

    def __init__(self) -> None:
        self.t: float | None = None  # the time of the last row, None before the first
        self.sq = np.zeros(len(ACCUMULATED_COLUMNS))  # and its squared integrands
        self.integrals = np.zeros(len(ACCUMULATED_COLUMNS))
        self.maxima = np.zeros(len(_BOUNDS))


def compute_K_check(U: VelocityField, t: float | None = None):
    """Symmetrised good unknowns for the planar pair.

    K1 = -|k,l| |k, eta-kt, l| U1 and K2 = -|k| |k, eta-kt, l| U2; the planar
    velocities are recoverable wherever the prefactors do not vanish.
    """
    if t is None:
        t = U.time
    grid = U.grid
    kk, etal, ll, w = frame_symbols(grid, t)
    rw = np.sqrt(kk * kk + etal * etal + ll * ll)
    kl = np.sqrt(kk * kk + ll * ll)
    k1 = -kl * rw * U.coeffs[0]
    k2 = -np.abs(kk) * rw * U.coeffs[1]
    return (SpectralField(grid, k1, t), SpectralField(grid, k2, t))


_EINSUM_ROW = 8192  # numpy's default buffer, in elements; einsum ignores np.setbufsize


def _dots(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum(x * w_j) over the last axis of x, for each row of x and each row w_j of w: (..., len(w)).

    einsum, not np.dot: a multithreaded BLAS dot was tens of times slower on
    the 1 MiB weight arrays of a 32x128x32 grid.  einsum sums each row of a
    stack in the order in which it sums that row alone while the row fits
    its buffer (``_EINSUM_ROW``), but a longer row of a stack in
    buffer-sized pieces, so longer rows go one at a time.
    """
    n = w.shape[-1]
    if n <= _EINSUM_ROW:
        return np.einsum("...i,ji->...j", x, w)
    rows = [[np.einsum("i,i->", r, wj) for wj in w] for r in x.reshape(-1, n)]
    return np.array(rows).reshape(x.shape[:-1] + (len(w),))


# the norms of the k = 0 plane, in the order of ``_ledger_constants``' plane weights
_PLANE_NORMS = ("Q0_{}_HN", "grad_Q0_{}_HN", "U0_{}_HNm1", "grad_U0_{}_HNm1")

# the norms sqrt(total * cell_measure), in the order in which the ledger gathers their totals
_TOTALS = (
    "MK1_neq_HN", "dMM_K1_HN", "MK2_neq_HN", "dMM_K2_HN", "mMQ3_neq_HN", "dMM_mQ3_HN",
    "gradL_MK1_HN", "gradL_MK2_HN", "gradL_mMQ3_HN", "Kcheck_neq_HN", "mQ3_neq_HN",
    "U1_neq_HN", "U2_neq_HN", "U3_neq_HN", "U12_neq_L2", "gradL_U12_neq_HN",
    *(name.format(i) for i in (1, 2, 3) for name in _PLANE_NORMS),
)
_INTEGRANDS = [_TOTALS.index(c[4:]) for c in ACCUMULATED_COLUMNS]
_MAXED = [_TOTALS.index(x) for x, *_ in _BOUNDS.values()]


@_time_cache(maxsize=2)  # one (grid, nu, sigma) per row; a second does not evict the first
def _ledger_constants(grid: GridSpec, nu: float, N: float) -> tuple:
    """The ledger's time-independent weights, built once per run: read-only.

    The constants of m, M and -Mdot M on the k != 0 rows of the box
    (``multipliers.weight_constants``); the factors k^2 + l^2 and k^2 of |K1|^2
    and |K2|^2 on those rows, stacked as (2, 2cx, 1, cz+1); and the four
    weights of the k = 0 plane, stacked as (4, (2cy+1)(cz+1)), where w =
    eta^2 + l^2 has no t: hsN w^2 and hsN w^3 for Q0 and its gradient,
    hsNm1 and hsNm1 w for U0 and its gradient.  The plane's w is 0 at the
    mean mode, not the unit-safe 1 of ``frame_symbols``, since grad_U0 must
    not count the mean mode.
    """
    wv = _waves(grid, True)
    w0 = (wv.k2[:1] + wv.eta * wv.eta + wv.l2)[0]  # the frame symbol's w on the plane, at any t
    w0[0, 0] = 0.0
    hq = _box_sobolev_weights(grid, N)[0] * w0 * w0
    hsNm1 = _box_sobolev_weights(grid, N - 1.0)[0]
    plane = np.stack((hq, hq * w0, hsNm1, hsNm1 * w0)).reshape(4, -1)
    kk = np.stack((wv.kl2[1:], np.broadcast_to(wv.k2[1:], wv.kl2[1:].shape)))
    plane.flags.writeable = kk.flags.writeable = False
    return weight_constants(wv.k[1:], wv.eta, wv.l, nu), plane, kk


def _ledger_weights(grid: GridSpec, nu: float, N: float, t: float) -> tuple:
    """M^2 and -Mdot M = M^2 nu^{1/3} / (1 + x^2), stacked as (2, nk-1, nj), and m on the k != 0 rows of the box.

    Only what depends on t is computed here, from ``_ledger_constants`` and
    the box's frame symbol w(t); ``run`` reports the rows of one time in one call.
    """
    consts = _ledger_constants(grid, nu, N)[0]
    M, dmm, m = weights(consts, t, frame_symbols(grid, t, box=True)[3][1:])
    return np.stack(((M * M)[..., 0], dmm[..., 0])), m


def bootstrap_report(
    boxes: np.ndarray, t: float, cfgs: Sequence[SimConfig], accs: Sequence[Accumulators]
) -> list[EnergyReport]:
    """Evaluate every tracked norm of a batch of states at time t and advance their integrals.

    ``boxes`` stacks B retained (3, 2cx+1, 2cy+1, cz+1) boxes of one grid
    as (B, 3, 2cx+1, 2cy+1, cz+1), each as ``step`` carries it
    (``simulation._box`` of a field): the velocity is its expansion, zero
    off the box and each l < 0 mode the conjugate of its l > 0 reflection,
    as every state of ``run`` is.  Box b is reported with its own
    configuration ``cfgs[b]`` (its eps, C0 and C1) and accumulators
    ``accs[b]``; the configurations share grid, nu and sigma, as ``run``
    groups its rows.  Every norm is a weighted sum of one power spectrum
    P_i = |c_i|^2, since |K1|^2 = |k,l|^2 w P1, |K2|^2 = k^2 w P2 and
    |Q_i|^2 = w^2 P_i; an l > 0 mode counts twice, for itself and its
    reflection, whose weights are equal, and the l = 0 plane, stored whole,
    once.  M^2 and -Mdot M have no l, so each k != 0 family (K1, K2, m Q3)
    takes one product with the Sobolev weight, one sum over l and dot
    products over (k, eta); the x-averaged norms are taken on the k = 0
    plane alone.

    Each array operation acts on the whole batch, and each reduction runs
    over each box's own contiguous axes (``_dots``), so every report equals,
    bit for bit, that of its box alone; a batch of one, ``box[None]``, is a
    view.  The accumulators change only once every report is computed, so a
    batch that raises leaves them as they were.

    Each flag of ``_BOUNDS`` compares its running max plus its running
    integrals with its bound for the configured constants; a raised flag
    before t = 1 is informational only,
    since the hypotheses are formulated past the local-existence window.
    """
    cfg = cfgs[0]
    grid, nu, N = cfg.grid, cfg.nu, cfg.N
    if any((c.grid, c.nu, c.sigma) != (grid, nu, cfg.sigma) for c in cfgs):
        raise ValueError("the boxes of a ledger batch must share grid, nu and sigma")
    B = len(boxes)
    sym = frame_symbols(grid, t, box=True)
    Md, m = _ledger_weights(grid, nu, N, t)
    plane, kk = _ledger_constants(grid, nu, N)[1:]
    P = np.square(boxes.real, order="C")
    P += np.square(boxes.imag)
    P[..., 1:] *= 2.0

    # k != 0: rows 1.. of each box
    Pk = P[:, :, 1:]
    wn = sym[3][1:]
    h = _box_sobolev_weights(grid, N)[1:]
    hwP = h * wn * Pk[:, :2]
    A = np.empty(Pk.shape)  # hsN times |K1|^2, |K2|^2 and |m Q3|^2
    np.multiply(hwP, kk, out=A[:, :2])
    np.multiply(h * (m * wn) ** 2, Pk[:, 2], out=A[:, 2])
    a = A.sum(axis=-1).reshape(B, 3, -1)
    b = np.einsum("bfijk,ijk->bfij", A, wn).reshape(B, 3, -1)
    Md = Md.reshape(2, -1)
    plain = a.sum(axis=-1)
    pair = Pk[:, :2].reshape(B, 2, -1).sum(axis=-1)
    hpair = hwP.reshape(B, 2, -1).sum(axis=-1)
    totals = np.concatenate((
        _dots(a, Md).reshape(B, 6),
        _dots(b, Md[:1])[..., 0],
        plain[:, :1] + plain[:, 1:2],
        plain[:, 2:],
        _dots(Pk.reshape(B, 3, -1), h.reshape(1, -1))[..., 0],
        pair[:, :1] + pair[:, 1:],
        hpair[:, :1] + hpair[:, 1:],
        _dots(P[:, :, 0].reshape(B, 3, -1), plane).reshape(B, 12),  # k = 0: the x-averaged plane
    ), axis=1)
    norms = np.sqrt(totals * grid.cell_measure)

    # the trapezoid rule from each box's last row; a first row starts its integrals at 0
    last = [acc.t for acc in accs]
    if any(s is not None and s > t for s in last):
        raise ValueError("accumulator times must be nondecreasing")
    sq = np.square(norms[:, _INTEGRANDS])
    dt = t - np.array([t if s is None else s for s in last])
    integrals = np.array([acc.integrals for acc in accs])
    integrals += (0.5 * dt)[:, None] * (np.array([acc.sq for acc in accs]) + sq)
    first = [i for i, s in enumerate(last) if s is None]
    if first:
        integrals[first] = 0.0
    running = norms[:, _MAXED]
    maxima = np.array([acc.maxima for acc in accs])
    maxima = np.where(running > maxima, running, maxima)  # as max(maximum, value)
    roots = np.sqrt(integrals)

    # each flag of _BOUNDS: max_s X + sqrt(nu) sum Y + sum Z > 8 F eps, each sum started from 0
    root = dict(zip(ACCUMULATED_COLUMNS, roots.T))
    eps, C0, C1 = (np.array([getattr(c, a) for c in cfgs]) for a in ("eps", "C0", "C1"))
    bound = {"1": 8.0 * eps, "C0 nu^-1/3": 8.0 * C0 * eps * nu ** (-1.0 / 3.0),
             "C1/nu": 8.0 * C1 * eps / nu, "C0/nu": 8.0 * C0 * eps / nu}
    flags = np.array([
        sum((root[z] for z in Z), maxima[:, i] + sum((math.sqrt(nu) * root[y] for y in Y), 0.0))
        > bound[size]
        for i, (_, Y, Z, size) in enumerate(_BOUNDS.values())
    ]).T.tolist()

    rows = np.concatenate((norms, _divergence_max(boxes, sym)[:, None], roots), axis=1).tolist()
    n = len(_TOTALS)
    reports = []
    for row, row_flags in zip(rows, flags):
        values = dict(zip(_TOTALS, row[:n]))
        u1, u2, u3 = values["U1_neq_HN"], values["U2_neq_HN"], values["U3_neq_HN"]
        values["U_neq_HN_total"] = math.sqrt(u1**2 + u2**2 + u3**2)
        values["div_defect"] = row[n]
        values.update(zip(ACCUMULATED_COLUMNS, row[n + 1:]))
        reports.append(EnergyReport(t=t, norms=values, flags=dict(zip(FLAG_NAMES, row_flags))))
    for i, acc in enumerate(accs):
        acc.t, acc.sq, acc.integrals, acc.maxima = t, sq[i], integrals[i], maxima[i]
    return reports
