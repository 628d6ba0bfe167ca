"""Weighted energy diagnostics computed from velocity snapshots.

From a spectral velocity state this module derives the Laplacian unknowns,
the symmetrised good unknowns for the planar components, and the full set of
weighted Sobolev norms that the global-in-time theory controls: ghost-weighted
planar energies, doubly weighted third-component energies, x-averaged norms at
one derivative less, and the L2-in-time members accumulated by trapezoid rule.
Each row checks the nine a-priori hypotheses of the bootstrap, bounds of
size 8*{eps, C0 eps nu^{-1/3}, C1 eps/nu, C0 eps/nu} for user-supplied
constants C0 > C1; ``_BOUNDS`` states all nine, one flag per line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _kernels
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
    """Trapezoid-rule running integrals of squared integrands, plus maxima.

    Owned by a single run; ``update`` must be called with increasing times.
    """

    def __init__(self) -> None:
        self.integrals: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self._prev_t: float | None = None
        self._prev_sq: dict[str, float] = {}

    def update(self, t: float, integrands: dict[str, float]) -> dict[str, float]:
        sq = {name: v * v for name, v in integrands.items()}
        if self._prev_t is not None:
            dt = t - self._prev_t
            if dt < 0:
                raise ValueError("accumulator times must be nondecreasing")
            for name, v in sq.items():
                prev = self._prev_sq.get(name, 0.0)
                self.integrals[name] = self.integrals.get(name, 0.0) + 0.5 * dt * (prev + v)
        else:
            for name in sq:
                self.integrals.setdefault(name, 0.0)
        self._prev_t = t
        self._prev_sq = sq
        return {name: math.sqrt(v) for name, v in self.integrals.items()}

    def note_max(self, values: dict[str, float]) -> None:
        for name, v in values.items():
            self.maxima[name] = max(self.maxima.get(name, 0.0), v)


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


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) for equal shapes, without the product temporary.

    einsum, not np.dot: a multithreaded BLAS dot was tens of times slower on
    the 1 MiB weight arrays of a 32x128x32 grid.
    """
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


# the norms of the k = 0 plane, in the order of ``_ledger_constants``' plane weights
_PLANE_NORMS = ("Q0_{}_HN", "grad_Q0_{}_HN", "U0_{}_HNm1", "grad_U0_{}_HNm1")


@_time_cache(maxsize=2)  # one (grid, nu, sigma) per row; a second does not evict the first
def _ledger_constants(grid: GridSpec, nu: float, N: float) -> tuple:
    """The ledger's time-independent weights, built once per run: read-only.

    The constants of m, M and -Mdot M on the k != 0 rows of the box
    (``_kernels.weight_constants``), and the four weights of the k = 0
    plane, where w = eta^2 + l^2 has no t: hsN w^2 and hsN w^3 for Q0 and
    its gradient, hsNm1 and hsNm1 w for U0 and its gradient.  The plane's w
    is 0 at the mean mode, not the unit-safe 1 of ``frame_symbols``, since
    grad_U0 must not count the mean mode.
    """
    wv = _waves(grid, True)
    w0 = (wv.k2[:1] + wv.eta * wv.eta + wv.l2)[0]  # the frame symbol's w on the plane, at any t
    w0[0, 0] = 0.0
    hq = _box_sobolev_weights(grid, N)[0] * w0 * w0
    hsNm1 = _box_sobolev_weights(grid, N - 1.0)[0]
    plane = (hq, hq * w0, hsNm1, hsNm1 * w0)
    for a in plane:
        a.flags.writeable = False
    return _kernels.weight_constants(wv.k[1:], wv.eta, wv.l, nu), plane


@_time_cache(maxsize=2)  # the row time of a lockstep round, and the next
def _ledger_weights(grid: GridSpec, nu: float, N: float, t: float) -> tuple:
    """M^2 and -Mdot M = M^2 nu^{1/3} / (1 + x^2), as (nk-1, nj), and m on the k != 0 rows of the box.

    Only what depends on t is computed here, from ``_ledger_constants`` and
    the box's frame symbol w(t).  Read-only.
    """
    consts, _ = _ledger_constants(grid, nu, N)
    M2, dmm, m = _kernels.weights(consts, t, frame_symbols(grid, t, box=True)[3][1:])
    weights = (M2[..., 0], dmm[..., 0], m)
    for a in weights:
        a.flags.writeable = False
    return weights


def bootstrap_report(box: np.ndarray, t: float, cfg: SimConfig, acc: Accumulators) -> EnergyReport:
    """Evaluate every tracked norm at time t and update the time integrals.

    ``box`` is the retained (3, 2cx+1, 2cy+1, cz+1) box of ``cfg.grid`` that
    ``step`` carries (``simulation._box`` of a field): the velocity is its
    expansion, zero off the box and each l < 0 mode the conjugate of its
    l > 0 reflection, as every state of ``run`` is.  Every norm is a
    weighted sum of one power spectrum P_i = |c_i|^2, since |K1|^2 =
    |k,l|^2 w P1, |K2|^2 = k^2 w P2 and |Q_i|^2 = w^2 P_i; an
    l > 0 mode counts twice, for itself and its reflection, whose weights
    are equal, and the l = 0 plane, stored whole, once.  M^2 and -Mdot M
    have no l, so each k != 0 family (K1, K2, m Q3) takes one product with
    the Sobolev weight, one sum over l and dot products over (k, eta); the
    x-averaged norms are taken on the k = 0 plane alone.

    Each flag of ``_BOUNDS`` compares its running max plus its running
    integrals with its bound for the configured constants; a raised flag
    before t = 1 is informational only,
    since the hypotheses are formulated past the local-existence window.
    """
    grid = cfg.grid
    N = cfg.N
    sym = frame_symbols(grid, t, box=True)
    M2, dmm, m = _ledger_weights(grid, cfg.nu, N, t)
    plane = _ledger_constants(grid, cfg.nu, N)[1]
    P = box.real**2 + box.imag**2
    P[..., 1:] *= 2.0

    def norm(total: float) -> float:
        return math.sqrt(total * grid.cell_measure)

    norms: dict[str, float] = {}

    # k != 0: rows 1.. of the box
    wv = _waves(grid, True)
    wn = sym[3][1:]
    h = _box_sobolev_weights(grid, N)[1:]
    P1, P2, P3 = P[:, 1:]
    hw = h * wn
    hwP1 = hw * P1
    hwP2 = hw * P2
    families = (  # hsN times |K1|^2, |K2|^2 and |m Q3|^2
        ("MK1_neq_HN", "dMM_K1_HN", "gradL_MK1_HN", hwP1 * wv.kl2[1:]),
        ("MK2_neq_HN", "dMM_K2_HN", "gradL_MK2_HN", hwP2 * wv.k2[1:]),
        ("mMQ3_neq_HN", "dMM_mQ3_HN", "gradL_mMQ3_HN", h * (m * wn) ** 2 * P3),
    )
    plain = []
    for name_M, name_dmm, name_grad, A in families:
        a = A.sum(axis=2)
        b = np.einsum("ijk,ijk->ij", A, wn)
        plain.append(float(a.sum()))
        norms[name_M] = norm(_dot(a, M2))
        norms[name_dmm] = norm(_dot(a, dmm))
        norms[name_grad] = norm(_dot(b, M2))
    norms["Kcheck_neq_HN"] = norm(plain[0] + plain[1])
    norms["mQ3_neq_HN"] = norm(plain[2])
    for i, p in enumerate((P1, P2, P3), start=1):
        norms[f"U{i}_neq_HN"] = norm(_dot(h, p))
    norms["U_neq_HN_total"] = math.sqrt(
        norms["U1_neq_HN"] ** 2 + norms["U2_neq_HN"] ** 2 + norms["U3_neq_HN"] ** 2
    )
    norms["U12_neq_L2"] = norm(float(P1.sum() + P2.sum()))
    norms["gradL_U12_neq_HN"] = norm(float(hwP1.sum() + hwP2.sum()))

    # k = 0: the x-averaged plane, where w = eta^2 + l^2
    for i, p in enumerate(P, start=1):
        for name, weight in zip(_PLANE_NORMS, plane):
            norms[name.format(i)] = norm(_dot(weight, p[0]))

    norms["div_defect"] = _divergence_max(box, sym)

    norms.update(acc.update(t, {c: norms[c[4:]] for c in ACCUMULATED_COLUMNS}))
    acc.note_max({x: norms[x] for x, *_ in _BOUNDS.values()})

    eps, nu = cfg.eps, cfg.nu
    rnu = math.sqrt(nu)
    bound = {
        "1": 8.0 * eps,
        "C0 nu^-1/3": 8.0 * cfg.C0 * eps * nu ** (-1.0 / 3.0),
        "C1/nu": 8.0 * cfg.C1 * eps / nu,
        "C0/nu": 8.0 * cfg.C0 * eps / nu,
    }
    flags = {}
    for flag, (x, weighted, unweighted, size) in _BOUNDS.items():
        lhs = acc.maxima[x] + sum(rnu * norms[n] for n in weighted)
        flags[flag] = sum((norms[n] for n in unweighted), lhs) > bound[size]
    return EnergyReport(t=t, norms=norms, flags=flags)
