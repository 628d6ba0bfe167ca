"""Weighted energy diagnostics computed from velocity snapshots.

From a spectral velocity state this module derives the Laplacian unknowns,
the symmetrised good unknowns for the planar components, and the full set of
weighted Sobolev norms that the global-in-time theory controls: ghost-weighted
planar energies, doubly weighted third-component energies, x-averaged norms at
one derivative less, and the L2-in-time members accumulated by trapezoid rule.
Each row can be checked against the a-priori bound shapes 8*{eps, C1 eps/nu,
C0 eps nu^{-1/3}, ...} for user-supplied constants C0 > C1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

from . import _kernels
from .simulation import SimConfig, VelocityField, _waves, frame_symbols
from .spectral import GridSpec, SpectralField

__all__ = [
    "EnergyReport",
    "Accumulators",
    "compute_Q",
    "compute_K_check",
    "bootstrap_report",
    "dissipation_scaling_fits",
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

FLAG_NAMES = [
    "flag_K1",
    "flag_K2",
    "flag_Q3",
    "flag_Q0_1",
    "flag_Q0_2",
    "flag_Q0_3",
    "flag_U0_1",
    "flag_U0_2",
    "flag_U0_3",
]


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


def compute_Q(U: VelocityField, t: float | None = None, beta: float = 1.0):
    """Laplacian unknowns: Q_i = -w(t) * U_i per mode."""
    if t is None:
        t = U.time
    _, _, _, w = frame_symbols(U.grid, t, beta)
    w = w.copy()
    w[0, 0, 0] = 0.0  # excluded mean mode
    return tuple(SpectralField(U.grid, -w * c, t) for c in U.coeff_arrays())


def compute_K_check(U: VelocityField, t: float | None = None, beta: float = 1.0):
    """Symmetrised good unknowns for the planar pair.

    K1 = -|k,l| |k, eta-kt, l| U1 and K2 = -|k| |k, eta-kt, l| U2; the planar
    velocities are recoverable wherever the prefactors do not vanish.
    """
    if t is None:
        t = U.time
    grid = U.grid
    kk, etal, ll, w = frame_symbols(grid, t, beta)
    rw = np.sqrt(kk * kk + etal * etal + ll * ll)
    kl = np.sqrt(kk * kk + ll * ll)
    k1 = -kl * rw * U.u1.coeffs
    k2 = -np.abs(kk) * rw * U.u2.coeffs
    return (SpectralField(grid, k1, t), SpectralField(grid, k2, t))


def _weighted_norm(grid: GridSpec, coeffs: np.ndarray, weight_sq: np.ndarray | float) -> float:
    power = coeffs.real**2 + coeffs.imag**2
    return float(np.sqrt(np.sum(weight_sq * power) * grid.cell_measure))


def _multiplier_grids(grid: GridSpec, t: float, nu: float, window: float):
    """m over the coefficient layout; M and -Mdot/M, which have no l, as (Nx,Ny,1)."""
    wv = _waves(grid, False)
    m = _kernels.m_values(t, wv.k, wv.eta, wv.l, nu, window)
    M = _kernels.M_values(t, wv.k, wv.eta, wv.l, nu)
    dmm = _kernels.neg_MdotM_values(t, wv.k, wv.eta, wv.l, nu)
    return m, M, dmm


def bootstrap_report(U: VelocityField, t: float, cfg: SimConfig, acc: Accumulators) -> EnergyReport:
    """Evaluate every tracked norm at time t and update the time integrals.

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


def dissipation_scaling_fits(runs: Sequence, quantities: dict[str, float] | None = None) -> dict:
    """Fit the viscosity scaling of the accumulated enhanced-dissipation norms.

    For each tracked L2-in-time quantity this regresses log(final integral)
    against log(nu) across the supplied runs and reports the fitted exponent,
    the predicted exponent and the fit residual.  Requires at least three
    distinct viscosities.
    """
    if quantities is None:
        quantities = {
            "int_Kcheck_neq_HN": -1.0 / 6.0,
            "int_mQ3_neq_HN": -1.0 / 2.0,
            "int_gradL_U12_neq_HN": -1.0 / 6.0,
        }
    nus = [r.cfg.nu for r in runs]
    if len(set(nus)) < 3:
        raise ValueError(f"need runs at >= 3 distinct viscosities, got {sorted(set(nus))}")
    x = np.log(np.array(nus, dtype=float))
    out = {}
    for name, predicted in quantities.items():
        y = np.log(np.array([r.reports[-1].norms[name] for r in runs], dtype=float))
        coeffs, residuals, *_ = np.polyfit(x, y, 1, full=True)
        slope = float(coeffs[0])
        resid = float(residuals[0]) if len(residuals) else 0.0
        out[name] = {"exponent": slope, "predicted": predicted, "residual": resid}
    return out
