"""Amplitude/viscosity sweeps of nonlinear runs with stability classification.

A run is classified by a finite-horizon surrogate for orbital stability of
the laminar state: it is unstable when it blows up or when the monitored
non-zero-frequency norm ever exceeds a growth factor times its initial value,
stable when it additionally ends below where it started, and inconclusive
otherwise.  Per viscosity, the largest stable amplitude defines an empirical
threshold; its log-log slope against viscosity is the measured transition
exponent.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .diagnostics import ACCUMULATED_COLUMNS, INSTANT_COLUMNS
from .simulation import RunResult, SimConfig, run

__all__ = [
    "ClassifyCriteria",
    "SweepConfig",
    "CellResult",
    "ThresholdResult",
    "classify_run",
    "sweep",
    "fit_gamma",
    "default_horizon",
]


def default_horizon(nu: float) -> float:
    """Run length covering the cubic-decay timescale: min(50, 10 nu^{-1/3})."""
    return min(50.0, 10.0 * nu ** (-1.0 / 3.0))


@dataclass(frozen=True)
class ClassifyCriteria:
    """Finite-horizon stability surrogate parameters."""

    horizon: float | None = None  # None: default_horizon(nu)
    growth_factor: float = 10.0
    norm_name: str = "U_neq_HN_total"

    def __post_init__(self) -> None:
        if self.growth_factor <= 1.0:
            raise ValueError(f"growth_factor must exceed 1, got {self.growth_factor}")
        if self.norm_name not in INSTANT_COLUMNS + ACCUMULATED_COLUMNS:
            raise ValueError(f"norm_name {self.norm_name!r} is not an energy.csv norm column")


@dataclass(frozen=True)
class SweepConfig:
    """Grid of (nu, eps) cells sharing one template configuration."""

    nu_grid: tuple[float, ...]
    eps_min: float
    eps_max: float
    eps_points: int
    base: SimConfig
    classify: ClassifyCriteria = ClassifyCriteria()
    bisect: bool = False
    bisect_rel_width: float = 0.10

    def __post_init__(self) -> None:
        if not self.nu_grid or any(nu <= 0 for nu in self.nu_grid):
            raise ValueError("nu_grid must be nonempty and positive")
        if self.eps_min <= 0 or self.eps_max < self.eps_min:
            raise ValueError("need 0 < eps_min <= eps_max")
        if self.eps_points < 1:
            raise ValueError("eps_points must be at least 1")
        if not self.bisect_rel_width > 0:
            # the bisection stops only once the bracket is narrower than this
            raise ValueError(f"bisect_rel_width must be positive, got {self.bisect_rel_width}")

    def eps_grid(self) -> np.ndarray:
        if self.eps_points == 1:
            return np.array([self.eps_min])
        return np.geomspace(self.eps_min, self.eps_max, self.eps_points)


@dataclass
class CellResult:
    nu: float
    eps: float
    outcome: str  # stable | unstable | inconclusive
    peak_norm: float
    t_peak: float
    status: str  # completed | blown_up
    refined: bool = False


@dataclass
class ThresholdResult:
    cells: list[CellResult]
    eps_star: dict[float, float | None]
    censored: dict[float, bool]
    gamma: float | None
    gamma_ci: tuple[float, float] | None
    repaired: list[tuple[float, float]] = field(default_factory=list)


def classify_run(result: RunResult, criteria: ClassifyCriteria) -> str:
    """Classify one completed or blown-up trajectory.

    unstable:   blow-up, or the monitored norm exceeded G times its initial value;
    stable:     no such excursion and the final value sits below the initial one
                (an identically zero run counts as stable);
    inconclusive otherwise.
    """
    if result.blown_up:
        return "unstable"
    _, series = result.norm_series(criteria.norm_name)
    initial = float(series[0])
    peak = float(np.max(series))
    final = float(series[-1])
    if initial == 0.0:
        return "stable" if peak == 0.0 else "unstable"
    if peak > criteria.growth_factor * initial:
        return "unstable"
    if final < initial:
        return "stable"
    return "inconclusive"


def _cell_seed(base_seed: int, i_nu: int, i_eps: int) -> int:
    return base_seed + 7919 * (i_nu + 1) + 104729 * (i_eps + 1)


def _run_cell(cfg: SweepConfig, nu: float, eps: float, seed: int) -> CellResult:
    horizon = cfg.classify.horizon if cfg.classify.horizon is not None else default_horizon(nu)
    sim_cfg = replace(cfg.base, nu=nu, eps=eps, t_end=horizon, seed=seed, nonlinear_enabled=True)
    result = run(sim_cfg)
    outcome = classify_run(result, cfg.classify)
    ts, series = result.norm_series(cfg.classify.norm_name)
    ipk = int(np.argmax(series))
    return CellResult(
        nu=nu,
        eps=eps,
        outcome=outcome,
        peak_norm=float(series[ipk]),
        t_peak=float(ts[ipk]),
        status=result.status,
    )


def _guarded_cell(cfg: SweepConfig, nu: float, eps: float, seed: int) -> CellResult:
    """``_run_cell`` with failures recorded as an inconclusive error cell."""
    try:
        return _run_cell(cfg, nu, eps, seed)
    except Exception as exc:  # cell failures must not abort the sweep
        return CellResult(
            nu=nu,
            eps=eps,
            outcome="inconclusive",
            peak_norm=math.nan,
            t_peak=math.nan,
            status=f"error: {exc}",
        )


def _repair_monotone(cells: list[CellResult]) -> list[tuple[float, float]]:
    """Mark order-violating (stable above unstable) pairs inconclusive."""
    repaired = []
    ordered = sorted(cells, key=lambda c: c.eps)
    for i, low in enumerate(ordered):
        for high in ordered[i + 1 :]:
            if low.outcome == "unstable" and high.outcome == "stable":
                low.outcome = "inconclusive"
                high.outcome = "inconclusive"
                repaired.append((low.nu, low.eps))
                repaired.append((high.nu, high.eps))
    return repaired


def fit_gamma(nus: Sequence[float], eps_stars: Sequence[float]) -> tuple[float, tuple[float, float]]:
    """OLS slope of log(eps*) against log(nu) with a normal 95% interval."""
    x = np.log(np.asarray(nus, dtype=float))
    y = np.log(np.asarray(eps_stars, dtype=float))
    if len(x) < 2:
        raise ValueError("need at least two uncensored thresholds to fit an exponent")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = max(len(x) - 2, 1)
    sxx = float(np.sum((x - x.mean()) ** 2))
    se = math.sqrt(float(np.sum(resid**2)) / dof / sxx) if sxx > 0 else math.inf
    return float(slope), (float(slope - 1.96 * se), float(slope + 1.96 * se))


def sweep(cfg: SweepConfig, threads: int = 1, checkpoint=None) -> ThresholdResult:
    """Run every (nu, eps) cell, classify, repair, and fit the exponent.

    Cells are independent and may execute concurrently; results are merged in
    grid order so the outcome is independent of scheduling.  ``checkpoint``
    may map (nu, eps) to precomputed ``CellResult`` rows (e.g. parsed from a
    partial sweep CSV); matching cells are not recomputed.  An exception inside
    a cell does not abort the sweep: the cell is recorded as ``inconclusive``
    with an ``error: ...`` status.
    """
    eps_grid = cfg.eps_grid()
    jobs = []
    for i_nu, nu in enumerate(cfg.nu_grid):
        for i_eps, eps in enumerate(eps_grid):
            jobs.append((i_nu, float(nu), i_eps, float(eps)))

    checkpoint = checkpoint or {}
    results: dict[tuple[float, float], CellResult] = {}

    def work(job):
        i_nu, nu, i_eps, eps = job
        key = (nu, eps)
        if key in checkpoint:
            return key, checkpoint[key]
        return key, _guarded_cell(cfg, nu, eps, _cell_seed(cfg.base.seed, i_nu, i_eps))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for key, cell in pool.map(work, jobs):
                results[key] = cell
    else:
        for job in jobs:
            key, cell = work(job)
            results[key] = cell

    cells: list[CellResult] = [results[(nu, eps)] for _, nu, _, eps in jobs]

    repaired: list[tuple[float, float]] = []
    eps_star: dict[float, float | None] = {}
    censored: dict[float, bool] = {}
    for i_nu, nu in enumerate(cfg.nu_grid):
        nu = float(nu)
        per_nu = [c for c in cells if c.nu == nu]
        repaired.extend(_repair_monotone(per_nu))
        stable = sorted(c.eps for c in per_nu if c.outcome == "stable")
        unstable = sorted(c.eps for c in per_nu if c.outcome == "unstable")
        if not stable:
            eps_star[nu] = None
            censored[nu] = True
            continue
        star = stable[-1]
        if not unstable:
            # never saw the transition: the threshold lies above the grid
            eps_star[nu] = star
            censored[nu] = True
            continue
        upper = min(u for u in unstable if u > star)
        if cfg.bisect:
            star, upper, extra = _bisect(cfg, i_nu, nu, star, upper)
            cells.extend(extra)
        eps_star[nu] = star
        censored[nu] = False

    usable = [(nu, s) for nu, s in eps_star.items() if s is not None and not censored[nu]]
    gamma = None
    ci = None
    if len(usable) >= 2:
        gamma, ci = fit_gamma([u[0] for u in usable], [u[1] for u in usable])
    return ThresholdResult(
        cells=cells,
        eps_star=eps_star,
        censored=censored,
        gamma=gamma,
        gamma_ci=ci,
        repaired=repaired,
    )


def _bisect(cfg: SweepConfig, i_nu: int, nu: float, lo: float, hi: float):
    """Geometric bisection of the stable/unstable bracket to the target width.

    Refinement cells are seeded like grid cells of the same viscosity, with
    amplitude indices from 10000 on; a failing cell ends the refinement.
    """
    extra: list[CellResult] = []
    i_extra = 10_000
    while hi / lo - 1.0 > cfg.bisect_rel_width:
        mid = math.sqrt(lo * hi)
        cell = _guarded_cell(cfg, nu, mid, _cell_seed(cfg.base.seed, i_nu, i_extra))
        cell.refined = True
        extra.append(cell)
        i_extra += 1
        if cell.outcome == "stable":
            lo = mid
        elif cell.outcome == "unstable":
            hi = mid
        else:
            break
    return lo, hi, extra
