"""Amplitude/viscosity sweeps of nonlinear runs with stability classification.

A run is classified by a finite-horizon surrogate for orbital stability of
the laminar state: it is unstable when it blows up or when the monitored
non-zero-frequency norm ever exceeds a growth factor times its initial value,
stable when it additionally ends below where it started, and inconclusive
otherwise.  Per viscosity, the largest stable amplitude defines an empirical
threshold; its log-log slope against viscosity is the measured transition
exponent.  A sweep runs one viscosity row at a time: the row's grid cells
advance in lockstep in one ``run``, sharing each time's operators, then the
bisection of its stable/unstable bracket runs one cell at a time.
"""

from __future__ import annotations

import math
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
        if self.horizon is not None and not 0.0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if not 1.0 < self.growth_factor < math.inf:
            raise ValueError(f"growth_factor must be finite and exceed 1, got {self.growth_factor}")
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
        if not self.nu_grid or not all(0.0 < nu < 1.0 for nu in self.nu_grid):
            raise ValueError(f"nu_grid must be nonempty and lie in (0, 1), got {self.nu_grid}")
        if not 0.0 < self.eps_min <= self.eps_max < math.inf:
            raise ValueError("need 0 < eps_min <= eps_max < inf")
        if self.eps_points < 1:
            raise ValueError("eps_points must be at least 1")
        if self.base.ic_kind == "file":
            raise ValueError("a sweep cannot start from ic_kind = file: the snapshot is not "
                             "rescaled by eps, so every cell of a nu would run the same state")
        if not self.bisect_rel_width > 0:
            # the bisection stops only once the bracket is narrower than this
            raise ValueError(f"bisect_rel_width must be positive, got {self.bisect_rel_width}")
        # a repeated (nu, eps) cell would run again, and only one of its runs be kept
        if len(set(self.nu_grid)) < len(self.nu_grid):
            raise ValueError(f"nu_grid repeats a viscosity: {self.nu_grid}")
        if len(set(self.eps_grid().tolist())) < self.eps_points:
            raise ValueError("the eps grid repeats an amplitude: eps_points > 1 needs eps_min < eps_max")
        if self.eps_points == 1 and self.eps_min != self.eps_max:
            raise ValueError("eps_points = 1 runs eps_min alone: it needs eps_min = eps_max")

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
    status: str  # completed | blown_up | error: ...
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


def _run_cells(cfg: SweepConfig, nu: float, cells: list[tuple[float, int]]) -> list[CellResult]:
    """Run the (eps, seed) cells of one viscosity in one lockstep ``run`` and classify each.

    A cell whose run or classification fails becomes an inconclusive cell
    with an ``error: ...`` status; the other cells are not affected.
    """
    horizon = cfg.classify.horizon if cfg.classify.horizon is not None else default_horizon(nu)
    # a cell writes no snapshot, so it keeps none in memory either
    sims = [
        replace(cfg.base, nu=nu, eps=eps, t_end=horizon, seed=seed, nonlinear_enabled=True,
                snapshot_every=0)
        for eps, seed in cells
    ]
    return [_cell_result(cfg, result) for result in run(sims)]


def _cell_result(cfg: SweepConfig, result: RunResult) -> CellResult:
    nu, eps = result.cfg.nu, result.cfg.eps
    try:
        if result.error is not None:
            raise result.error
        outcome = classify_run(result, cfg.classify)
        ts, series = result.norm_series(cfg.classify.norm_name)
        ipk = int(np.argmax(series))
        return CellResult(nu=nu, eps=eps, outcome=outcome, peak_norm=float(series[ipk]),
                          t_peak=float(ts[ipk]), status=result.status)
    except Exception as exc:  # cell failures must not abort the sweep
        return CellResult(nu=nu, eps=eps, outcome="inconclusive", peak_norm=math.nan,
                          t_peak=math.nan, status=f"error: {exc}")


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


def _t975(dof: int) -> float:
    """The 97.5 % quantile of Student's t with dof degrees of freedom.

    Exact at one (Cauchy) and two degrees of freedom; from three on the
    Cornish-Fisher series of Abramowitz & Stegun 26.7.5 in 1 / dof through
    the fourth power, within 0.13 % of the exact quantile.
    """
    if dof == 1:
        return math.tan(0.475 * math.pi)
    if dof == 2:
        return 0.95 * math.sqrt(2.0 / (1.0 - 0.95**2))
    x = 1.959963984540054  # the normal 97.5 % quantile
    g = (
        (x**3 + x) / 4.0,
        (5 * x**5 + 16 * x**3 + 3 * x) / 96.0,
        (3 * x**7 + 19 * x**5 + 17 * x**3 - 15 * x) / 384.0,
        (79 * x**9 + 776 * x**7 + 1482 * x**5 - 1920 * x**3 - 945 * x) / 92160.0,
    )
    return x + sum(gi / dof ** (i + 1) for i, gi in enumerate(g))


def fit_gamma(
    nus: Sequence[float], eps_stars: Sequence[float]
) -> tuple[float, tuple[float, float] | None]:
    """OLS slope of log(eps*) against log(nu) with a 95% interval, None below three points.

    The interval is slope +- t se, with t the 97.5 % quantile of Student's t
    for the n - 2 residual degrees of freedom (12.71 at three points).
    """
    x = np.log(np.asarray(nus, dtype=float))
    y = np.log(np.asarray(eps_stars, dtype=float))
    if len(x) < 2:
        raise ValueError("need at least two uncensored thresholds to fit an exponent")
    slope, intercept = np.polyfit(x, y, 1)
    if len(x) < 3:
        return float(slope), None
    resid = y - (slope * x + intercept)
    dof = len(x) - 2
    sxx = float(np.sum((x - x.mean()) ** 2))
    se = math.sqrt(float(np.sum(resid**2)) / dof / sxx) if sxx > 0 else math.inf
    half = _t975(dof) * se
    return float(slope), (float(slope - half), float(slope + half))


def sweep(cfg: SweepConfig, checkpoint=None) -> ThresholdResult:
    """Run every (nu, eps) cell row by row, classify, repair, and fit the exponent.

    ``checkpoint`` may map (nu, eps) to precomputed ``CellResult`` rows (e.g.
    parsed from a partial sweep CSV); matching cells are not recomputed, and
    the others of a row run in one lockstep ``run``.  An exception inside a
    cell does not abort the sweep: the cell is recorded as ``inconclusive``
    with an ``error: ...`` status.
    """
    eps_grid = cfg.eps_grid()
    checkpoint = checkpoint or {}
    cells: list[CellResult] = []
    repaired: list[tuple[float, float]] = []
    eps_star: dict[float, float | None] = {}
    censored: dict[float, bool] = {}
    for i_nu, nu in enumerate(cfg.nu_grid):
        nu = float(nu)
        row = [checkpoint.get((nu, float(eps))) for eps in eps_grid]
        todo = [i for i, c in enumerate(row) if c is None]
        if todo:
            ran = _run_cells(
                cfg, nu, [(float(eps_grid[i]), _cell_seed(cfg.base.seed, i_nu, i)) for i in todo]
            )
            for i, cell in zip(todo, ran):
                row[i] = cell
        cells.extend(row)
        repaired.extend(_repair_monotone(row))
        stable = [c.eps for c in row if c.outcome == "stable"]
        unstable = [c.eps for c in row if c.outcome == "unstable"]
        # after the repair every unstable amplitude lies above every stable one
        eps_star[nu] = max(stable, default=None)
        # no stable or no unstable cell: the threshold lies outside the grid
        censored[nu] = not (stable and unstable)
        if cfg.bisect and not censored[nu]:
            eps_star[nu], extra = _bisect(cfg, i_nu, nu, eps_star[nu], min(unstable))
            cells.extend(extra)

    usable = [(nu, star) for nu, star in eps_star.items() if not censored[nu]]
    gamma, ci = fit_gamma(*zip(*usable)) if len(usable) >= 2 else (None, None)
    return ThresholdResult(cells, eps_star, censored, gamma, ci, repaired)


def _bisect(cfg: SweepConfig, i_nu: int, nu: float, lo: float, hi: float):
    """Geometric bisection of the stable/unstable bracket to the target width.

    Returns the largest stable amplitude found and the refinement cells.  These
    are seeded like grid cells of the same viscosity, with amplitude indices
    from 10000 on; a failing cell ends the refinement.
    """
    extra: list[CellResult] = []
    while hi / lo - 1.0 > cfg.bisect_rel_width:
        mid = math.sqrt(lo * hi)
        (cell,) = _run_cells(cfg, nu, [(mid, _cell_seed(cfg.base.seed, i_nu, 10_000 + len(extra)))])
        cell.refined = True
        extra.append(cell)
        if cell.outcome == "stable":
            lo = mid
        elif cell.outcome == "unstable":
            hi = mid
        else:
            break
    return lo, extra
