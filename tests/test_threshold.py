"""Tests for stability classification and the amplitude/viscosity sweep."""

import math
from dataclasses import replace

import numpy as np
import pytest

from rotcouette.diagnostics import EnergyReport
from rotcouette.simulation import RunResult, SimConfig, run
from rotcouette import threshold
from rotcouette.spectral import GridSpec
from rotcouette.threshold import (
    CellResult,
    ClassifyCriteria,
    SweepConfig,
    _cell_seed,
    _repair_monotone,
    classify_run,
    default_horizon,
    fit_gamma,
    sweep,
)

GRID = GridSpec(8, 16, 8, Ly=32.0)


def fake_result(series, status="completed"):
    cfg = SimConfig(nu=1e-2, grid=GRID)
    reports = [
        EnergyReport(t=float(i), norms={"U_neq_HN_total": float(v)})
        for i, v in enumerate(series)
    ]
    return RunResult(cfg=cfg, times=[r.t for r in reports], reports=reports, status=status)


class TestClassify:
    def test_zero_run_is_stable(self):
        res = fake_result([0.0, 0.0, 0.0])
        assert classify_run(res, ClassifyCriteria(horizon=2.0)) == "stable"

    def test_blown_up_is_unstable(self):
        res = fake_result([1.0, 5.0], status="blown_up")
        assert classify_run(res, ClassifyCriteria(horizon=2.0)) == "unstable"

    def test_excursion_is_unstable(self):
        res = fake_result([1.0, 20.0, 0.5])
        assert classify_run(res, ClassifyCriteria(horizon=2.0, growth_factor=10.0)) == "unstable"

    def test_decay_is_stable(self):
        res = fake_result([1.0, 1.5, 0.2])
        assert classify_run(res, ClassifyCriteria(horizon=2.0)) == "stable"

    def test_unknown_norm_name_rejected(self):
        with pytest.raises(ValueError, match="U_neq_HN_totl"):
            ClassifyCriteria(norm_name="U_neq_HN_totl")
        assert ClassifyCriteria(norm_name="int_Kcheck_neq_HN").norm_name == "int_Kcheck_neq_HN"

    def test_flat_is_inconclusive(self):
        res = fake_result([1.0, 1.0, 1.0])
        assert classify_run(res, ClassifyCriteria(horizon=2.0)) == "inconclusive"

    def test_linear_run_is_stable(self):
        cfg = SimConfig(
            nu=2e-2, grid=GRID, dt=0.02, t_end=12.0, eps=1e-5,
            nonlinear_enabled=False, diag_every=10,
        )
        res = run(cfg)
        for g in (2.0, 10.0):
            assert classify_run(res, ClassifyCriteria(horizon=12.0, growth_factor=g)) == "stable"


class TestRepairAndFit:
    def test_monotone_repair(self):
        cells = [
            CellResult(nu=1e-2, eps=1e-6, outcome="unstable", peak_norm=1, t_peak=0, status="completed"),
            CellResult(nu=1e-2, eps=1e-5, outcome="stable", peak_norm=1, t_peak=0, status="completed"),
            CellResult(nu=1e-2, eps=1e-4, outcome="unstable", peak_norm=1, t_peak=0, status="completed"),
        ]
        repaired = _repair_monotone(cells)
        assert cells[0].outcome == "inconclusive"
        assert cells[1].outcome == "inconclusive"
        assert cells[2].outcome == "unstable"
        assert len(repaired) == 2

    def test_fit_gamma_exact_square_law(self):
        nus = [1e-1, 3e-2, 1e-2, 3e-3]
        stars = [nu**2 for nu in nus]
        gamma, ci = fit_gamma(nus, stars)
        assert gamma == pytest.approx(2.0, abs=1e-6)
        assert ci[0] <= 2.0 <= ci[1]

    def test_default_horizon(self):
        assert default_horizon(1.0) == 10.0
        assert default_horizon(1e-6) == 50.0


class TestSweep:
    def small_sweep_config(self, **kw):
        base = SimConfig(
            nu=1e-2, grid=GRID, dt=0.05, t_end=1.0, eps=1.0,
            nonlinear_enabled=True, diag_every=5, seed=1,
        )
        defaults = dict(
            nu_grid=(2e-2, 1e-2),
            eps_min=1e-7,
            eps_max=1e-5,
            eps_points=2,
            base=base,
            classify=ClassifyCriteria(horizon=3.0, growth_factor=10.0),
        )
        defaults.update(kw)
        return SweepConfig(**defaults)

    def test_all_small_amplitudes_stable(self):
        result = sweep(self.small_sweep_config())
        assert all(c.outcome == "stable" for c in result.cells)
        for nu in (2e-2, 1e-2):
            assert result.censored[nu]  # transition never seen: censored high
            assert result.eps_star[nu] == 1e-5

    def test_determinism(self):
        cfg = self.small_sweep_config()
        a = sweep(cfg)
        b = sweep(cfg)
        for ca, cb in zip(a.cells, b.cells):
            assert (ca.nu, ca.eps, ca.outcome, ca.peak_norm) == (cb.nu, cb.eps, cb.outcome, cb.peak_norm)

    def test_threads_match_serial(self):
        cfg = self.small_sweep_config()
        a = sweep(cfg, threads=1)
        b = sweep(cfg, threads=2)
        for ca, cb in zip(a.cells, b.cells):
            assert (ca.nu, ca.eps, ca.outcome) == (cb.nu, cb.eps, cb.outcome)

    def test_checkpoint_skips_cells(self):
        cfg = self.small_sweep_config()
        first = sweep(cfg)
        marker = {
            (c.nu, c.eps): replace_cell_status(c, "checkpointed") for c in first.cells
        }
        second = sweep(cfg, checkpoint=marker)
        assert all(c.status == "checkpointed" for c in second.cells)
        assert second.eps_star == first.eps_star

    def test_single_cell_equals_classify(self):
        cfg = self.small_sweep_config(nu_grid=(1e-2,), eps_points=1, eps_min=1e-6, eps_max=1e-6)
        result = sweep(cfg)
        assert len(result.cells) == 1
        sim_cfg = replace(
            cfg.base, nu=1e-2, eps=1e-6, t_end=3.0, seed=cfg.base.seed + 7919 + 104729,
            nonlinear_enabled=True,
        )
        direct = classify_run(run(sim_cfg), cfg.classify)
        assert result.cells[0].outcome == direct

    def test_transition_detected_and_gamma_finite(self):
        # force a transition via a tiny blow-up cap so large eps cells fail fast
        base = SimConfig(
            nu=1e-2, grid=GRID, dt=0.05, t_end=1.0, eps=1.0,
            nonlinear_enabled=True, diag_every=5, seed=1, blowup_cap=1e-3,
        )
        cfg = SweepConfig(
            nu_grid=(2e-2, 1e-2),
            eps_min=1e-7,
            eps_max=1e-2,
            eps_points=4,
            base=base,
            classify=ClassifyCriteria(horizon=2.0, growth_factor=10.0),
        )
        result = sweep(cfg)
        for nu in cfg.nu_grid:
            assert not result.censored[nu]
            assert result.eps_star[nu] is not None
        assert result.gamma is not None


class TestBisect:
    """Refinement driven by a stand-in cell runner with a known threshold."""

    THRESHOLD = {2e-2: 3e-5, 1e-2: 2e-6}

    def config(self):
        base = SimConfig(nu=1e-2, grid=GRID, dt=0.05, seed=11)
        return SweepConfig(
            nu_grid=(2e-2, 1e-2), eps_min=1e-7, eps_max=1e-3, eps_points=3, base=base,
            classify=ClassifyCriteria(horizon=1.0), bisect=True, bisect_rel_width=0.5,
        )

    def fake_runner(self, calls, fail_refined=False):
        grid_eps = set(self.config().eps_grid().tolist())

        def run_cell(cfg, nu, eps, seed):
            calls.append((nu, eps, seed))
            if fail_refined and eps not in grid_eps:
                raise FloatingPointError("injected failure")
            outcome = "stable" if eps < self.THRESHOLD[nu] else "unstable"
            return CellResult(nu=nu, eps=eps, outcome=outcome, peak_norm=eps,
                              t_peak=0.0, status="completed")

        return run_cell

    def test_refinement_seeded_with_viscosity_index(self, monkeypatch):
        calls = []
        monkeypatch.setattr(threshold, "_run_cell", self.fake_runner(calls))
        cfg = self.config()
        result = sweep(cfg)
        grid_eps = set(cfg.eps_grid().tolist())
        for i_nu, nu in enumerate(cfg.nu_grid):
            refined = [seed for n, eps, seed in calls if n == nu and eps not in grid_eps]
            assert refined, f"no refinement at nu = {nu}"
            want = [_cell_seed(cfg.base.seed, i_nu, 10_000 + i) for i in range(len(refined))]
            assert refined == want
            star = result.eps_star[nu]
            assert star < self.THRESHOLD[nu] and not result.censored[nu]
        assert sum(c.refined for c in result.cells) == len(calls) - 6

    @pytest.mark.parametrize("width", [0.0, -0.1, math.nan])
    def test_nonpositive_width_rejected(self, monkeypatch, width):
        # the bracket never gets narrower than a width <= 0: refuse it before any cell runs
        calls = []
        monkeypatch.setattr(threshold, "_run_cell", self.fake_runner(calls))
        with pytest.raises(ValueError, match="bisect_rel_width"):
            replace(self.config(), bisect_rel_width=width)
        assert calls == []

    def test_failing_refinement_cell_does_not_abort(self, monkeypatch):
        calls = []
        monkeypatch.setattr(threshold, "_run_cell", self.fake_runner(calls, fail_refined=True))
        cfg = self.config()
        result = sweep(cfg)
        refined = [c for c in result.cells if c.refined]
        assert len(refined) == len(cfg.nu_grid)  # one failed cell ends each refinement
        for c in refined:
            assert c.outcome == "inconclusive" and c.status.startswith("error:")
            assert math.isnan(c.peak_norm)
        for nu in cfg.nu_grid:
            assert result.eps_star[nu] == max(
                e for e in cfg.eps_grid() if e < self.THRESHOLD[nu]
            )


def replace_cell_status(cell, status):
    return CellResult(
        nu=cell.nu, eps=cell.eps, outcome=cell.outcome, peak_norm=cell.peak_norm,
        t_peak=cell.t_peak, status=status, refined=cell.refined,
    )
