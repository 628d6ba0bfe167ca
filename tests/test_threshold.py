"""Tests for stability classification and the amplitude/viscosity sweep."""

import json
import math
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from rotcouette.diagnostics import EnergyReport
from rotcouette.reporting import write_gamma_json
from rotcouette.simulation import RunResult, SimConfig
from rotcouette import diagnostics, simulation, threshold
from rotcouette.spectral import GridSpec
from rotcouette.threshold import (
    CellResult,
    ClassifyCriteria,
    SweepConfig,
    ThresholdResult,
    _cell_seed,
    _repair_monotone,
    _t975,
    classify_run,
    default_horizon,
    fit_gamma,
    sweep,
)

from oracles import run_one

GRID = GridSpec(8, 16, 8, Ly=32.0)


def fake_result(series, status="completed"):
    cfg = SimConfig(nu=1e-2, grid=GRID)
    reports = [
        EnergyReport(t=float(i), norms={"U_neq_HN_total": float(v)})
        for i, v in enumerate(series)
    ]
    return RunResult(cfg=cfg, reports=reports, status=status)


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
        res = run_one(cfg)
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

    def test_t_quantile_matches_scipy(self):
        from scipy.stats import t

        dofs = np.arange(1, 201)
        ours = np.array([_t975(int(n)) for n in dofs])
        assert np.max(np.abs(ours / t.ppf(0.975, dofs) - 1.0)) <= 1.3e-3
        assert ours[:2] == pytest.approx(t.ppf(0.975, [1, 2]), rel=1e-12)

    def test_fit_gamma_interval_is_student_t(self):
        x = np.log([1e-1, 1e-2, 1e-3])
        y = 2.0 * x + np.array([0.0, 0.3, 0.0])
        gamma, ci = fit_gamma(np.exp(x), np.exp(y))
        resid = y - np.polyval(np.polyfit(x, y, 1), x)
        se = math.sqrt(np.sum(resid**2) / np.sum((x - x.mean()) ** 2))  # one residual dof
        assert ci == pytest.approx((gamma - 12.7062047 * se, gamma + 12.7062047 * se), rel=1e-7)

    def test_fit_gamma_two_points_has_no_interval(self, tmp_path):
        # no residual degree of freedom: a zero-width interval would claim certainty
        gamma, ci = fit_gamma([1e-2, 2e-2], [1.0, 3.0])
        assert gamma == pytest.approx(math.log(3.0) / math.log(2.0))
        assert ci is None
        result = ThresholdResult([], {1e-2: 1.0, 2e-2: 3.0}, {1e-2: False, 2e-2: False}, gamma, ci)
        path = write_gamma_json(tmp_path / "gamma.json", result)
        assert json.loads(path.read_text())["gamma_ci"] is None

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

    def test_checkpoint_skips_cells(self):
        cfg = self.small_sweep_config()
        first = sweep(cfg)
        marker = {
            (c.nu, c.eps): replace_cell_status(c, "checkpointed") for c in first.cells
        }
        second = sweep(cfg, checkpoint=marker)
        assert all(c.status == "checkpointed" for c in second.cells)
        assert second.eps_star == first.eps_star

    def test_one_point_needs_equal_bounds(self):
        # one point is eps_min alone, so a distinct eps_max would be dropped
        with pytest.raises(ValueError, match="eps_points = 1"):
            self.small_sweep_config(eps_points=1, eps_min=1.0, eps_max=100.0)

    def test_single_cell_equals_classify(self):
        cfg = self.small_sweep_config(nu_grid=(1e-2,), eps_points=1, eps_min=1e-6, eps_max=1e-6)
        result = sweep(cfg)
        assert len(result.cells) == 1
        sim_cfg = replace(
            cfg.base, nu=1e-2, eps=1e-6, t_end=3.0, seed=cfg.base.seed + 7919 + 104729,
            nonlinear_enabled=True,
        )
        direct = classify_run(run_one(sim_cfg), cfg.classify)
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

    def fake_run(self, calls, fail_refined=False, outcome_of=None):
        """A stand-in ``run``: a cell grows past the growth factor when unstable, else decays."""
        grid_eps = set(self.config().eps_grid().tolist())

        def run(sims):
            results = []
            for sim in sims:
                calls.append((sim.nu, sim.eps, sim.seed))
                if fail_refined and sim.eps not in grid_eps:
                    results.append(RunResult(cfg=sim, status="error",
                                             error=FloatingPointError("injected failure")))
                    continue
                outcome = "stable" if sim.eps < self.THRESHOLD[sim.nu] else "unstable"
                if outcome_of is not None:
                    outcome = outcome_of.get(sim.eps, outcome)
                res = fake_result([1.0, 20.0 if outcome == "unstable" else 0.5])
                results.append(replace(res, cfg=sim))
            return results

        return run

    def test_refinement_seeded_with_viscosity_index(self, monkeypatch):
        calls = []
        monkeypatch.setattr(threshold, "run", self.fake_run(calls))
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

    def test_bracket_after_repair(self, monkeypatch):
        # a row that is not monotone in eps: stable, unstable, stable, unstable, unstable
        calls = []
        cfg = replace(self.config(), nu_grid=(1e-2,), eps_points=5)
        eps = cfg.eps_grid().tolist()
        outcomes = dict(zip(eps, ["stable", "unstable", "stable", "unstable", "unstable"]))
        monkeypatch.setattr(threshold, "run", self.fake_run(calls, outcome_of=outcomes))
        result = sweep(cfg)
        # the unstable eps[1] below the stable eps[2] makes both inconclusive
        assert result.repaired == [(1e-2, eps[1]), (1e-2, eps[2])]
        assert not result.censored[1e-2]
        # the bracket is the largest stable and the smallest unstable amplitude left
        refined = [c for c in result.cells if c.refined]
        assert refined and eps[0] < refined[0].eps < eps[3]
        stable = [eps[0]] + [c.eps for c in refined if c.outcome == "stable"]
        assert result.eps_star[1e-2] == max(stable) < self.THRESHOLD[1e-2]

    @pytest.mark.parametrize("width", [0.0, -0.1, math.nan])
    def test_nonpositive_width_rejected(self, monkeypatch, width):
        # the bracket never gets narrower than a width <= 0: refuse it before any cell runs
        calls = []
        monkeypatch.setattr(threshold, "run", self.fake_run(calls))
        with pytest.raises(ValueError, match="bisect_rel_width"):
            replace(self.config(), bisect_rel_width=width)
        assert calls == []

    def test_failing_refinement_cell_does_not_abort(self, monkeypatch):
        calls = []
        monkeypatch.setattr(threshold, "run", self.fake_run(calls, fail_refined=True))
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


def arrays_in(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from arrays_in(v)
    elif is_dataclass(value):
        for f in fields(value):
            yield from arrays_in(getattr(value, f.name))


def test_shared_operators_are_read_only_and_unchanged(monkeypatch):
    """The cached arrays that the cells of a row share: no run writes to them."""
    handed_out = {}
    cached = [
        (simulation, "_waves"), (diagnostics, "_waves"), (simulation, "_box_symbols"),
        (simulation, "_propagator_coeffs"), (diagnostics, "_ledger_weights"),
        (diagnostics, "_box_sobolev_weights"),
    ]
    for module, name in cached:
        def spy(*key, _real=getattr(module, name)):
            out = _real(*key)
            for a in arrays_in(out):
                handed_out.setdefault(id(a), (a, a.copy()))
            return out

        monkeypatch.setattr(module, name, spy)
    base = SimConfig(nu=1e-2, grid=GRID, dt=0.05, t_end=1.0, ic_kind="random_band", diag_every=2)
    cfg = SweepConfig(nu_grid=(1e-2,), eps_min=1.0, eps_max=1e4, eps_points=3, base=base,
                      classify=ClassifyCriteria(horizon=1.0))
    result = sweep(cfg)  # one row of three cells, one of which blows up
    assert [c.status for c in result.cells] == ["completed", "completed", "blown_up"]
    single = run_one(replace(base, eps=10.0, dt=0.04))  # other stage times: fresh operators
    assert single.status == "completed"
    assert len(handed_out) > 20
    for a, before in handed_out.values():
        assert not a.flags.writeable
        assert a.tobytes() == before.tobytes()
