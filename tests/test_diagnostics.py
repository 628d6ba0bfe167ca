"""Tests for the weighted-energy diagnostics and the viscosity scaling of their integrals."""

import math
from dataclasses import replace

import numpy as np
import pytest

from rotcouette import diagnostics, simulation
from rotcouette.diagnostics import (
    Accumulators,
    bootstrap_report,
    compute_K_check,
)
from rotcouette.multipliers import WINDOW, M_closed, m_exact
from rotcouette.reporting import energy_columns, write_snapshot_csv
from rotcouette.simulation import SimConfig, VelocityField, _box, _full, _initial_box, initial_condition
from rotcouette.spectral import GridSpec, WaveVector

from oracles import (
    M_values,
    ReferenceAccumulators,
    compute_Q,
    full_step,
    m_values,
    neg_MdotM,
    neg_MdotM_values,
    reference_bootstrap_report,
    run_one,
    slow_weighted_norm,
    wave_numbers,
)

GRID = GridSpec(8, 16, 8, Ly=32.0)


def mode_index(grid, k, j, l):
    return (k % grid.Nx, j % grid.Ny, l % grid.Nz)


def report(box, t, cfg, acc):
    """The ledger of one box: a batch of one."""
    (rep,) = bootstrap_report(box[None], t, [cfg], [acc])
    return rep


def zero_state(grid):
    return VelocityField(grid, np.zeros((3,) + grid.shape, dtype=complex))


class TestComputeQ:
    def test_single_mode_value(self):
        U = zero_state(GRID)
        U.coeffs[0][mode_index(GRID, 1, 0, 0)] = 1.0
        Q1, Q2, Q3 = compute_Q(U, 0.0)
        assert Q1.coeffs[mode_index(GRID, 1, 0, 0)] == pytest.approx(-1.0)

    def test_zero_field(self):
        Q = compute_Q(zero_state(GRID), 0.0)
        assert all(np.all(q.coeffs == 0.0) for q in Q)

    def test_round_trip(self):
        rng = np.random.default_rng(70)
        arrs = np.array([
            rng.standard_normal(GRID.shape) + 1j * rng.standard_normal(GRID.shape)
            for _ in range(3)
        ])
        arrs[:, 0, 0, 0] = 0.0
        U = VelocityField(GRID, arrs, 0.9)
        Qs = compute_Q(U, 0.9)
        kk, ee, ll = wave_numbers(GRID)
        etal = ee - kk * 0.9
        w = kk**2 + etal**2 + ll**2
        w[0, 0, 0] = 1.0
        for q, a in zip(Qs, arrs):
            back = -q.coeffs / w
            back[0, 0, 0] = 0.0
            assert np.max(np.abs(back - a)) <= 1e-12 * np.max(np.abs(a))


class TestComputeKCheck:
    def test_vanishing_prefactors(self):
        U = zero_state(GRID)
        U.coeffs[0][mode_index(GRID, 0, 0, 0)] = 0.7  # k = l = 0 plane
        U.coeffs[1][mode_index(GRID, 0, 3, 2)] = 1.0  # k = 0
        K1, K2 = compute_K_check(U, 0.0)
        assert K1.coeffs[mode_index(GRID, 0, 0, 0)] == 0.0
        assert K2.coeffs[mode_index(GRID, 0, 3, 2)] == 0.0

    def test_symmetrized_magnitude_identity(self):
        # |K1| from the velocity equals |k,l| w^{-1/2} |Q1| on a single mode
        i = mode_index(GRID, 2, 1, 1)
        coeffs = np.zeros((3,) + GRID.shape, dtype=complex)
        coeffs[0][i] = 0.3 - 0.8j
        U = VelocityField(GRID, coeffs, 1.7)
        K1, _ = compute_K_check(U, 1.7)
        Q1, _, _ = compute_Q(U, 1.7)
        kv = WaveVector(2, GRID.eta_values[1], 1)
        from rotcouette.spectral import w_symbol

        want = kv.kl_magnitude / math.sqrt(w_symbol(1.7, kv)) * abs(Q1.coeffs[i])
        assert abs(K1.coeffs[i]) == pytest.approx(want, rel=1e-12)

    def test_velocity_recovery(self):
        rng = np.random.default_rng(71)
        arrs = np.array([
            rng.standard_normal(GRID.shape) + 1j * rng.standard_normal(GRID.shape)
            for _ in range(3)
        ])
        U = VelocityField(GRID, arrs, 0.3)
        K1, K2 = compute_K_check(U, 0.3)
        kk, ee, ll = wave_numbers(GRID)
        etal = ee - kk * 0.3
        rw = np.sqrt(kk**2 + etal**2 + ll**2)
        kl = np.sqrt(kk**2 + ll**2)
        mask1 = kl > 0
        mask2 = np.abs(kk) > 0
        u1 = np.where(mask1, -K1.coeffs / np.where(mask1, kl * rw, 1.0), 0.0)
        u2 = np.where(mask2, -K2.coeffs / np.where(mask2, np.abs(kk) * rw, 1.0), 0.0)
        assert np.max(np.abs((u1 - arrs[0]) * mask1)) <= 1e-12 * np.max(np.abs(arrs[0]))
        assert np.max(np.abs((u2 - arrs[1]) * mask2)) <= 1e-12 * np.max(np.abs(arrs[1]))


class TestBootstrapReport:
    def cfg(self, **kw):
        defaults = dict(nu=1e-2, grid=GRID, eps=1e-4)
        defaults.update(kw)
        return SimConfig(**defaults)

    def test_zero_field_no_flags(self):
        cfg = self.cfg(eps=0.0)
        rep = report(_box(zero_state(GRID)), 0.0, cfg, Accumulators())
        assert all(v == 0.0 for v in rep.norms.values())
        assert not any(rep.flags.values())

    def test_slow_path_agreement(self):
        small = GridSpec(4, 8, 4, Ly=32.0)
        U = _full(small, _random_box(small, 72), 0.8)
        U.coeffs[:, 0, 0, 0] = 0.0
        cfg = SimConfig(nu=3e-2, grid=small, eps=1e-4)
        rep = report(_box(U), 0.8, cfg, Accumulators())
        nu = cfg.nu
        N = cfg.N
        t = 0.8

        def weight_MK(k, eta, l):
            if k == 0:
                return 0.0
            return M_closed(t, WaveVector(k, eta, l), nu)

        K1, K2 = compute_K_check(U, t)
        want = slow_weighted_norm(small, K1.coeffs, N, weight_MK)
        assert rep.norms["MK1_neq_HN"] == pytest.approx(want, rel=1e-10)

        def weight_mMQ(k, eta, l):
            if k == 0:
                return 0.0
            kv = WaveVector(k, eta, l)
            return m_exact(t, kv, nu) * M_closed(t, kv, nu)

        Q3 = compute_Q(U, t)[2]
        want = slow_weighted_norm(small, Q3.coeffs, N, weight_mMQ)
        assert rep.norms["mMQ3_neq_HN"] == pytest.approx(want, rel=1e-10)

        def weight_dmm(k, eta, l):
            if k == 0:
                return 0.0
            return math.sqrt(neg_MdotM(t, WaveVector(k, eta, l), nu))

        want = slow_weighted_norm(small, K2.coeffs, N, weight_dmm)
        assert rep.norms["dMM_K2_HN"] == pytest.approx(want, rel=1e-10)

        def weight_zero(k, eta, l):
            return 1.0 if k == 0 else 0.0

        want = slow_weighted_norm(small, U.coeffs[1], N - 1.0, weight_zero)
        assert rep.norms["U0_2_HNm1"] == pytest.approx(want, rel=1e-10)

    def test_weighted_pair_norm_monotone_in_linear_run(self):
        cfg = self.cfg(dt=0.02, t_end=4.0, nonlinear_enabled=False, diag_every=10)
        res = run_one(cfg)
        vals = [
            math.sqrt(r.norms["MK1_neq_HN"] ** 2 + r.norms["MK2_neq_HN"] ** 2)
            for r in res.reports
        ]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_ghost_dissipation_vanishes_on_zero_modes(self):
        cfg = self.cfg(ic_mode=(0, 2, 1), dt=0.05, t_end=1.0, nonlinear_enabled=False)
        res = run_one(cfg)
        for r in res.reports:
            assert r.norms["dMM_K1_HN"] == 0.0
            assert r.norms["dMM_K2_HN"] == 0.0

    def test_accumulators_nondecreasing(self):
        cfg = self.cfg(dt=0.02, t_end=2.0, nonlinear_enabled=False, diag_every=5)
        res = run_one(cfg)
        for name in ("int_dMM_K1_HN", "int_gradL_MK1_HN", "int_Kcheck_neq_HN"):
            vals = [r.norms[name] for r in res.reports]
            assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_flags_fire_on_oversized_state(self):
        U = _random_field(GRID, 73)
        U.coeffs *= 1e3
        cfg = self.cfg(eps=1e-8)
        rep = report(_box(U), 0.0, cfg, Accumulators())
        assert all(rep.flags.values())

    def test_each_flag_switches_at_its_bound(self):
        # Each hypothesis reads  max_s X(s) + sqrt(nu) ||Y||_{L2(0,t)} (+ ||Z||_{L2(0,t)})
        # <= 8 F eps, so its flag must flip at eps* = lhs / (8 F) and nowhere else.
        U = _random_field(GRID, 76)
        nu, C0, C1 = 2e-2, 100.0, 10.0  # C0 != C1 and nu != 1: four distinct sizes F
        cfg = SimConfig(nu=nu, grid=GRID, C0=C0, C1=C1)
        times = (0.4, 1.9)

        def rows(eps):
            acc = Accumulators()
            return [report(_box(U), t, replace(cfg, eps=eps), acc) for t in times]

        a, b = (r.norms for r in rows(1.0))
        r = math.sqrt(nu)

        def top(name):
            return max(a[name], b[name])

        lhs_and_size = {
            "flag_K1": (top("MK1_neq_HN") + r * b["int_gradL_MK1_HN"] + b["int_dMM_K1_HN"], 1.0),
            "flag_K2": (top("MK2_neq_HN") + r * b["int_gradL_MK2_HN"] + b["int_dMM_K2_HN"], 1.0),
            "flag_Q3": (
                top("mMQ3_neq_HN") + r * b["int_gradL_mMQ3_HN"] + b["int_dMM_mQ3_HN"],
                C0 * nu ** (-1.0 / 3.0),
            ),
            "flag_Q0_1": (top("Q0_1_HN") + r * b["int_grad_Q0_1_HN"], 1.0),
            "flag_Q0_2": (top("Q0_2_HN") + r * b["int_grad_Q0_2_HN"], C1 / nu),
            "flag_Q0_3": (top("Q0_3_HN") + r * b["int_grad_Q0_3_HN"], C0 / nu),
            "flag_U0_1": (top("U0_1_HNm1") + r * b["int_grad_U0_1_HNm1"], 1.0),
            "flag_U0_2": (
                top("U0_2_HNm1") + r * (b["int_grad_U0_2_HNm1"] + b["int_U0_2_HNm1"]),
                C1 / nu,
            ),
            "flag_U0_3": (top("U0_3_HNm1") + r * b["int_grad_U0_3_HNm1"], C0 / nu),
        }
        assert lhs_and_size.keys() == rows(1.0)[-1].flags.keys()
        for flag, (lhs, size) in lhs_and_size.items():
            eps_star = lhs / (8.0 * size)
            assert rows(eps_star * (1.0 - 1e-6))[-1].flags[flag], flag
            assert not rows(eps_star * (1.0 + 1e-6))[-1].flags[flag], flag


class TestLedgerWeights:
    """The ledger's weights from per-run constants equal the one-expression oracle bit for bit."""

    TIMES = (0.0, 0.01, 0.37, 1.0, 5.0, 50.0, 1e3, 2e5, 1e7)

    @pytest.fixture(autouse=True)
    def empty_caches(self):
        yield
        for cache in simulation._TIME_CACHES:
            cache.cache_clear()

    @pytest.mark.parametrize("nu", [5e-2, 1e-2, 1e-3, 1e-6])
    @pytest.mark.parametrize(
        "grid",
        [GRID, GridSpec(16, 64, 16, Ly=8.0), GridSpec(32, 128, 32, Ly=8.0), GridSpec(6, 24, 10, Ly=3.0)],
        ids=["8x16x8", "16x64x16", "32x128x32", "6x24x10"],
    )
    def test_weights_match_oracle_bit_for_bit(self, grid, nu):
        wv = simulation._waves(grid, True)
        k = wv.k[1:]
        # m's window opens and closes exactly at these: t = eta/k of a mode, and eta/k + lw
        lw = WINDOW * nu ** (-1.0 / 3.0)
        opens = float(wv.eta[0, 1, 0] / k[0, 0, 0])
        closes = [r + lw for r in (opens, -opens)]
        N = SimConfig(nu=nu, grid=grid).N
        for t in self.TIMES + (opens, *closes):
            Md, m = diagnostics._ledger_weights(grid, nu, N, t)
            got = (Md[0], Md[1], m)
            want = (
                M_values(t, k, wv.eta, wv.l, nu)[..., 0] ** 2,
                neg_MdotM_values(t, k, wv.eta, wv.l, nu)[..., 0],
                m_values(t, k, wv.eta, wv.l, nu),
            )
            for name, a, b in zip(("M2", "neg_MdotM", "m"), got, want):
                assert a.shape == b.shape
                bits = [np.ascontiguousarray(x).view(np.int64) for x in (a, b)]
                assert np.array_equal(*bits), (name, t)


def _random_box(grid, seed):
    """Gaussian coefficients on the retained box, (3, 2cx+1, 2cy+1, cz+1)."""
    rng = np.random.default_rng(seed)
    cx, cy, cz = grid.dealias_cutoffs
    shape = (3, 2 * cx + 1, 2 * cy + 1, cz + 1)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_field(grid, seed):
    """A random box expanded by conjugate reflection: the ledger's contract."""
    return _full(grid, _random_box(grid, seed), 0.0)


def _l0_plane_field(grid, seed):
    """Only the l = 0 plane, which is not self-conjugate: it counts once."""
    b = _random_box(grid, seed)
    b[..., 1:] = 0.0
    U = _full(grid, b, 0.0)
    plane = U.coeffs[:, :, :, 0]
    flip = np.conj(plane[:, (-np.arange(grid.Nx)) % grid.Nx][:, :, (-np.arange(grid.Ny)) % grid.Ny])
    assert not np.allclose(plane, flip)
    return U


def _initial(**kw):
    def make(grid, seed):
        return initial_condition(SimConfig(nu=3e-2, grid=grid, eps=1e-3, seed=seed, **kw))

    return make


def _zero_plane_field(grid, seed):
    U = _random_field(grid, seed)
    U.coeffs[:, 1:] = 0.0
    return U


def _stepped_field(grid, seed):
    cfg = SimConfig(nu=5e-2, grid=grid, eps=1.0, dt=0.01, seed=seed, ic_kind="random_band")
    U = initial_condition(cfg)
    for i in range(3):
        U = full_step(U, i * cfg.dt, cfg.dt, cfg)
    return U


def _assert_matches_reference(U):
    cfg = SimConfig(nu=3e-2, grid=U.grid, eps=1e-4)
    acc, ref_acc = Accumulators(), ReferenceAccumulators()
    for t in (0.0, 0.8, 5.5):
        rep = report(_box(U), t, cfg, acc)
        ref = reference_bootstrap_report(U, t, cfg, ref_acc)
        assert rep.t == ref.t
        assert rep.norms.keys() == ref.norms.keys()
        for name, want in ref.norms.items():
            assert rep.norms[name] == pytest.approx(want, rel=1e-12, abs=0.0), name
        assert rep.flags == ref.flags


LEDGER_FIXTURES = [
    (_random_field, GridSpec(4, 8, 4, Ly=32.0)),
    (_random_field, GridSpec(8, 16, 8, Ly=32.0)),
    (_zero_plane_field, GridSpec(8, 16, 8, Ly=32.0)),
    (lambda grid, seed: zero_state(grid), GridSpec(8, 16, 8, Ly=32.0)),
    (_stepped_field, GridSpec(16, 64, 16, Ly=8.0)),
    (_random_field, GridSpec(6, 24, 10, Ly=16.0)),
    (_l0_plane_field, GridSpec(8, 16, 8, Ly=32.0)),
    (_initial(ic_mode=(1, 2, 1)), GridSpec(8, 16, 8, Ly=32.0)),
    (_initial(ic_mode=(0, 2, 1)), GridSpec(8, 16, 8, Ly=32.0)),
    (_initial(ic_kind="random_band"), GridSpec(6, 24, 10, Ly=16.0)),
]
LEDGER_IDS = ["random-4x8x4", "random-8x16x8", "zero-plane", "zero", "stepped-16x64x16",
              "random-6x24x10", "l0-plane-not-self-conjugate", "single-mode", "single-mode-k0",
              "random-band-6x24x10"]


class TestReportMatchesReference:
    """The one-pass ledger against the thirty-pass report it replaced."""

    @pytest.mark.parametrize("make, grid", LEDGER_FIXTURES, ids=LEDGER_IDS)
    def test_norms_and_flags(self, make, grid):
        _assert_matches_reference(make(grid, 74))

    def test_file_initial_condition(self, tmp_path):
        grid = GridSpec(8, 16, 8, Ly=32.0)
        path = write_snapshot_csv(tmp_path / "ic.csv", _stepped_field(grid, 74), 3e-2)
        U = initial_condition(SimConfig(nu=3e-2, grid=grid, ic_kind="file", ic_file=str(path)))
        _assert_matches_reference(U)

    def test_energy_columns_unchanged(self):
        ref = reference_bootstrap_report(
            _random_field(GRID, 75), 0.8, SimConfig(nu=1e-2, grid=GRID), ReferenceAccumulators()
        )
        assert energy_columns() == ["t"] + list(ref.norms) + list(ref.flags)


def _assert_batch_equals_each_box_alone(boxes, grid):
    """Rows of a batch of boxes against one-box calls, over three row times (one repeated)."""
    B = len(boxes)
    # each box with its own constants, and its own history: none, or one or two earlier rows
    cfgs = [SimConfig(nu=3e-2, grid=grid, eps=1e-4 * 3.0**i, C0=100.0 + i, C1=10.0 - i)
            for i in range(B)]
    accs, alone = [Accumulators() for _ in range(B)], [Accumulators() for _ in range(B)]
    for i in range(B):
        for t in (0.1, 0.3)[: i % 3]:
            for acc in (accs[i], alone[i]):
                report(boxes[i], t, cfgs[i], acc)
    for t in (0.8, 0.8, 5.5):
        batch = bootstrap_report(np.stack(boxes), t, cfgs, accs)
        assert len(batch) == B
        for i, rep in enumerate(batch):
            assert _bits(rep) == _bits(report(boxes[i], t, cfgs[i], alone[i]))


def _bits(rep):
    """A report with each norm as its bit pattern."""
    return rep.t, {name: float.hex(v) for name, v in rep.norms.items()}, rep.flags


class TestBatchedLedger:
    """A batch of boxes reports each box as a call on that box alone does, bit for bit."""

    @pytest.mark.parametrize("B", [1, 3, 8])
    @pytest.mark.parametrize("make, grid", LEDGER_FIXTURES, ids=LEDGER_IDS)
    def test_batch_equals_each_box_alone(self, make, grid, B):
        _assert_batch_equals_each_box_alone([_box(make(grid, 74 + i)) for i in range(B)], grid)

    def test_rows_longer_than_einsums_buffer(self):
        # 32x128x32: the k != 0 rows of a component hold 20 * 85 * 11 = 18700 modes,
        # past einsum's buffer of 8192, in which it would sum a stack's rows in pieces
        grid = GridSpec(32, 128, 32, Ly=8.0)
        _assert_batch_equals_each_box_alone([_box(_random_field(grid, 74 + i)) for i in range(3)], grid)

    def test_dots_sum_each_row_as_alone(self):
        # the order of the one-row sums that the ledger took before it was batched, also for
        # rows past einsum's buffer, which einsum would sum in pieces in a stack of rows
        rng = np.random.default_rng(80)
        for n in (100, 8192, 8193, 18700):
            x, w = rng.random((2, 3, n)), rng.random((2, n))
            want = np.array([[[np.einsum("i,i->", r, wj) for wj in w] for r in xb] for xb in x])
            assert np.array_equal(diagnostics._dots(x, w).view(np.int64), want.view(np.int64)), n

    def test_file_initial_condition_is_contiguous(self, tmp_path):
        grid = GridSpec(16, 64, 16, Ly=8.0)
        path = write_snapshot_csv(tmp_path / "ic.csv", _stepped_field(grid, 74), 5e-2)
        cfg = SimConfig(nu=5e-2, grid=grid, ic_kind="file", ic_file=str(path))
        b = _initial_box(cfg)
        assert b.flags.c_contiguous
        assert _box(initial_condition(cfg)).flags.c_contiguous
        # and the ledger does not depend on the layout: a copy, and the same values laid out
        # component innermost, report the same bits
        strided = np.moveaxis(np.ascontiguousarray(np.moveaxis(b, 0, -1)), -1, 0)
        assert not strided.flags.c_contiguous
        want = _bits(report(b, 0.0, cfg, Accumulators()))
        for other in (b.copy(), strided):
            assert _bits(report(other, 0.0, cfg, Accumulators())) == want

    def test_a_first_row_starts_its_integrals_at_zero(self):
        # even when its norms overflow, where a zero-width trapezoid would be 0 * inf
        box = _box(_random_field(GRID, 79)) * 1e200
        cfg = SimConfig(nu=1e-2, grid=GRID)
        with np.errstate(over="ignore", invalid="ignore"):
            rep = report(box, 0.0, cfg, Accumulators())
        assert math.isinf(rep.norms["U1_neq_HN"])
        assert all(rep.norms[c] == 0.0 for c in diagnostics.ACCUMULATED_COLUMNS)

    def test_batch_must_share_grid_nu_and_sigma(self):
        U = _random_field(GRID, 77)
        boxes = np.stack([_box(U)] * 2)
        base = SimConfig(nu=1e-2, grid=GRID)
        for other in (replace(base, nu=2e-2), replace(base, sigma=6.0)):
            with pytest.raises(ValueError, match="share grid, nu and sigma"):
                bootstrap_report(boxes, 0.0, [base, other], [Accumulators(), Accumulators()])

    def test_times_must_not_decrease(self):
        box, cfg, acc = _box(_random_field(GRID, 78)), SimConfig(nu=1e-2, grid=GRID), Accumulators()
        report(box, 1.0, cfg, acc)
        report(box, 1.0, cfg, acc)  # a repeated time adds a zero-width trapezoid
        with pytest.raises(ValueError, match="nondecreasing"):
            report(box, 0.5, cfg, acc)
        assert acc.t == 1.0


class TestEnergyIdentity:
    def test_linear_energy_identity(self):
        # d/dt ||M K||^2 + 2 ||sqrt(-Mdot M) K||^2 + 2 nu ||grad_L M K||^2 = 0
        cfg = SimConfig(
            nu=1e-2, grid=GRID, dt=0.01, t_end=3.0, eps=1e-4,
            nonlinear_enabled=False, diag_every=5, ic_mode=(1, 1, 1),
        )
        res = run_one(cfg)
        for r0, r1 in zip(res.reports[:-1], res.reports[1:]):
            dt = r1.t - r0.t
            E0 = r0.norms["MK1_neq_HN"] ** 2 + r0.norms["MK2_neq_HN"] ** 2
            E1 = r1.norms["MK1_neq_HN"] ** 2 + r1.norms["MK2_neq_HN"] ** 2
            diss0 = (
                r0.norms["dMM_K1_HN"] ** 2
                + r0.norms["dMM_K2_HN"] ** 2
                + cfg.nu * (r0.norms["gradL_MK1_HN"] ** 2 + r0.norms["gradL_MK2_HN"] ** 2)
            )
            diss1 = (
                r1.norms["dMM_K1_HN"] ** 2
                + r1.norms["dMM_K2_HN"] ** 2
                + cfg.nu * (r1.norms["gradL_MK1_HN"] ** 2 + r1.norms["gradL_MK2_HN"] ** 2)
            )
            integral = dt * (diss0 + diss1)  # trapezoid of 2*diss
            residual = E1 - E0 + integral
            scale = max(abs(E1 - E0), integral, 1e-300)
            assert abs(residual) <= 0.01 * scale

    def test_integrated_ghost_inequality(self):
        # ||K||_{L2 HN} <= sqrt(2) C nu^{-1/6} (||sqrt(-MdotM) K|| + nu^{1/2}||grad_L K||)
        # with C from the coercivity scan; linear run, ghost-weighted members
        cfg = SimConfig(
            nu=1e-2, grid=GRID, dt=0.02, t_end=5.0, eps=1e-4,
            nonlinear_enabled=False, diag_every=5, ic_mode=(1, 1, 1),
        )
        res = run_one(cfg)
        final = res.reports[-1].norms
        C = 1.0 / 0.1  # scanned coercivity infimum is >= 0.1
        lhs = final["int_Kcheck_neq_HN"]
        rhs = (
            math.sqrt(2.0)
            * C
            * cfg.nu ** (-1.0 / 6.0)
            * (final["int_dMM_K1_HN"] + final["int_dMM_K2_HN"]
               + math.sqrt(cfg.nu) * (final["int_gradL_MK1_HN"] + final["int_gradL_MK2_HN"]))
        )
        assert lhs <= rhs


class TestDissipationScalingFits:
    def test_linear_runs_bracket_predicted_exponent(self):
        # the accumulated |K| dissipation scales like nu^{-1/6}; fit log(final) on log(nu)
        nus = (1e-2, 3e-3, 1e-3)
        finals = []
        for nu in nus:
            cfg = SimConfig(
                nu=nu, grid=GRID, dt=0.02, t_end=30.0, eps=1e-5,
                nonlinear_enabled=False, diag_every=10, ic_mode=(1, 0, 1),
            )
            finals.append(run_one(cfg).reports[-1].norms["int_Kcheck_neq_HN"])
        exponent = float(np.polyfit(np.log(nus), np.log(finals), 1)[0])
        assert -0.35 <= exponent <= 0.0


class TestLiftUpGrowth:
    def test_linear_growth_window_and_peak_scale(self):
        # x-averaged planar/vertical components grow linearly until t ~ 1/(nu rho)
        nu = 5e-2
        cfg = SimConfig(
            nu=nu, grid=GRID, dt=0.02, t_end=20.0, eps=1e-5,
            nonlinear_enabled=False, diag_every=5, ic_mode=(0, 2, 1),
        )
        res = run_one(cfg)
        ts, u23 = res.norm_series("U0_2_HNm1")
        _, u3 = res.norm_series("U0_3_HNm1")
        tot = np.sqrt(u23**2 + u3**2)
        # early window: linear in t
        early = (ts > 0) & (ts < 2.0)
        ratio = tot[early] / ts[early]
        assert np.std(ratio) / np.mean(ratio) < 0.05
        # peak value scales like eps/nu times an order-one factor
        eta = GRID.eta_values[2]
        rho = eta * eta + 1.0
        peak_ratio = np.max(tot) / (cfg.eps / (nu * rho))
        assert 0.1 < peak_ratio < 10.0
