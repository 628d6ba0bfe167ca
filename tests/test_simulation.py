"""Tests for the projection, right-hand sides and the time stepper."""

import math
from dataclasses import replace

import numpy as np
import pytest
from oracles import convective_nonlinear_rhs, linear_rhs, random_band_loop, wave_numbers

from rotcouette.linear import (
    ModeStateK,
    ZeroModeState,
    evolve_K_closed,
    evolve_U3,
    zero_mode_evolve,
)
from rotcouette.simulation import (
    BlowUpError,
    SimConfig,
    VelocityField,
    _random_band,
    advective_rate_bound,
    divergence_defect,
    frame_symbols,
    initial_condition,
    leray_project_L,
    nonlinear_rhs,
    propagator,
    run,
    step,
)
from rotcouette.spectral import (
    GridSpec,
    SpectralField,
    WaveVector,
    hermitian_defect,
    hermitian_symmetrize,
    sobolev_norm,
)


GRID = GridSpec(8, 16, 8, Ly=32.0)
NONCUBIC = GridSpec(6, 24, 10, Ly=16.0)


def random_velocity(grid, rng, t=0.0, project=True, beta=1.0):
    coeffs = np.empty((3,) + grid.shape, dtype=complex)
    for i in range(3):
        c = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        coeffs[i] = hermitian_symmetrize(SpectralField(grid, c * grid.dealias_mask, t)).coeffs
    U = VelocityField(grid, coeffs, t)
    if project:
        U = leray_project_L(U, t, beta)
        U.coeffs[:, 0, 0, 0] = 0.0
    return U


def zero_state(grid):
    return VelocityField(grid, np.zeros((3,) + grid.shape, dtype=complex))


def l0_plane_defect(c):
    """Hermitian defect of the l = 0 plane: C(k, eta, 0) against conj C(-k, -eta, 0)."""
    nx, ny, _ = c.shape
    plane = c[:, :, 0]
    flip = plane[(-np.arange(nx)) % nx][:, (-np.arange(ny)) % ny]
    return float(np.max(np.abs(plane - np.conj(flip))))


def mode_index(grid, k, j, l):
    return (k % grid.Nx, j % grid.Ny, l % grid.Nz)


def closed_form_mode(grid, u, t, nu, beta, i):
    """The velocity at mode index i evolved from u (at time 0) to t by the closed forms.

    beta enters by the rescaling tau = beta t, nu' = nu / beta; u need not be
    divergence free, since u3 is evolved from its own initial value.
    """
    k, eta, l = int(grid.k_index[i[0]]), float(grid.eta_values[i[1]]), int(grid.l_index[i[2]])
    tau, nu_b = beta * t, nu / beta
    c = u[(slice(None),) + i]
    if k == 0:
        s = zero_mode_evolve(ZeroModeState(*c), tau, nu_b, eta, l)
        return np.array([s.u1, s.u2, s.u3])
    kv = WaveVector(k, eta, l)
    rw0, rw = (math.sqrt(k * k + (eta - k * s) ** 2 + l * l) for s in (0.0, tau))
    K0 = ModeStateK(-kv.kl_magnitude * rw0 * c[0], -abs(k) * rw0 * c[1])
    K = evolve_K_closed(K0, tau, nu_b, kv)
    return np.array(
        [-K.K1 / (kv.kl_magnitude * rw), -K.K2 / (abs(k) * rw), evolve_U3(c[2], K0, tau, nu_b, kv)]
    )


def half_modes(grid):
    """Every mode index of the half-spectrum layout except the mean mode."""
    return [i for i in np.ndindex(grid.Nx, grid.Ny, grid.Nz // 2 + 1) if i != (0, 0, 0)]


def random_half(grid, rng):
    shape = (3, grid.Nx, grid.Ny, grid.Nz // 2 + 1)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestVelocityField:
    def test_views_share_the_array(self):
        U = random_velocity(GRID, np.random.default_rng(58), t=0.2)
        U.coeff_arrays()[1][2, 3, 1] = 7.0
        U.components()[2].coeffs[1, 1, 1] = -3.0j
        assert U.coeffs[1, 2, 3, 1] == 7.0
        assert U.coeffs[2, 1, 1, 1] == -3.0j
        assert all(f.grid == GRID and f.time == 0.2 for f in U.components())

    @pytest.mark.parametrize(
        "shape", [(2,) + GRID.shape, (3,) + NONCUBIC.shape], ids=["two-components", "other-grid"]
    )
    def test_rejects_wrong_shape(self, shape):
        with pytest.raises(ValueError):
            VelocityField(GRID, np.zeros(shape, dtype=complex))

    @pytest.mark.parametrize(
        "op",
        [
            lambda U: step(U, 0.6, 0.02, SimConfig(nu=1e-2, grid=GRID)).coeffs,
            lambda U: leray_project_L(U, 0.6).coeffs,
            lambda U: propagator(GRID, 0.6, 0.62, 1e-2)(U.coeffs[..., : GRID.Nz // 2 + 1]),
            lambda U: nonlinear_rhs(U, 0.6).coeffs,
        ],
        ids=["step", "leray_project_L", "propagator", "nonlinear_rhs"],
    )
    def test_operators_leave_input_unchanged(self, op):
        # not projected, so that a projection in place would change it
        U = random_velocity(GRID, np.random.default_rng(59), t=0.6, project=False)
        before = U.coeffs.copy()
        out = op(U)
        assert not np.shares_memory(out, U.coeffs)
        assert U.coeffs.tobytes() == before.tobytes()


class TestLerayProjection:
    def test_divergence_free_unchanged(self):
        rng = np.random.default_rng(60)
        U = random_velocity(GRID, rng, t=0.4)
        again = leray_project_L(U, 0.4)
        for a, b in zip(U.coeff_arrays(), again.coeff_arrays()):
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(a)))

    def test_gradient_in_kernel(self):
        rng = np.random.default_rng(61)
        phi = hermitian_symmetrize(
            SpectralField(GRID, rng.standard_normal(GRID.shape) * GRID.dealias_mask + 0j, 0.7)
        ).coeffs
        t = 0.7
        kk, ee, ll = wave_numbers(GRID)
        etal = ee - kk * t
        grad = np.array([1j * kk * phi, 1j * etal * phi, 1j * ll * phi])
        out = leray_project_L(VelocityField(GRID, grad, t), t)
        scale = np.max(np.abs(grad))
        for c in out.coeff_arrays():
            assert np.max(np.abs(c)) <= 1e-12 * scale

    def test_idempotent(self):
        rng = np.random.default_rng(62)
        coeffs = np.array([
            (rng.standard_normal(GRID.shape) + 1j * rng.standard_normal(GRID.shape))
            for _ in range(3)
        ])
        t = 1.3
        once = leray_project_L(VelocityField(GRID, coeffs, t), t)
        twice = leray_project_L(once, t)
        for a, b in zip(once.coeff_arrays(), twice.coeff_arrays()):
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(a)))

    def test_mean_mode_passthrough(self):
        out = leray_project_L(zero_state(GRID), 0.0)
        assert np.all(out.coeffs[:, 0, 0, 0] == 0.0)


class TestLinearRhs:
    """The generator oracle of the propagator, and linearised runs against the closed forms."""

    def test_zero_input(self):
        U = zero_state(GRID)
        out = linear_rhs(U, 0.0)
        assert all(np.all(c == 0.0) for c in out.coeff_arrays())

    def test_zero_mode_matrix_action(self):
        # pure u1 content on one k=0 mode reproduces the lift-up generator rows
        g = GRID
        j, l = 2, 1
        eta = g.eta_values[j]
        rho = eta * eta + l * l
        U = zero_state(g)
        U.coeffs[0][mode_index(g, 0, j, l)] = 1.0
        out = linear_rhs(U, 0.0)
        i = mode_index(g, 0, j, l)
        assert out.coeffs[0][i] == pytest.approx(0.0, abs=1e-15)
        assert out.coeffs[1][i] == pytest.approx(-(l * l) / rho, rel=1e-12)
        assert out.coeffs[2][i] == pytest.approx(eta * l / rho, rel=1e-12)

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_frame_divergence_is_rotation_source(self, beta):
        # the pressure keeps div_L u = 0 under d/dt (eta - beta k t) = -beta k,
        # so the forcing itself has div_L = i beta k u2, not zero
        rng = np.random.default_rng(65)
        t = 0.9
        U = random_velocity(GRID, rng, t=t, beta=beta)
        out = linear_rhs(U, t, beta)
        kk, etal, ll, _ = frame_symbols(GRID, t, beta)
        div = 1j * (kk * out.coeffs[0] + etal * out.coeffs[1] + ll * out.coeffs[2])
        want = 1j * beta * kk * U.coeffs[1]
        assert np.max(np.abs(div - want)) <= 1e-14 * np.max(np.abs(want))

    def test_single_mode_matches_closed_form(self):
        # short linear integration of one k != 0 mode against the exact pair
        cfg = SimConfig(
            nu=2e-2, grid=GRID, dt=0.01, t_end=3.0, eps=1e-3,
            nonlinear_enabled=False, diag_every=100, snapshot_every=100,
            ic_mode=(1, 1, 1),
        )
        res = run(cfg)
        from rotcouette.diagnostics import compute_K_check

        kv = WaveVector(1, GRID.eta_values[1], 1)
        i = mode_index(GRID, 1, 1, 1)
        t0, U0 = res.snapshots[0]
        K1f, K2f = compute_K_check(U0)
        K0 = ModeStateK(K1f.coeffs[i], K2f.coeffs[i])
        for t, U in res.snapshots[1:]:
            K1f, K2f = compute_K_check(U, t)
            want = evolve_K_closed(K0, t, cfg.nu, kv)
            err = abs(K1f.coeffs[i] - want.K1) + abs(K2f.coeffs[i] - want.K2)
            assert err <= 1e-6 * want.magnitude


class TestPropagator:
    @pytest.mark.parametrize("beta", [1.0, 2.0])
    @pytest.mark.parametrize("t0", [0.0, 0.7])
    def test_matches_closed_forms(self, t0, beta):
        # random modes, not divergence free: u3 is not slaved to the pair
        rng = np.random.default_rng(70)
        u0 = random_half(GRID, rng)
        nu, t1 = 1e-2, 2.9
        ut0 = propagator(GRID, 0.0, t0, nu, beta)(u0)
        ut1 = propagator(GRID, t0, t1, nu, beta)(ut0)
        for i in half_modes(GRID):
            for got, t in ((ut0, t0), (ut1, t1)):
                want = closed_form_mode(GRID, u0, t, nu, beta, i)
                err = np.linalg.norm(got[(slice(None),) + i] - want)
                assert err <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_semigroup(self, beta):
        rng = np.random.default_rng(71)
        u = random_half(GRID, rng)
        t0, tm, t1, nu = 0.4, 1.9, 3.3, 2e-2
        two = propagator(GRID, tm, t1, nu, beta)(propagator(GRID, t0, tm, nu, beta)(u))
        one = propagator(GRID, t0, t1, nu, beta)(u)
        assert np.max(np.abs(two - one)) <= 1e-13 * np.max(np.abs(one))

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_generator_is_linear_rhs_oracle(self, beta):
        # central difference in t1 at t0 against linear_rhs - nu w u
        rng = np.random.default_rng(72)
        u = random_half(GRID, rng)
        t0, h, nu = 1.2, 1e-4, 1e-2
        d = (propagator(GRID, t0, t0 + h, nu, beta)(u) - propagator(GRID, t0, t0 - h, nu, beta)(u))
        d /= 2.0 * h
        full = np.zeros((3,) + GRID.shape, dtype=complex)
        full[..., : u.shape[-1]] = u
        gen = linear_rhs(VelocityField(GRID, full, t0), t0, beta).coeffs[..., : u.shape[-1]]
        want = gen - nu * frame_symbols(GRID, t0, beta, half=True)[3] * u
        d[:, 0, 0, 0] = want[:, 0, 0, 0] = 0.0  # the mean mode is not dynamic
        assert np.max(np.abs(d - want)) <= 1e-6 * np.max(np.abs(want))

    def test_divergence_scales_by_decay(self):
        # div_L at t1 of the image is D times div_L at t0 of the input
        rng = np.random.default_rng(73)
        u = random_half(GRID, rng)
        t0, t1, nu, beta = 0.3, 1.1, 1e-2, 2.0
        out = propagator(GRID, t0, t1, nu, beta)(u)
        lone = np.zeros_like(u)
        lone[2] = 1.0
        decay = propagator(GRID, t0, t1, nu, beta)(lone)[2]
        k0, e0, l0, _ = frame_symbols(GRID, t0, beta, half=True)
        k1, e1, l1, _ = frame_symbols(GRID, t1, beta, half=True)
        div0 = k0 * u[0] + e0 * u[1] + l0 * u[2]
        div1 = k1 * out[0] + e1 * out[1] + l1 * out[2]
        assert np.max(np.abs(div1 - decay * div0)) <= 1e-13 * np.max(np.abs(div1))


class TestNonlinearRhs:
    def test_zero_input(self):
        out = nonlinear_rhs(zero_state(GRID), 0.0)
        assert all(np.all(c == 0.0) for c in out.coeff_arrays())

    def test_single_mode_support(self):
        # one conjugate pair: quadratic output only on sums/differences
        g = GRID
        U = zero_state(g)
        U.coeffs[2][mode_index(g, 1, 1, 1)] = 0.5
        U.coeffs[2][mode_index(g, -1, -1, -1)] = 0.5
        U = leray_project_L(U, 0.0)
        out = nonlinear_rhs(U, 0.0)
        allowed = {mode_index(g, *m) for m in [(0, 0, 0), (2, 2, 2), (-2, -2, -2)]}
        for c in out.coeff_arrays():
            bad = np.argwhere(np.abs(c) > 1e-14 * max(1.0, np.max(np.abs(c))))
            for idx in map(tuple, bad):
                assert idx in allowed

    def test_energy_flux_vanishes(self):
        rng = np.random.default_rng(63)
        for t in (0.0, 1.7):
            U = random_velocity(GRID, rng, t=t)
            N = nonlinear_rhs(U, t)
            flux = sum(
                float(np.sum(np.conj(a) * b).real)
                for a, b in zip(U.coeff_arrays(), N.coeff_arrays())
            )
            scale = math.sqrt(
                sum(float(np.sum(np.abs(a) ** 2)) for a in U.coeff_arrays())
            ) * math.sqrt(sum(float(np.sum(np.abs(b) ** 2)) for b in N.coeff_arrays()))
            assert abs(flux) <= 1e-8 * scale

    @pytest.mark.parametrize("grid", [GRID, NONCUBIC], ids=["8x16x8", "6x24x10"])
    @pytest.mark.parametrize("t", [0.0, 1.7])
    def test_matches_convective_oracle(self, grid, t):
        rng = np.random.default_rng(66)
        U = random_velocity(grid, rng, t=t)
        got = nonlinear_rhs(U, t)
        want = convective_nonlinear_rhs(grid, U.coeff_arrays(), t)
        scale = max(np.max(np.abs(c)) for c in want)
        assert scale > 0.0
        for a, b in zip(got.coeff_arrays(), want):
            assert np.max(np.abs(a - b)) <= 1e-12 * scale

    def test_blowup_detection(self):
        g = GRID
        U = VelocityField(g, np.full((3,) + g.shape, np.nan, dtype=complex))
        with pytest.raises(BlowUpError):
            nonlinear_rhs(U, 0.0)


class TestStep:
    def test_zero_mode_exact(self):
        g = GRID
        cfg = SimConfig(
            nu=1e-2, grid=g, dt=0.05, t_end=4.0, eps=1e-4,
            nonlinear_enabled=False, diag_every=100, snapshot_every=20,
            ic_mode=(0, 2, 1),
        )
        res = run(cfg)
        i = mode_index(g, 0, 2, 1)
        eta = g.eta_values[2]
        t0, U0 = res.snapshots[0]
        s0 = ZeroModeState(*(c[i] for c in U0.coeffs))
        for t, U in res.snapshots[1:]:
            want = zero_mode_evolve(s0, t, cfg.nu, eta, 1)
            got = [c[i] for c in U.coeffs]
            scale = abs(want.u1) + abs(want.u2) + abs(want.u3)
            err = abs(got[0] - want.u1) + abs(got[1] - want.u2) + abs(got[2] - want.u3)
            assert err <= 1e-11 * scale

    def test_invariants_along_run(self):
        cfg = SimConfig(
            nu=1e-2, grid=GRID, dt=0.02, t_end=2.0, eps=1e-3,
            nonlinear_enabled=True, diag_every=10, snapshot_every=25,
        )
        res = run(cfg)
        assert res.status == "completed"
        for t, U in res.snapshots:
            assert divergence_defect(U) <= 1e-10
            norm = max(np.max(np.abs(c)) for c in U.coeff_arrays())
            assert max(hermitian_defect(f) for f in U.components()) <= 1e-12 * max(norm, 1e-30)
            assert all(c[0, 0, 0] == 0.0 for c in U.coeff_arrays())

    def test_twenty_nonlinear_steps_keep_invariants(self):
        # one pressure solve per stage keeps the frame divergence at rounding
        # level; the half-spectrum state keeps the output Hermitian
        cfg = SimConfig(nu=1e-2, grid=GRID, dt=0.02, eps=1e-2, nonlinear_enabled=True)
        U = random_velocity(GRID, np.random.default_rng(67))
        for c in U.coeff_arrays():
            c *= 0.5 / np.max(np.abs(c))
        t = 0.0
        for i in range(20):
            U = step(U, t, cfg.dt, cfg)
            t = (i + 1) * cfg.dt
            norm = max(np.max(np.abs(c)) for c in U.coeff_arrays())
            assert divergence_defect(U) <= 1e-10
            assert max(hermitian_defect(f) for f in U.components()) <= 1e-13 * norm
            assert max(l0_plane_defect(c) for c in U.coeff_arrays()) <= 1e-13 * norm
        assert U.time == pytest.approx(20 * cfg.dt)

    def test_blowup_cap_on_full_spectrum_norm(self):
        # the cap reads the full-spectrum l2 norm: the half-spectrum state
        # must weigh the l = 0 plane once and every other plane twice
        cfg = SimConfig(nu=1e-2, grid=GRID, dt=0.01, nonlinear_enabled=False, blowup_cap=1.0)
        U = random_velocity(GRID, np.random.default_rng(68))
        free = step(U, 0.0, cfg.dt, replace(cfg, blowup_cap=math.inf))
        l2 = math.sqrt(sum(float(np.sum(np.abs(c) ** 2)) for c in free.coeff_arrays()))
        assert np.any(U.coeffs[0, :, :, 0] != 0.0) and np.any(U.coeffs[0, :, :, 1] != 0.0)

        def scaled(factor):
            return VelocityField(GRID, U.coeffs * (factor / l2))

        step(scaled(1.0 - 1e-9), 0.0, cfg.dt, cfg)
        with pytest.raises(BlowUpError) as info:
            step(scaled(1.0 + 1e-9), 0.0, cfg.dt, cfg)
        assert info.value.time == pytest.approx(cfg.dt)

    def test_convergence_order(self):
        # the linear part is exact, so the RK2 error is the advection's:
        # halving dt must cut it by at least 3.5x against a fine-dt reference
        base = SimConfig(
            nu=2e-2, grid=GRID, dt=0.1, t_end=2.0, eps=1.0, ic_kind="random_band", seed=4,
            nonlinear_enabled=True, diag_every=10**6, snapshot_every=10**6, rk_stages=2,
        )

        def final(cfg):
            return run(cfg).snapshots[-1][1].coeffs

        ref = final(replace(base, dt=0.1 / 32, rk_stages=4))
        e1 = np.max(np.abs(final(base) - ref))
        e2 = np.max(np.abs(final(replace(base, dt=0.05)) - ref))
        assert e1 / e2 >= 3.5

    @pytest.mark.parametrize("rk_stages", [2, 4])
    @pytest.mark.parametrize("dt", [1.0, 0.25, 0.01])
    def test_linear_run_exact_at_any_dt(self, dt, rk_stages):
        cfg = SimConfig(
            nu=2e-2, grid=GRID, dt=dt, t_end=2.0, eps=1e-3, ic_mode=(1, 1, 1),
            nonlinear_enabled=False, diag_every=10**6, snapshot_every=10**6,
            rk_stages=rk_stages,
        )
        res = run(cfg)
        (_, U0), (t, U) = res.snapshots[0], res.snapshots[-1]
        assert t == pytest.approx(2.0)
        for i in (mode_index(GRID, 1, 1, 1), mode_index(GRID, -1, -1, 1)):
            want = closed_form_mode(GRID, U0.coeffs, t, cfg.nu, 1.0, i)
            err = np.linalg.norm(U.coeffs[(slice(None),) + i] - want)
            assert err <= 1e-12 * np.linalg.norm(want)

    def test_blowup_cap(self):
        cfg = SimConfig(
            nu=1e-2, grid=GRID, dt=0.01, t_end=5.0, eps=1e-3,
            nonlinear_enabled=False, diag_every=10, blowup_cap=1e-12,
        )
        res = run(cfg)
        assert res.status == "blown_up"
        assert res.t_fail is not None and res.t_fail <= 0.02


class TestInitialConditions:
    def test_single_mode_placement(self):
        cfg = SimConfig(nu=1e-2, grid=GRID, eps=1e-3, ic_mode=(1, 0, 1))
        U = initial_condition(cfg)
        assert divergence_defect(U) <= 1e-15
        assert max(hermitian_defect(f) for f in U.components()) == 0.0
        # projection of the symmetric seed leaves only the wall-normal part
        i = mode_index(GRID, 1, 0, 1)
        assert abs(U.coeffs[1][i]) == pytest.approx(1e-3 / math.sqrt(3.0), rel=1e-12)

    def test_zero_k_seed(self):
        cfg = SimConfig(nu=1e-2, grid=GRID, eps=2e-4, ic_mode=(0, 2, 1))
        U = initial_condition(cfg)
        i = mode_index(GRID, 0, 2, 1)
        assert U.coeffs[0][i] == pytest.approx(2e-4)
        assert divergence_defect(U) <= 1e-15

    def test_random_band_norm(self):
        cfg = SimConfig(
            nu=1e-2, grid=GridSpec(8, 32, 8, Ly=32.0), eps=3e-5,
            ic_kind="random_band", seed=5,
        )
        U = initial_condition(cfg)
        total = math.sqrt(sum(sobolev_norm(f, cfg.sigma) ** 2 for f in U.components()))
        assert total == pytest.approx(3e-5, rel=1e-10)
        assert divergence_defect(U) <= 1e-12 * 3e-5

    def test_random_band_determinism(self):
        cfg = SimConfig(nu=1e-2, grid=GRID, eps=1e-4, ic_kind="random_band", seed=9)
        a = initial_condition(cfg)
        b = initial_condition(cfg)
        for x, y in zip(a.coeff_arrays(), b.coeff_arrays()):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("grid", [GridSpec(4, 8, 4), GRID, GridSpec(16, 64, 16, Ly=8.0)])
    @pytest.mark.parametrize("seed", [0, 9])
    def test_random_band_draw_matches_loop(self, grid, seed):
        assert _random_band(grid, seed).tobytes() == random_band_loop(grid, seed).tobytes()

    def test_rejects_mean_mode(self):
        cfg = SimConfig(nu=1e-2, grid=GRID, ic_mode=(0, 0, 0))
        with pytest.raises(ValueError):
            initial_condition(cfg)

    def test_rejects_outside_band(self):
        cfg = SimConfig(nu=1e-2, grid=GRID, ic_mode=(7, 0, 0))
        with pytest.raises(ValueError):
            initial_condition(cfg)


class TestRun:
    def test_zero_amplitude(self):
        cfg = SimConfig(nu=1e-2, grid=GRID, dt=0.05, t_end=1.0, eps=0.0, diag_every=5)
        res = run(cfg)
        for r in res.reports:
            assert all(v == 0.0 for k, v in r.norms.items())
            assert not any(r.flags.values())

    def test_determinism(self):
        cfg = SimConfig(
            nu=1e-2, grid=GRID, dt=0.02, t_end=1.0, eps=1e-4,
            ic_kind="random_band", seed=3, diag_every=5,
        )
        a = run(cfg)
        b = run(cfg)
        for ra, rb in zip(a.reports, b.reports):
            assert ra.norms == rb.norms

    def test_eps_linearity(self):
        # with the nonlinearity off the whole trajectory is linear in eps
        base = SimConfig(
            nu=1e-2, grid=GRID, dt=0.02, t_end=2.0, eps=1e-4,
            nonlinear_enabled=False, diag_every=20,
        )
        half = replace(base, eps=5e-5)
        ra, rb = run(base), run(half)
        for a, b in zip(ra.reports, rb.reports):
            for name in ("U_neq_HN_total", "MK1_neq_HN", "mMQ3_neq_HN"):
                if a.norms[name] > 1e-300:
                    assert b.norms[name] / a.norms[name] == pytest.approx(0.5, rel=1e-9)

    def test_resolution_warning(self):
        g = GridSpec(8, 16, 8, Ly=32.0)
        cfg = SimConfig(
            nu=1e-2, grid=g, dt=0.02, t_end=0.5, eps=1e-4,
            nonlinear_enabled=False, diag_every=5, ic_mode=(1, 5, 1),
        )
        res = run(cfg)  # j = 5 exactly at the dealias band edge (cutoff 5)
        assert any("eta band edge" in w for w in res.warnings)

    def test_beta_two_smoke(self):
        cfg = SimConfig(
            nu=1e-2, grid=GRID, dt=0.02, t_end=1.0, eps=1e-4, beta=2.0,
            nonlinear_enabled=True, diag_every=10, snapshot_every=25,
        )
        res = run(cfg)
        assert res.status == "completed"
        for t, U in res.snapshots:
            kk, ee, ll = wave_numbers(GRID)
            etal = ee - kk * (2.0 * t)
            div = np.max(
                np.abs(
                    kk * U.coeffs[0] + etal * U.coeffs[1] + ll * U.coeffs[2]
                )
            )
            assert div <= 1e-10

    def test_beta_two_linear_closed_form(self):
        # beta enters the closed forms through tau = beta t and nu / beta
        cfg = SimConfig(
            nu=1e-2, grid=GRID, dt=0.05, t_end=1.5, eps=1e-4, beta=2.0,
            ic_kind="random_band", seed=6, nonlinear_enabled=False,
            diag_every=10, snapshot_every=10,
        )
        res = run(cfg)
        U0 = res.snapshots[0][1].coeffs
        for t, U in res.snapshots[1:]:
            for i in half_modes(GRID):
                want = closed_form_mode(GRID, U0, t, cfg.nu, 2.0, i)
                err = np.linalg.norm(U.coeffs[(slice(None),) + i] - want)
                assert err <= 1e-10 * np.linalg.norm(want)

    def test_cfl_warning(self):
        cfg = SimConfig(
            nu=1e-2, grid=GRID, dt=0.5, t_end=1.0, eps=10.0,
            nonlinear_enabled=True, diag_every=1, blowup_cap=1e12,
        )
        res = run(cfg)
        assert any("CFL" in w for w in res.warnings)

    def test_advective_rate_positive(self):
        rng = np.random.default_rng(64)
        U = random_velocity(GRID, rng)
        assert advective_rate_bound(U, 10.0) > 0.0
