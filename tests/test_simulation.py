"""Tests for the projection, right-hand sides and the time stepper."""

import gc
import math
import sys
import tracemalloc
import weakref
from dataclasses import replace
from functools import cached_property, lru_cache

import numpy as np
import pytest
from oracles import (
    convective_nonlinear_rhs,
    full_initial_condition,
    full_step,
    half_spectrum_step,
    hermitian_symmetrize,
    high_eta_energy_fraction,
    linear_rhs,
    psi_project_L,
    random_band_loop,
    rotational_nonlinear_rhs,
    rotational_propagator,
    run_one,
    snapshot_fields,
    sobolev_norm,
    wave_numbers,
)

from rotcouette import diagnostics, simulation
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
    _band_edge_fraction,
    _box,
    _full,
    _initial_box,
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
)


GRID = GridSpec(8, 16, 8, Ly=32.0)
NONCUBIC = GridSpec(6, 24, 10, Ly=16.0)

# A shear rate beta is the unit-shear problem at nu / beta, time beta t and
# amplitude eps / beta; the cases parametrized by beta run the unit-shear code
# on that rescaling.
SHEAR_RATES = [1.0, 2.0]


def random_velocity(grid, rng, t=0.0, project=True):
    coeffs = np.empty((3,) + grid.shape, dtype=complex)
    for i in range(3):
        c = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        coeffs[i] = hermitian_symmetrize(SpectralField(grid, c * grid.dealias_mask, t)).coeffs
    if project:
        leray_project_L(coeffs, frame_symbols(grid, t))
        coeffs[:, 0, 0, 0] = 0.0
    return VelocityField(grid, coeffs, t)


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


def closed_form_mode(grid, c, t, nu, i):
    """Velocity c of the mode at full-layout index i, evolved from time 0 to t by the closed forms.

    c need not be divergence free, since u3 is evolved from its own initial value.
    """
    k, eta, l = int(grid.k_index[i[0]]), float(grid.eta_values[i[1]]), int(grid.l_index[i[2]])
    if k == 0:
        s = zero_mode_evolve(ZeroModeState(*c), t, nu, eta, l)
        return np.array([s.u1, s.u2, s.u3])
    kv = WaveVector(k, eta, l)
    rw0, rw = (math.sqrt(k * k + (eta - k * s) ** 2 + l * l) for s in (0.0, t))
    K0 = ModeStateK(-kv.kl_magnitude * rw0 * c[0], -abs(k) * rw0 * c[1])
    K = evolve_K_closed(K0, t, nu, kv)
    return np.array(
        [-K.K1 / (kv.kl_magnitude * rw), -K.K2 / (abs(k) * rw), evolve_U3(c[2], K0, t, nu, kv)]
    )


def box_axes(grid):
    """Full-layout positions of the retained box along each axis, in FFT order."""
    cx, cy, cz = grid.dealias_cutoffs
    return (
        np.r_[0 : cx + 1, grid.Nx - cx : grid.Nx],
        np.r_[0 : cy + 1, grid.Ny - cy : grid.Ny],
        np.arange(cz + 1),
    )


def box_shape(grid):
    return tuple(len(a) for a in box_axes(grid))


def box_modes(grid):
    """(box index, full-layout index) of every box mode except the mean mode."""
    axes = box_axes(grid)
    return [
        (i, tuple(int(a[n]) for a, n in zip(axes, i)))
        for i in np.ndindex(*box_shape(grid))
        if i != (0, 0, 0)
    ]


def rhs_full(U, t):
    """``nonlinear_rhs`` of the box of U at frame time t, expanded to the full layout."""
    sym = frame_symbols(U.grid, t, box=True)
    return _full(U.grid, nonlinear_rhs(_box(U), sym, U.grid, t), t)


def count_calls(monkeypatch, *names):
    """Wrap each named ``simulation`` global in a counter; returns the live counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*a, _real=getattr(simulation, name), _name=name, **kw):
            calls[_name] += 1
            return _real(*a, **kw)

        monkeypatch.setattr(simulation, name, counted)
    return calls


def count_full_symbols(monkeypatch):
    """Count the ``frame_symbols`` calls on the full layout, from either module that calls it."""
    times = []
    for module in (simulation, diagnostics):
        def counted(grid, t, box=False, _real=module.frame_symbols):
            if not box:
                times.append(t)
            return _real(grid, t, box)

        monkeypatch.setattr(module, "frame_symbols", counted)
    return times


def box_view(U):
    """A view of box shape into the corner of U's coefficients."""
    return U.coeffs[(slice(None),) + tuple(map(slice, box_shape(U.grid)))]


def random_box(grid, rng):
    shape = (3,) + box_shape(grid)
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
            # a view of box shape into U, so that work in place would show
            lambda U: step(box_view(U), 0.6, 0.02, SimConfig(nu=1e-2, grid=GRID)),
            lambda U: propagator(GRID, 0.6, 0.62, 1e-2)(box_view(U)),
            lambda U: nonlinear_rhs(box_view(U), frame_symbols(GRID, 0.6, box=True), GRID, 0.6),
        ],
        ids=["step", "propagator", "nonlinear_rhs"],
    )
    def test_operators_leave_input_unchanged(self, op):
        # not projected, so that a projection in place would change it
        U = random_velocity(GRID, np.random.default_rng(59), t=0.6, project=False)
        before = U.coeffs.copy()
        out = op(U)
        assert not np.shares_memory(out, U.coeffs)
        assert U.coeffs.tobytes() == before.tobytes()


class TestLerayProjection:
    @pytest.mark.parametrize("box", [False, True], ids=["full", "box"])
    def test_projects_in_place_and_returns_its_argument(self, box):
        # not projected, so that the projection has something to change
        U = random_velocity(GRID, np.random.default_rng(59), t=0.6, project=False)
        f = _box(U) if box else U.coeffs
        before = f.copy()
        sym = frame_symbols(GRID, 0.6, box=box)
        assert leray_project_L(f, sym) is f
        assert np.any(f != before)
        k, etal, l, _ = sym
        div = k * f[0] + etal * f[1] + l * f[2]
        assert np.max(np.abs(div)) <= 1e-12 * np.max(np.abs(before))

    def test_divergence_free_unchanged(self):
        rng = np.random.default_rng(60)
        U = random_velocity(GRID, rng, t=0.4)
        again = leray_project_L(U.coeffs.copy(), frame_symbols(GRID, 0.4))
        for a, b in zip(U.coeff_arrays(), again):
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
        scale = np.max(np.abs(grad))
        out = leray_project_L(grad, frame_symbols(GRID, t))
        for c in out:
            assert np.max(np.abs(c)) <= 1e-12 * scale

    def test_idempotent(self):
        rng = np.random.default_rng(62)
        coeffs = np.array([
            (rng.standard_normal(GRID.shape) + 1j * rng.standard_normal(GRID.shape))
            for _ in range(3)
        ])
        t = 1.3
        sym = frame_symbols(GRID, t)
        once = leray_project_L(coeffs, sym)
        twice = leray_project_L(once.copy(), sym)
        for a, b in zip(once, twice):
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(a)))

    def test_mean_mode_passthrough(self):
        out = leray_project_L(zero_state(GRID).coeffs, frame_symbols(GRID, 0.0))
        assert np.all(out[:, 0, 0, 0] == 0.0)


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

    @pytest.mark.parametrize("beta", SHEAR_RATES)
    def test_frame_divergence_is_rotation_source(self, beta):
        # the pressure keeps div_L u = 0 under d/dt (eta - k t) = -k,
        # so the forcing itself has div_L = i k u2, not zero
        rng = np.random.default_rng(65)
        t = 0.9 * beta
        U = random_velocity(GRID, rng, t=t)
        out = linear_rhs(U, t)
        kk, etal, ll, _ = frame_symbols(GRID, t)
        div = 1j * (kk * out.coeffs[0] + etal * out.coeffs[1] + ll * out.coeffs[2])
        want = 1j * kk * U.coeffs[1]
        assert np.max(np.abs(div - want)) <= 1e-14 * np.max(np.abs(want))

    def test_single_mode_matches_closed_form(self):
        # short linear integration of one k != 0 mode against the exact pair
        cfg = SimConfig(
            nu=2e-2, grid=GRID, dt=0.01, t_end=3.0, eps=1e-3,
            nonlinear_enabled=False, diag_every=100, snapshot_every=100,
            ic_mode=(1, 1, 1),
        )
        res = run_one(cfg)
        from rotcouette.diagnostics import compute_K_check

        kv = WaveVector(1, GRID.eta_values[1], 1)
        i = mode_index(GRID, 1, 1, 1)
        fields = snapshot_fields(res)
        t0, U0 = fields[0]
        K1f, K2f = compute_K_check(U0)
        K0 = ModeStateK(K1f.coeffs[i], K2f.coeffs[i])
        for t, U in fields[1:]:
            K1f, K2f = compute_K_check(U, t)
            want = evolve_K_closed(K0, t, cfg.nu, kv)
            err = abs(K1f.coeffs[i] - want.K1) + abs(K2f.coeffs[i] - want.K2)
            assert err <= 1e-6 * want.magnitude


class TestPropagator:
    @pytest.mark.parametrize("beta", SHEAR_RATES)
    @pytest.mark.parametrize("t0", [0.0, 0.7])
    def test_matches_closed_forms(self, t0, beta):
        # random modes, not divergence free: u3 is not slaved to the pair
        rng = np.random.default_rng(70)
        u0 = random_box(GRID, rng)
        nu, t0, t1 = 1e-2 / beta, beta * t0, beta * 2.9
        ut0 = propagator(GRID, 0.0, t0, nu)(u0)
        ut1 = propagator(GRID, t0, t1, nu)(ut0)
        for ib, i in box_modes(GRID):
            ib = (slice(None),) + ib
            for got, t in ((ut0, t0), (ut1, t1)):
                want = closed_form_mode(GRID, u0[ib], t, nu, i)
                err = np.linalg.norm(got[ib] - want)
                assert err <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("beta", SHEAR_RATES)
    def test_semigroup(self, beta):
        rng = np.random.default_rng(71)
        u = random_box(GRID, rng)
        t0, tm, t1, nu = 0.4 * beta, 1.9 * beta, 3.3 * beta, 2e-2 / beta
        two = propagator(GRID, tm, t1, nu)(propagator(GRID, t0, tm, nu)(u))
        one = propagator(GRID, t0, t1, nu)(u)
        assert np.max(np.abs(two - one)) <= 1e-13 * np.max(np.abs(one))

    @pytest.mark.parametrize("beta", SHEAR_RATES)
    def test_generator_is_linear_rhs_oracle(self, beta):
        # central difference in t1 at t0 against linear_rhs - nu w u
        rng = np.random.default_rng(72)
        u = random_box(GRID, rng)
        t0, h, nu = 1.2 * beta, 1e-4, 1e-2 / beta
        d = propagator(GRID, t0, t0 + h, nu)(u) - propagator(GRID, t0, t0 - h, nu)(u)
        d /= 2.0 * h
        box = (slice(None),) + np.ix_(*box_axes(GRID))
        full = np.zeros((3,) + GRID.shape, dtype=complex)
        full[box] = u
        gen = linear_rhs(VelocityField(GRID, full, t0), t0).coeffs[box]
        want = gen - nu * frame_symbols(GRID, t0, box=True)[3] * u
        d[:, 0, 0, 0] = want[:, 0, 0, 0] = 0.0  # the mean mode is not dynamic
        assert np.max(np.abs(d - want)) <= 1e-6 * np.max(np.abs(want))

    def test_divergence_scales_by_decay(self):
        # div_L at t1 of the image is D times div_L at t0 of the input
        rng = np.random.default_rng(73)
        u = random_box(GRID, rng)
        t0, t1, nu = 0.3, 1.1, 1e-2
        out = propagator(GRID, t0, t1, nu)(u)
        lone = np.zeros_like(u)
        lone[2] = 1.0
        decay = propagator(GRID, t0, t1, nu)(lone)[2]
        k0, e0, l0, _ = frame_symbols(GRID, t0, box=True)
        k1, e1, l1, _ = frame_symbols(GRID, t1, box=True)
        div0 = k0 * u[0] + e0 * u[1] + l0 * u[2]
        div1 = k1 * out[0] + e1 * out[1] + l1 * out[2]
        assert np.max(np.abs(div1 - decay * div0)) <= 1e-13 * np.max(np.abs(div1))


class TestNonlinearRhs:
    def test_zero_input(self):
        out = rhs_full(zero_state(GRID), 0.0)
        assert all(np.all(c == 0.0) for c in out.coeff_arrays())

    def test_single_mode_support(self):
        # one conjugate pair: quadratic output only on sums/differences
        g = GRID
        U = zero_state(g)
        U.coeffs[2][mode_index(g, 1, 1, 1)] = 0.5
        U.coeffs[2][mode_index(g, -1, -1, -1)] = 0.5
        leray_project_L(U.coeffs, frame_symbols(g, 0.0))
        out = rhs_full(U, 0.0)
        allowed = {mode_index(g, *m) for m in [(0, 0, 0), (2, 2, 2), (-2, -2, -2)]}
        for c in out.coeff_arrays():
            bad = np.argwhere(np.abs(c) > 1e-14 * max(1.0, np.max(np.abs(c))))
            for idx in map(tuple, bad):
                assert idx in allowed

    def test_energy_flux_vanishes(self):
        rng = np.random.default_rng(63)
        for t in (0.0, 1.7):
            U = random_velocity(GRID, rng, t=t)
            N = rhs_full(U, t)
            flux = sum(
                float(np.sum(np.conj(a) * b).real)
                for a, b in zip(U.coeff_arrays(), N.coeff_arrays())
            )
            scale = math.sqrt(
                sum(float(np.sum(np.abs(a) ** 2)) for a in U.coeff_arrays())
            ) * math.sqrt(sum(float(np.sum(np.abs(b) ** 2)) for b in N.coeff_arrays()))
            assert abs(flux) <= 1e-8 * scale

    @pytest.mark.parametrize(
        "grid",
        [GRID, NONCUBIC, GridSpec(4, 8, 4, Ly=8.0), GridSpec(16, 64, 16, Ly=8.0)],
        ids=["8x16x8", "6x24x10", "4x8x4", "16x64x16"],
    )
    @pytest.mark.parametrize("t", [0.0, 1.7])
    def test_matches_convective_oracle(self, grid, t):
        rng = np.random.default_rng(66)
        U = random_velocity(grid, rng, t=t)
        got = rhs_full(U, t)
        want = convective_nonlinear_rhs(grid, U.coeff_arrays(), t)
        scale = max(np.max(np.abs(c)) for c in want)
        assert scale > 0.0
        for a, b in zip(got.coeff_arrays(), want):
            assert np.max(np.abs(a - b)) <= 1e-12 * scale

    def test_blowup_detection(self):
        g = GRID
        u = np.full((3,) + box_shape(g), np.nan, dtype=complex)
        with pytest.raises(BlowUpError):
            nonlinear_rhs(u, frame_symbols(g, 0.0, box=True), g, 0.0)

    @pytest.mark.parametrize("grid", [GRID, NONCUBIC], ids=["8x16x8", "6x24x10"])
    def test_edge_modes_through_partial_dfts(self, grid):
        # each corner mode of the box goes to its exact samples of
        # e^{i(kx + eta y + lz)} plus the conjugate, and back to itself
        cx, cy, cz = grid.dealias_cutoffs
        x, y, z = (2.0 * np.pi * np.arange(grid.Nx) / grid.Nx,
                   grid.Ly * np.arange(grid.Ny) / grid.Ny,
                   2.0 * np.pi * np.arange(grid.Nz) / grid.Nz)
        axes = box_axes(grid)
        for k in (cx, -cx):
            for j in (cy, -cy):
                for l in (0, cz):
                    c = np.zeros((1,) + box_shape(grid), dtype=complex)
                    at = [(k % grid.Nx, j % grid.Ny, l)]
                    if l == 0:  # the l = 0 plane holds the conjugate mode itself
                        at.append((-k % grid.Nx, -j % grid.Ny, 0))
                    for i in at:
                        c[(0,) + tuple(int(np.flatnonzero(a == n)[0]) for a, n in zip(axes, i))] = 1.0
                    phase = (k * x[:, None, None] + grid.eta_spacing * j * y[None, :, None]
                             + l * z[None, None, :])
                    got = simulation._to_grid(c, grid)
                    assert got.shape == (1, grid.Nx, grid.Ny, grid.Nz)
                    assert np.max(np.abs(got[0] - 2.0 * np.cos(phase))) <= 1e-13
                    assert np.max(np.abs(simulation._to_box(got, grid) - c)) <= 1e-13

    def test_makes_no_fft_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.fft transform called")

        for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn",
                     "fft2", "ifft2", "rfft2", "irfft2", "hfft", "ihfft"):
            monkeypatch.setattr(np.fft, name, refuse)
        U = random_velocity(GridSpec(16, 64, 16, Ly=8.0), np.random.default_rng(77), t=0.3)
        assert np.any(rhs_full(U, 0.3).coeffs != 0.0)


def same_bits(a, b):
    """Equal bit for bit, so that the sign of every zero counts."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def signed_zeros_box(grid, rng):
    """A random box in which every fifth real part and every seventh imaginary part is +-0.0."""
    u = random_box(grid, rng)
    parts = u.view(np.float64).reshape(-1, 2)
    for part, every in ((parts[:, 0], 5), (parts[:, 1], 7)):
        part[::every] = np.copysign(0.0, rng.standard_normal(part[::every].size))
    return u


class TestStackedOperatorsKeepBytes:
    """The stacked curl, cross product, projection and propagator rows against the
    per-component ones of ``oracles``, bit for bit, on the same transforms; the
    projection along both of its paths."""

    @pytest.fixture(autouse=True, params=["stacked", "per-component"])
    def projection_path(self, request, monkeypatch):
        if request.param == "per-component":
            monkeypatch.setattr(simulation, "_STACKED_MODES", 0)

    STEPPED = {"8x16x8": (GRID, 1.0, 0.05), "16x64x16": (GridSpec(16, 64, 16, Ly=8.0), 10.0, 0.01)}

    def oracle_steps(self, monkeypatch, u, cfg, n):
        with monkeypatch.context() as m:
            m.setattr(simulation, "nonlinear_rhs", rotational_nonlinear_rhs)
            m.setattr(simulation, "leray_project_L", psi_project_L)
            m.setattr(simulation, "propagator", rotational_propagator)
            return [u := simulation.step(u, i * cfg.dt, cfg.dt, cfg) for i in range(n)]

    @pytest.mark.parametrize("name", list(STEPPED))
    def test_random_band_after_three_steps(self, monkeypatch, name):
        grid, eps, dt = self.STEPPED[name]
        cfg = SimConfig(nu=5e-2, grid=grid, dt=dt, eps=eps, seed=3, ic_kind="random_band")
        u = want = _initial_box(cfg)
        wants = self.oracle_steps(monkeypatch, want, cfg, 3)
        for i, want in enumerate(wants):
            u = step(u, i * dt, dt, cfg)
            assert same_bits(u, want)
        t = 3 * dt
        sym = frame_symbols(grid, t, box=True)
        got = nonlinear_rhs(u, sym, grid, t)
        assert np.max(np.abs(got)) > 0.0
        assert same_bits(got, rotational_nonlinear_rhs(u, sym, grid, t))

    @pytest.mark.parametrize("t", [0.0, 0.35])
    def test_x_averaged_state(self, t):
        u = random_box(GRID, np.random.default_rng(5))
        u[:, 1:] = 0.0  # only the k = 0 modes
        sym = frame_symbols(GRID, t, box=True)
        assert same_bits(nonlinear_rhs(u, sym, GRID, t), rotational_nonlinear_rhs(u, sym, GRID, t))
        ph = propagator(GRID, t, t + 0.1, 1e-2)
        assert same_bits(ph(u), rotational_propagator(GRID, t, t + 0.1, 1e-2)(u))

    @pytest.mark.parametrize("t", [0.0, 0.35, 7.9])
    def test_signed_zeros(self, t):
        rng = np.random.default_rng(9)
        u = signed_zeros_box(GRID, rng)
        assert np.any(np.signbit(u.real) & (u.real == 0.0))
        sym = frame_symbols(GRID, t, box=True)
        assert same_bits(nonlinear_rhs(u, sym, GRID, t), rotational_nonlinear_rhs(u, sym, GRID, t))
        assert same_bits(leray_project_L(u.copy(), sym), psi_project_L(u.copy(), sym))
        ph = propagator(GRID, t, t + 0.1, 1e-2)
        assert same_bits(ph(u), rotational_propagator(GRID, t, t + 0.1, 1e-2)(u))

    def test_signed_zeros_through_a_step(self, monkeypatch):
        u = signed_zeros_box(GRID, np.random.default_rng(11))
        cfg = SimConfig(nu=1e-2, grid=GRID, dt=0.05)
        (want,) = self.oracle_steps(monkeypatch, u, cfg, 1)
        assert same_bits(step(u, 0.0, 0.05, cfg), want)

    @pytest.mark.parametrize("t", [0.0, 0.35, 7.9])
    def test_projection_on_the_full_layout(self, t):
        c = random_velocity(NONCUBIC, np.random.default_rng(13), project=False).coeffs
        sym = frame_symbols(NONCUBIC, t)
        got = leray_project_L(c.copy(), sym)
        assert divergence_defect(VelocityField(NONCUBIC, got, t)) < 1e-12
        assert same_bits(got, psi_project_L(c.copy(), sym))


class TestWorkspace:
    """The stage's scratch arrays are one workspace per grid (``simulation._workspace``):
    what a call returns is its own, whatever runs after it, on any grid."""

    GRIDS = {"8x16x8": GRID, "6x24x10": NONCUBIC, "4x8x4": GridSpec(4, 8, 4, Ly=8.0)}

    def calls(self, name, n=3):
        """n (box, symbols, time) inputs on one grid."""
        grid, rng = self.GRIDS[name], np.random.default_rng(len(name))
        return [(random_box(grid, rng), frame_symbols(grid, 0.25 * i, box=True), grid, 0.25 * i)
                for i in range(n)]

    def test_a_result_outlives_later_calls(self):
        first = {}
        for name in ("8x16x8", "6x24x10"):
            a, b = [nonlinear_rhs(*x) for x in self.calls(name, 2)]
            assert not np.shares_memory(a, b) and a.flags.c_contiguous
            first[name] = a, a.copy()
        for name in ("6x24x10", "8x16x8", "4x8x4"):  # a third grid evicts a workspace
            for x in self.calls(name):
                nonlinear_rhs(*x)
        for got, kept in first.values():
            assert same_bits(got, kept)

    def test_alternating_grids_repeat_each_grid_alone(self):
        inputs = {name: self.calls(name) for name in self.GRIDS}
        alone = {}
        for name, xs in inputs.items():
            simulation._workspace.cache_clear()
            alone[name] = [nonlinear_rhs(*x) for x in xs]
        simulation._workspace.cache_clear()
        for i in range(3):
            for name in ("8x16x8", "6x24x10", "8x16x8", "4x8x4", "6x24x10"):
                assert same_bits(nonlinear_rhs(*inputs[name][i]), alone[name][i])

    @pytest.mark.parametrize(
        "grid", [GridSpec(16, 64, 16, Ly=8.0), GRID], ids=["16x64x16", "8x16x8"]
    )
    def test_a_warm_call_allocates_less_than_the_physical_fields(self, grid):
        u = random_box(grid, np.random.default_rng(17))
        sym = frame_symbols(grid, 0.3, box=True)
        want = nonlinear_rhs(u, sym, grid, 0.3)  # builds the workspace and sym.d
        tracemalloc.start()
        try:
            got = nonlinear_rhs(u, sym, grid, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert same_bits(got, want)
        # the six physical fields alone are 6 Nx Ny Nz doubles; only box-sized arrays are new
        assert peak < 6 * grid.n_modes * 8


class TestStep:
    def test_zero_mode_exact(self):
        g = GRID
        cfg = SimConfig(
            nu=1e-2, grid=g, dt=0.05, t_end=4.0, eps=1e-4,
            nonlinear_enabled=False, diag_every=100, snapshot_every=20,
            ic_mode=(0, 2, 1),
        )
        res = run_one(cfg)
        i = mode_index(g, 0, 2, 1)
        eta = g.eta_values[2]
        fields = snapshot_fields(res)
        t0, U0 = fields[0]
        s0 = ZeroModeState(*(c[i] for c in U0.coeffs))
        for t, U in fields[1:]:
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
        res = run_one(cfg)
        assert res.status == "completed"
        for t, U in snapshot_fields(res):
            assert divergence_defect(U) <= 1e-10
            norm = max(np.max(np.abs(c)) for c in U.coeff_arrays())
            assert max(hermitian_defect(f) for f in U.components()) <= 1e-12 * max(norm, 1e-30)
            assert all(c[0, 0, 0] == 0.0 for c in U.coeff_arrays())

    def test_twenty_nonlinear_steps_keep_invariants(self):
        # one pressure solve per stage keeps the frame divergence at rounding
        # level; the state on the l >= 0 half of the box keeps the output Hermitian
        cfg = SimConfig(nu=1e-2, grid=GRID, dt=0.02, eps=1e-2, nonlinear_enabled=True)
        U = random_velocity(GRID, np.random.default_rng(67))
        for c in U.coeff_arrays():
            c *= 0.5 / np.max(np.abs(c))
        t = 0.0
        for i in range(20):
            U = full_step(U, t, cfg.dt, cfg)
            t = (i + 1) * cfg.dt
            norm = max(np.max(np.abs(c)) for c in U.coeff_arrays())
            assert divergence_defect(U) <= 1e-10
            assert max(hermitian_defect(f) for f in U.components()) <= 1e-13 * norm
            assert max(l0_plane_defect(c) for c in U.coeff_arrays()) <= 1e-13 * norm
        assert U.time == pytest.approx(20 * cfg.dt)

    @pytest.mark.parametrize(
        "nonlinear, n_rhs, n_proj", [(True, 4, 5), (False, 0, 1)], ids=["rk4", "linear"]
    )
    def test_operators_called_through_module_globals(self, monkeypatch, nonlinear, n_rhs, n_proj):
        # one nonlinear_rhs per stage, each projecting its result, and one
        # projection of the new state; a wrapper of either global sees them all
        calls = count_calls(monkeypatch, "nonlinear_rhs", "leray_project_L")
        cfg = SimConfig(nu=1e-2, grid=GRID, dt=0.02, nonlinear_enabled=nonlinear)
        u = _box(random_velocity(GRID, np.random.default_rng(76)))
        u *= 0.5 / np.max(np.abs(u))
        for i in range(3):
            u = step(u, i * cfg.dt, cfg.dt, cfg)
        assert calls == {"nonlinear_rhs": 3 * n_rhs, "leray_project_L": 3 * n_proj}

    def test_blowup_cap_on_full_spectrum_norm(self):
        # the cap reads the full-spectrum l2 norm: the box state must weigh
        # the l = 0 plane once and every other plane twice
        cfg = SimConfig(nu=1e-2, grid=GRID, dt=0.01, nonlinear_enabled=False, blowup_cap=1.0)
        U = random_velocity(GRID, np.random.default_rng(68))
        free = full_step(U, 0.0, cfg.dt, replace(cfg, blowup_cap=sys.float_info.max))
        l2 = math.sqrt(sum(float(np.sum(np.abs(c) ** 2)) for c in free.coeff_arrays()))
        assert np.any(U.coeffs[0, :, :, 0] != 0.0) and np.any(U.coeffs[0, :, :, 1] != 0.0)

        def scaled(factor):
            return VelocityField(GRID, U.coeffs * (factor / l2))

        full_step(scaled(1.0 - 1e-9), 0.0, cfg.dt, cfg)
        with pytest.raises(BlowUpError) as info:
            full_step(scaled(1.0 + 1e-9), 0.0, cfg.dt, cfg)
        assert info.value.time == pytest.approx(cfg.dt)

    def test_convergence_order(self):
        # the linear part is exact, so the RK4 error is the advection's:
        # halving dt must cut it by at least 12x (16x in the limit; a
        # second-order step reads 4x) against a fine-dt reference
        base = SimConfig(
            nu=2e-2, grid=GRID, dt=0.1, t_end=2.0, eps=1.0, ic_kind="random_band", seed=4,
            nonlinear_enabled=True, diag_every=10**6, snapshot_every=10**6,
        )

        def final(cfg):
            return snapshot_fields(run_one(cfg))[-1][1].coeffs

        ref = final(replace(base, dt=0.1 / 32))
        e1 = np.max(np.abs(final(replace(base, dt=0.2)) - ref))
        e2 = np.max(np.abs(final(base) - ref))
        assert e1 / e2 >= 12.0

    @pytest.mark.parametrize(
        "grid",
        [GRID, NONCUBIC, GridSpec(16, 64, 16, Ly=8.0)],
        ids=["8x16x8", "6x24x10", "16x64x16"],
    )
    @pytest.mark.parametrize("beta", SHEAR_RATES)
    @pytest.mark.parametrize("nonlinear", [False, True], ids=["linear", "rk4"])
    def test_box_step_matches_half_spectrum_oracle(self, nonlinear, beta, grid):
        # the stepper on the retained box against the whole half spectrum with
        # dealias masks and numpy's FFTs: a linear step equal to the bit, up to
        # the sign of a zero, which the oracle's mask multiply can flip; a
        # nonlinear one, whose advection goes through partial DFTs, to rounding;
        # exact zeros outside the box
        cfg = SimConfig(nu=1e-2 / beta, grid=grid, dt=0.02 * beta, nonlinear_enabled=nonlinear)
        U = random_velocity(grid, np.random.default_rng(69))
        U.coeffs *= 0.5 / (beta * np.max(np.abs(U.coeffs)))
        want, t = U, 0.0
        for _ in range(3):
            U, want = full_step(U, t, cfg.dt, cfg), half_spectrum_step(want, t, cfg.dt, cfg)
            t += cfg.dt
            if nonlinear:
                scale = np.max(np.abs(want.coeffs))
                assert np.max(np.abs(U.coeffs - want.coeffs)) <= 1e-13 * scale
            else:
                assert np.array_equal(U.coeffs, want.coeffs)
            assert not np.any(U.coeffs[:, ~grid.dealias_mask])
            assert U.time == want.time

    @pytest.mark.parametrize("rk_stages", [4])  # the only scheme; a linear step never reads it
    @pytest.mark.parametrize("dt", [1.0, 0.25, 0.01])
    def test_linear_run_exact_at_any_dt(self, dt, rk_stages):
        cfg = SimConfig(
            nu=2e-2, grid=GRID, dt=dt, t_end=2.0, eps=1e-3, ic_mode=(1, 1, 1),
            nonlinear_enabled=False, diag_every=10**6, snapshot_every=10**6,
            rk_stages=rk_stages,
        )
        res = run_one(cfg)
        fields = snapshot_fields(res)
        (_, U0), (t, U) = fields[0], fields[-1]
        assert t == pytest.approx(2.0)
        for i in (mode_index(GRID, 1, 1, 1), mode_index(GRID, -1, -1, 1)):
            want = closed_form_mode(GRID, U0.coeffs[(slice(None),) + i], t, cfg.nu, i)
            err = np.linalg.norm(U.coeffs[(slice(None),) + i] - want)
            assert err <= 1e-12 * np.linalg.norm(want)

    def test_blowup_cap(self):
        cfg = SimConfig(
            nu=1e-2, grid=GRID, dt=0.01, t_end=5.0, eps=1e-3,
            nonlinear_enabled=False, diag_every=10, blowup_cap=1e-12,
        )
        res = run_one(cfg)
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
    @pytest.mark.parametrize("kind", ["random_band", "single_mode"])
    def test_zero_outside_dealiased_band(self, grid, kind):
        cx, cy, cz = grid.dealias_cutoffs
        cfg = SimConfig(nu=1e-2, grid=grid, eps=1e-4, ic_kind=kind, seed=3, ic_mode=(cx, -cy, cz))
        U = initial_condition(cfg)
        assert np.any(U.coeffs)
        assert not np.any(U.coeffs[:, ~grid.dealias_mask])

    @pytest.mark.parametrize("grid", [GridSpec(4, 8, 4), GRID, GridSpec(16, 64, 16, Ly=8.0)])
    @pytest.mark.parametrize("seed", [0, 9])
    def test_random_band_draw_matches_loop(self, grid, seed):
        want = _box(VelocityField(grid, random_band_loop(grid, seed)))
        assert _random_band(grid, seed).tobytes() == want.tobytes()

    def test_rejects_mean_mode(self):
        with pytest.raises(ValueError, match="mean mode"):
            SimConfig(nu=1e-2, grid=GRID, ic_mode=(0, 0, 0))

    def test_rejects_outside_band(self):
        with pytest.raises(ValueError, match="dealiased band"):
            SimConfig(nu=1e-2, grid=GRID, ic_mode=(7, 0, 0))

    def test_file_rejects_mode_outside_band(self, tmp_path):
        from rotcouette.reporting import write_snapshot_csv

        U = random_velocity(GRID, np.random.default_rng(74))
        path = write_snapshot_csv(tmp_path / "ic.csv", U, 1e-2)
        cfg = SimConfig(nu=1e-2, grid=GRID, ic_kind="file", ic_file=str(path))
        assert initial_condition(cfg).coeffs.tobytes() == _full(GRID, _box(U), 0.0).coeffs.tobytes()
        # k = 3 lies past the cutoff cx = 2
        with path.open("a") as f:
            f.write(f"3,1,0,{float(GRID.eta_values[1])!r},0.0,0.0,1e-3,0.0,0.0,0.0\n")
        with pytest.raises(ValueError, match="outside the dealiased band"):
            initial_condition(cfg)

    def test_file_rejects_snapshot_that_is_not_a_real_field(self, tmp_path):
        from rotcouette.reporting import write_snapshot_csv

        U = random_velocity(GRID, np.random.default_rng(75))
        path = write_snapshot_csv(tmp_path / "ic.csv", U, 1e-2)
        cfg = SimConfig(nu=1e-2, grid=GRID, ic_kind="file", ic_file=str(path))
        assert initial_condition(cfg).coeffs.tobytes() == _full(GRID, _box(U), 0.0).coeffs.tobytes()
        # move u1_re of the first l < 0 row by 1e-3
        lines = path.read_text().splitlines(keepends=True)
        rows = [i for i, line in enumerate(lines) if not line.startswith(("#", "k,"))]
        i = next(i for i in rows if int(lines[i].split(",")[2]) < 0)
        row = lines[i].split(",")
        row[4] = repr(float(row[4]) + 1e-3)
        lines[i] = ",".join(row)
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="not a real field"):
            initial_condition(cfg)

    @pytest.mark.parametrize("grid", [GRID, GridSpec(16, 64, 16, Ly=8.0)], ids=["8x16x8", "16x64x16"])
    def test_file_l0_plane_must_be_a_real_field(self, tmp_path, grid):
        from rotcouette.reporting import write_snapshot_csv

        # the last snapshot of a nonlinear run is its own l = 0 reflection to rounding
        band = SimConfig(nu=1e-2, grid=grid, dt=0.02, t_end=0.2, eps=1.0, ic_kind="random_band",
                         seed=3, snapshot_every=10)
        _, U = snapshot_fields(run_one(band))[-1]
        path = write_snapshot_csv(tmp_path / "ic.csv", U, 1e-2)
        cfg = SimConfig(nu=1e-2, grid=grid, ic_kind="file", ic_file=str(path))
        assert initial_condition(cfg).coeffs.tobytes() == _full(grid, _box(U), 0.0).coeffs.tobytes()
        # 1e-4j on u3 at (k, j, l) = (1, 0, 0) leaves its reflection (-1, 0, 0) behind
        U.coeffs[2, 1, 0, 0] += 1e-4j
        write_snapshot_csv(path, U, 1e-2)
        with pytest.raises(ValueError, match="l = 0 plane"):
            initial_condition(cfg)


# the grids of the three benchmark workloads, and one whose cutoffs (1, 2, 1) clip the
# random band |k|, |j|, |l| <= 2 on every axis
BOX_GRIDS = {
    "16x64x16": GridSpec(16, 64, 16, Ly=8.0),
    "32x128x32": GridSpec(32, 128, 32, Ly=8.0),
    "8x16x8": GRID,
    "6x8x6": GridSpec(6, 8, 6, Ly=32.0),
}


@pytest.mark.parametrize("grid", list(BOX_GRIDS.values()), ids=list(BOX_GRIDS))
class TestInitialBox:
    """``_initial_box`` against the full-layout construction it replaced, ``full_initial_condition``."""

    @pytest.mark.parametrize("seed", [1, 3, 7])
    def test_random_band(self, grid, seed):
        cfg = SimConfig(nu=1e-2, grid=grid, eps=1e-6, ic_kind="random_band", seed=seed)
        # before normalisation: the same draws and projection, bit for bit
        b = leray_project_L(_random_band(grid, seed), frame_symbols(grid, 0.0, box=True))
        b[:, 0, 0, 0] = 0.0
        assert b.tobytes() == _box(full_initial_condition(cfg, normalise=False)).tobytes()
        # the H^sigma norm sums the box, not the full layout: the scales may differ by an ulp,
        # and each scaled value rounds on its own (4.06e-16 at seed 24 on 6x8x6 with eps = 10)
        got, want = _initial_box(cfg), _box(full_initial_condition(cfg))
        assert np.max(np.abs(got - want)) <= 2.0 * np.finfo(float).eps * np.max(np.abs(want))

    def test_single_mode(self, grid):
        cx, cy, cz = grid.dealias_cutoffs
        for mode in [(1, 0, 1), (1, -1, -1), (-1, 2, 0), (0, 1, 0), (0, -2, 1), (cx, -cy, -cz)]:
            cfg = SimConfig(nu=1e-2, grid=grid, eps=3e-4, ic_mode=mode)
            assert _initial_box(cfg).tobytes() == _box(full_initial_condition(cfg)).tobytes(), mode

    def test_file(self, grid, tmp_path):
        from rotcouette.reporting import write_snapshot_csv

        seeded = SimConfig(nu=1e-2, grid=grid, eps=1e-3, ic_kind="random_band", seed=5)
        U = full_step(full_initial_condition(seeded), 0.0, 0.05, seeded)
        path = write_snapshot_csv(tmp_path / "ic.csv", U, 1e-2)
        cfg = SimConfig(nu=1e-2, grid=grid, ic_kind="file", ic_file=str(path))
        assert _initial_box(cfg).tobytes() == _box(full_initial_condition(cfg)).tobytes()


class TestRun:
    def test_zero_amplitude(self):
        cfg = SimConfig(nu=1e-2, grid=GRID, dt=0.05, t_end=1.0, eps=0.0, diag_every=5)
        res = run_one(cfg)
        for r in res.reports:
            assert all(v == 0.0 for k, v in r.norms.items())
            assert not any(r.flags.values())

    def test_determinism(self):
        cfg = SimConfig(
            nu=1e-2, grid=GRID, dt=0.02, t_end=1.0, eps=1e-4,
            ic_kind="random_band", seed=3, diag_every=5,
        )
        a = run_one(cfg)
        b = run_one(cfg)
        for ra, rb in zip(a.reports, b.reports):
            assert ra.norms == rb.norms

    def test_eps_linearity(self):
        # with the nonlinearity off the whole trajectory is linear in eps
        base = SimConfig(
            nu=1e-2, grid=GRID, dt=0.02, t_end=2.0, eps=1e-4,
            nonlinear_enabled=False, diag_every=20,
        )
        half = replace(base, eps=5e-5)
        ra, rb = run([base, half])
        assert ra.error is None and rb.error is None
        assert len(ra.reports) == len(rb.reports) == 6
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
        res = run_one(cfg)  # j = 5 exactly at the dealias band edge (cutoff 5)
        assert any("eta band edge" in w for w in res.warnings)

    def test_no_resolution_warning_inside_band(self):
        cfg = SimConfig(
            nu=1e-2, grid=GRID, dt=0.02, t_end=0.5, eps=1e-4,
            nonlinear_enabled=False, diag_every=5, ic_mode=(1, 2, 1),
        )
        res = run_one(cfg)  # j = 2, well inside the edge band |j| >= 4.5
        assert res.status == "completed" and len(res.reports) == 6
        assert not any("eta band edge" in w for w in res.warnings)

    def test_band_edge_fraction_matches_spectral(self):
        cfg = SimConfig(
            nu=1e-2, grid=GRID, dt=0.02, eps=1e-3, ic_kind="random_band", seed=1,
        )
        U = full_step(initial_condition(cfg), 0.0, cfg.dt, cfg)
        cy = GRID.dealias_cutoffs[1]
        want = max(high_eta_energy_fraction(f, j_limit=cy) for f in U.components())
        assert want > 1e-3
        assert _band_edge_fraction(_box(U), GRID) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("nonlinear", [False, True], ids=["linear", "nonlinear"])
    def test_snapshots_share_no_memory(self, nonlinear):
        cfg = SimConfig(
            nu=1e-2, grid=GRID, dt=0.05, t_end=0.2, eps=1e-4, ic_kind="random_band", seed=2,
            nonlinear_enabled=nonlinear, diag_every=1, snapshot_every=1,
        )
        res = run_one(cfg)
        assert (res.n_steps, res.dt) == (4, 0.05)
        stored = [b for _, b in res.snapshots]  # the boxes that step returned, kept uncopied
        assert len(stored) == 5
        for i, a in enumerate(stored):
            assert not any(np.shares_memory(a, b) for b in stored[i + 1 :])

    def test_cfl_warning(self):
        cfg = SimConfig(
            nu=1e-2, grid=GRID, dt=0.5, t_end=1.0, eps=10.0,
            nonlinear_enabled=True, diag_every=1, blowup_cap=1e12,
        )
        res = run_one(cfg)
        assert any("CFL" in w for w in res.warnings)

    def test_advective_rate_positive(self):
        rng = np.random.default_rng(64)
        U = random_velocity(GRID, rng)
        rate = advective_rate_bound(_box(U), 10.0, GRID)
        assert rate > 0.0
        # the l1 sum over the box counts each l > 0 mode for its reflection too
        cx, cy, cz = GRID.dealias_cutoffs
        l1 = float(np.sum(np.abs(U.coeffs)))
        assert rate == pytest.approx(l1 * (cx + cy * GRID.eta_spacing + 10.0 * cx + cz), rel=1e-14)


class TestRunCarriesTheBox:
    """``run`` builds, steps and keeps the retained box; the full layout only reads a file,
    and ``simulate`` builds one per snapshot as it writes it."""

    def cfg(self, **kw):
        # dt = 0.1 puts the step's tag 5 dt + dt = 0.6 off the row time 6 dt
        return SimConfig(
            nu=1e-2, grid=GRID, dt=0.1, t_end=1.0, eps=1e-3, ic_kind="random_band", seed=2,
            diag_every=2, **kw,
        )

    @pytest.mark.parametrize("nonlinear", [False, True], ids=["linear", "nonlinear"])
    def test_no_full_layout_without_snapshots(self, monkeypatch, nonlinear):
        calls = count_calls(monkeypatch, "_box", "_full", "step")
        full_symbols = count_full_symbols(monkeypatch)
        res = run_one(self.cfg(nonlinear_enabled=nonlinear))
        assert (res.status, res.n_steps, res.snapshots) == ("completed", 10, [])
        # the random band is built on the box; every step goes through the
        # module global, where a wrapper sees it
        assert calls == {"_box": 0, "_full": 0, "step": 10}
        assert full_symbols == []

    def test_file_initial_condition_gathered_once(self, monkeypatch, tmp_path):
        from rotcouette.reporting import write_snapshot_csv

        path = write_snapshot_csv(tmp_path / "ic.csv", initial_condition(self.cfg()), 1e-2)
        calls = count_calls(monkeypatch, "_box", "_full", "step")
        res = run_one(replace(self.cfg(), ic_kind="file", ic_file=str(path)))
        assert (res.status, res.n_steps, res.snapshots) == ("completed", 10, [])
        assert calls == {"_box": 1, "_full": 0, "step": 10}

    @pytest.mark.parametrize("every", [1, 3, 4, 10])
    def test_one_full_layout_per_stored_snapshot(self, monkeypatch, tmp_path, every):
        from rotcouette import cli

        calls = count_calls(monkeypatch, "_box", "_full", "step")
        res = run_one(self.cfg(snapshot_every=every))
        stored = [i for i in range(1, 11) if i % every == 0 or i == 10]
        assert len(res.snapshots) == 1 + len(stored)
        assert calls == {"_box": 0, "_full": 0, "step": 10}
        # simulate expands each kept box at its tag as it writes it
        expanded = []
        monkeypatch.setattr(cli, "_full", lambda g, b, t: expanded.append(t) or _full(g, b, t))
        ini = tmp_path / "run.ini"
        ini.write_text(
            f"[sim]\nnu = 1e-2\nnx = 8\nny = 16\nnz = 8\nly = 32.0\ndt = 0.1\nt_end = 1.0\n"
            f"eps = 1e-3\nic_kind = random_band\nseed = 2\ndiag_every = 2\nsnapshot_every = {every}\n"
        )
        assert cli.main(["simulate", "--config", str(ini), "--out", str(tmp_path / "out")]) == 0
        assert expanded == [t for t, _ in res.snapshots]
        assert len(list((tmp_path / "out").glob("snapshot_*.csv"))) == 1 + len(stored)

    @pytest.mark.parametrize("nonlinear", [False, True], ids=["linear", "nonlinear"])
    def test_snapshots_match_hand_loop(self, nonlinear):
        cfg = self.cfg(nonlinear_enabled=nonlinear, snapshot_every=3)
        res = run_one(cfg)
        u = _initial_box(cfg)
        # the t = 0 snapshot is the initial box, like every later one the box of its step
        want, t = [(0, 0.0, u)], 0.0
        for i in range(1, res.n_steps + 1):
            u = step(u, t, res.dt, cfg)
            t_step, t = t + res.dt, i * res.dt
            if i % 3 == 0 or i == res.n_steps:
                want.append((i, t_step, u))
        # a snapshot's time is the step's own tag, which some row times i dt are not
        assert [t for t, _ in res.snapshots] == [t for _, t, _ in want]
        assert any(t != i * res.dt for i, t, _ in want)
        for (_, got), (_, _, b) in zip(res.snapshots, want):
            assert got.tobytes() == b.tobytes()


OPERATOR_CACHES = (
    (simulation, "_box_symbols"),
    (simulation, "_propagator_coeffs"),
    (simulation, "_workspace"),
    (diagnostics, "_ledger_constants"),
    (diagnostics, "_ledger_weights"),
)


def counted_stacked_d(monkeypatch, builds, refs):
    """``_Symbols.d``, which the cached symbols hold, rebuilt around a counter of its builds
    in ``builds["d"]``; ``refs`` collects weak references to the arrays built."""
    real = vars(simulation._Symbols)["d"].func

    def build(sym):
        builds["d"] += 1
        out = real(sym)
        refs.append(weakref.ref(out))
        return out

    counted = cached_property(build)
    counted.__set_name__(simulation._Symbols, "d")
    builds["d"] = 0
    monkeypatch.setattr(simulation._Symbols, "d", counted)


def counted_caches(monkeypatch, stacked=None):
    """Each per-time operator cache, and the symbols' stacked d, rebuilt around a counter of
    its builds; returns the counts.  ``stacked`` collects weak references to the d built.
    ``run`` empties the counted caches when it returns, as it does the real ones."""
    builds, counted = {}, []
    counted_stacked_d(monkeypatch, builds, [] if stacked is None else stacked)
    for module, name in OPERATOR_CACHES:
        cached = getattr(module, name)

        def build(*key, _fn=cached.__wrapped__, _name=name):
            builds[_name] += 1
            return _fn(*key)

        builds[name] = 0
        counted.append(lru_cache(maxsize=cached.cache_info().maxsize)(build))
        monkeypatch.setattr(module, name, counted[-1])
    monkeypatch.setattr(simulation, "_TIME_CACHES", counted)
    return builds


def run_record(res):
    """Everything a run reports, for comparing a lockstep run with a run alone."""
    return (
        res.status, res.t_fail, res.warnings, res.n_steps, res.dt,
        [(r.t, r.norms, r.flags) for r in res.reports],
    )


class TestLockstep:
    """``run`` of several configurations matches running each one alone."""

    def cfgs(self, eps, **kw):
        base = dict(nu=1e-2, grid=GRID, dt=0.05, t_end=1.0, ic_kind="random_band", diag_every=2)
        base.update(kw)
        return [SimConfig(eps=e, seed=i, **base) for i, e in enumerate(eps)]

    def test_early_blow_up_leaves_the_others_running(self):
        cfgs = self.cfgs([1.0, 1e4, 10.0])
        together = run(cfgs)
        assert [r.status for r in together] == ["completed", "blown_up", "completed"]
        assert together[1].t_fail < 0.5 and together[1].error is None
        for cfg, res in zip(cfgs, together):
            assert run_record(res) == run_record(run_one(cfg))

    def test_a_failing_step_ends_its_cell_alone(self, monkeypatch):
        cfgs = self.cfgs([1.0, 2.0, 10.0])
        alone = [run_one(cfg) for cfg in cfgs]
        real_step = simulation.step

        def failing(u, t, dt, cfg):
            if cfg.eps == 2.0 and t > 0.3:
                raise RuntimeError("injected")
            return real_step(u, t, dt, cfg)

        monkeypatch.setattr(simulation, "step", failing)
        together = run(cfgs)
        assert together[1].status == "error" and str(together[1].error) == "injected"
        # its rows up to the failure are those of the run alone
        assert together[1].reports[-1].t == pytest.approx(0.3)
        assert run_record(together[1])[-1] == run_record(alone[1])[-1][: len(together[1].reports)]
        for i in (0, 2):
            assert run_record(together[i]) == run_record(alone[i])

    def test_own_step_sizes_share_nothing(self, monkeypatch):
        cfgs = self.cfgs([1e2, 3e2], dt=None, t_end=0.02, diag_every=1)
        alone = [run_one(cfg) for cfg in cfgs]
        builds = counted_caches(monkeypatch)
        together = run(cfgs)
        assert together[0].dt != together[1].dt
        assert builds["_propagator_coeffs"] == 2 * sum(r.n_steps for r in together)
        for a, b in zip(together, alone):
            assert run_record(a) == run_record(b)

    def test_a_row_builds_each_operator_once(self, monkeypatch):
        stacked = []
        builds = counted_caches(monkeypatch, stacked)
        sizes, alive = [], []
        real_step = simulation.step

        def step(*a):
            out = real_step(*a)
            sizes.append([getattr(m, n).cache_info() for m, n in OPERATOR_CACHES])
            alive.append(sum(ref() is not None for ref in stacked))
            return out

        monkeypatch.setattr(simulation, "step", step)
        cfgs = self.cfgs([1e-3, 1e-2, 1e-1], t_end=5.0, diag_every=5)
        counts = []
        for row in (cfgs[:1], cfgs):
            builds.update(dict.fromkeys(builds, 0))
            results = run(row)
            assert all(r.status == "completed" and r.n_steps == 100 for r in results)
            counts.append(dict(builds))
        # three cells build each time's operators as often as one cell does
        assert counts[0] == counts[1]
        assert counts[0]["_propagator_coeffs"] == 2 * 100  # both half steps of each step
        assert counts[0]["_workspace"] == 1  # one grid, so one workspace for the whole row
        assert counts[0]["_ledger_constants"] == 1  # and one (grid, nu, sigma), so one set of constants
        assert counts[0]["_ledger_weights"] == 100 // 5 + 1  # one per row time
        # for the curl and the projections at the stage times t + dt/2 and t + dt of each step
        assert counts[0]["d"] >= 2 * 100
        # the caches hold one step's operators at most, whatever the horizon
        assert len(sizes) == 400
        assert all(info.currsize <= info.maxsize <= 4 for infos in sizes for info in infos)
        assert max(alive) <= 4  # those of the cached symbols alone

    def test_a_finished_run_holds_no_operators(self, monkeypatch):
        builds, stacked, spaces = {}, [], []
        counted_stacked_d(monkeypatch, builds, stacked)
        real_step = simulation.step

        def step(u, t, dt, cfg):
            out = real_step(u, t, dt, cfg)
            spaces.append(weakref.ref(simulation._workspace(cfg.grid)))
            return out

        monkeypatch.setattr(simulation, "step", step)
        results = run(self.cfgs([1.0, 10.0], t_end=0.2))
        assert all(r.status == "completed" for r in results)
        assert {c.__wrapped__.__name__ for c in simulation._TIME_CACHES} == {
            name for _, name in OPERATOR_CACHES
        }
        assert all(c.cache_info().currsize == 0 for c in simulation._TIME_CACHES)
        # each stacked d went with the cached symbols that held it, and the
        # workspace that the steps shared went with its cache
        gc.collect()
        assert builds["d"] > 0 and all(ref() is None for ref in stacked)
        assert len(spaces) == 2 * 4 and all(ref() is None for ref in spaces)
