"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines and the reported constants.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from rotcouette.diagnostics import compute_K_check
from rotcouette.linear import (
    ModeStateK,
    enhanced_dissipation_check,
    evolve_K_closed,
    evolve_U3,
    zero_mode_evolve,
    ZeroModeState,
)
from rotcouette.multipliers import (
    MultiplierParams,
    M_closed,
    check_M_bounds_and_coercivity,
    check_m_bounds,
    m_ode_residual,
)
from rotcouette.simulation import SimConfig, divergence_defect, run
from rotcouette.spectral import GridSpec, WaveVector, integral_w, sobolev_norm
from rotcouette.threshold import ClassifyCriteria, classify_run, default_horizon

from oracles import (
    expm_zero_mode,
    random_modes,
    rk4_K_batch,
    rk4_M_batch,
    truncate_to_decay,
)


def _sample_criterion1(rng, n=500):
    modes = random_modes(rng, n, kmax=8, eta_max=50.0, lmax=8)
    nu = 10 ** rng.uniform(-4, -1, n)
    t = rng.uniform(0.0, 50.0, n)
    K1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    K2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return modes, nu, t, K1, K2


def test_criterion_01_exact_pair_decay():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    modes, nu, t, K1, K2 = _sample_criterion1(rng)

    # exact decay identity at the full sampled times (underflow guarded)
    for i, kv in enumerate(modes):
        state = ModeStateK(K1[i], K2[i])
        out = evolve_K_closed(state, float(t[i]), float(nu[i]), kv)
        want = math.exp(-2.0 * nu[i] * integral_w(float(t[i]), kv)) * state.magnitude**2
        got = out.magnitude**2
        if want > 1e-280:
            assert abs(got - want) <= 1e-10 * want
        else:
            assert got <= 1e-280

    # independent RK4 integration, compared where the decay is representable
    t_cmp = np.array(
        [truncate_to_decay(float(t[i]), float(nu[i]), kv) for i, kv in enumerate(modes)]
    )
    k = np.array([kv.k for kv in modes], float)
    eta = np.array([kv.eta for kv in modes])
    l = np.array([kv.l for kv in modes], float)
    K1_o, K2_o = rk4_K_batch(K1, K2, nu, k, eta, l, t_cmp)
    worst = 0.0
    for i, kv in enumerate(modes):
        out = evolve_K_closed(ModeStateK(K1[i], K2[i]), float(t_cmp[i]), float(nu[i]), kv)
        scale = abs(K1_o[i]) + abs(K2_o[i])
        err = (abs(out.K1 - K1_o[i]) + abs(out.K2 - K2_o[i])) / scale
        worst = max(worst, err)
    assert worst <= 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(
        f"[PASS] criterion 1: exact pair decay identity (rel 1e-10) and RK4 match "
        f"(worst rel {worst:.2e} <= 1e-6) on 500 modes in {elapsed:.1f}s"
    )


def test_criterion_02_enhanced_dissipation_envelope():
    rng = np.random.default_rng(101)  # same draw as criterion 1
    modes, nu, t, K1, K2 = _sample_criterion1(rng)
    for i, kv in enumerate(modes):
        assert enhanced_dissipation_check(
            ModeStateK(K1[i], K2[i]), float(t[i]), float(nu[i]), kv, slack=1e-12
        )
    print("[PASS] criterion 2: cubic-in-time dissipation envelope holds on all 500 samples")


def test_criterion_03_third_component_bound():
    rng = np.random.default_rng(103)
    worst_margin = -math.inf
    for _ in range(500):
        kv = random_modes(rng, 1, kmax=8, eta_max=50.0, lmax=8)[0]
        nu = float(10 ** rng.uniform(-4, -1))
        t = float(rng.uniform(0.0, 30.0))
        state0 = ModeStateK(
            K1=complex(rng.standard_normal(), rng.standard_normal()),
            K2=complex(rng.standard_normal(), rng.standard_normal()),
        )
        u3_0 = complex(rng.standard_normal(), rng.standard_normal())
        got = evolve_U3(u3_0, state0, t, nu, kv)
        bound = math.exp(-(nu / 12.0) * kv.k**2 * t**3) * (
            abs(u3_0) + 12.0 / abs(kv.k) * state0.magnitude
        )
        assert abs(got) <= bound + 1e-8
        worst_margin = max(worst_margin, abs(got) - bound)
    print(
        f"[PASS] criterion 3: third-component a-priori bound on 500 instances "
        f"(worst excess {worst_margin:.2e} <= 1e-8)"
    )


def test_criterion_04_zero_mode_semigroup():
    start = time.monotonic()
    rng = np.random.default_rng(104)
    for _ in range(200):
        eta = float(rng.uniform(-10.0, 10.0))
        l = int(rng.integers(-5, 6))
        if eta == 0.0 and l == 0:
            l = 1
        nu = float(10 ** rng.uniform(-4, -1))
        t = float(rng.uniform(0.0, 20.0))
        v0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        want = expm_zero_mode(eta, l, nu, t) @ v0
        out = zero_mode_evolve(ZeroModeState(*v0), t, nu, eta, l)
        got = np.array([out.u1, out.u2, out.u3])
        assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, float(np.max(np.abs(want))))

    # inviscid lift-up slopes at eta = l = 1 (coefficient l^2/(eta^2+l^2) = 1/2)
    for t in (0.5, 2.0, 7.0):
        out = zero_mode_evolve(ZeroModeState(1.0, 0.0, 0.0), t, 0.0, 1.0, 1)
        assert out.u2 / t == pytest.approx(-0.5, rel=1e-14)
        assert out.u3 / t == pytest.approx(0.5, rel=1e-14)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(
        f"[PASS] criterion 4: x-averaged semigroup matches expm oracle (1e-10, 200 draws), "
        f"lift-up slopes -1/2 and +1/2 exact, in {elapsed:.1f}s"
    )


def test_criterion_05_multiplier_consistency():
    start = time.monotonic()
    rng = np.random.default_rng(105)

    # (a) defining-ODE residual at 1e4 interior points
    checked = 0
    while checked < 10_000:
        nu = float(10 ** rng.uniform(-6, -1))
        p = MultiplierParams(nu=nu)
        kv = random_modes(rng, 1, eta_max=50.0)[0]
        ratio = kv.eta / kv.k
        lo = max(ratio, 0.0) + 0.01
        hi = ratio + p.window_length - 0.01
        if hi <= lo:
            continue
        t = float(rng.uniform(lo, min(hi, lo + 200.0)))
        assert m_ode_residual(t, kv, p) <= 1e-6
        checked += 1

    # (b) ghost weight against RK4 on 500 instances
    n = 500
    modes = random_modes(rng, n, eta_max=50.0)
    k = np.array([kv.k for kv in modes], float)
    eta = np.array([kv.eta for kv in modes])
    nus = 10 ** rng.uniform(-6, -1, n)
    ts = rng.uniform(0.1, 50.0, n)
    oracle = rk4_M_batch(nus, k, eta, ts)
    for i, kv in enumerate(modes):
        got = M_closed(float(ts[i]), kv, MultiplierParams(nu=float(nus[i])))
        assert abs(got - float(oracle[i])) <= 1e-8

    # (c) bounds on 1e5 samples split across a nu ladder; c1 reported
    c1 = math.inf
    m_max = 0.0
    M_min, M_max_seen = math.inf, 0.0
    nu_ladder = 10 ** np.linspace(-6, -1, 10)
    for nu in nu_ladder:
        p = MultiplierParams(nu=float(nu))
        samples = [
            (float(rng.uniform(0.0, 2.0 * p.window_length)), kv)
            for kv in random_modes(rng, 5000, eta_max=50.0, nonzero_k=False)
        ]
        mrep = check_m_bounds(samples, p)
        assert mrep.upper_bound_ok
        c1 = min(c1, mrep.c1)
        m_max = max(m_max, mrep.m_max)
        Mrep = check_M_bounds_and_coercivity(samples, p)
        assert Mrep.bounds_ok
        M_min = min(M_min, Mrep.M_min)
        M_max_seen = max(M_max_seen, Mrep.M_max)
    assert c1 > 0.0
    assert m_max <= 1.0 + 1e-12
    assert math.exp(-math.pi) <= M_min and M_max_seen <= 1.0
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(
        f"[PASS] criterion 5: ODE residual <= 1e-6 at 1e4 points, ghost weight vs RK4 "
        f"<= 1e-8 (500), bounds on 1e5 samples with c1 = {c1:.3e}, in {elapsed:.1f}s"
    )


ACCEPT_GRID = GridSpec(16, 64, 16, Ly=32.0)


@pytest.fixture(scope="module")
def linear_run16():
    cfg = SimConfig(
        nu=1e-2, grid=ACCEPT_GRID, dt=0.01, t_end=10.0, eps=1e-6,
        nonlinear_enabled=False, diag_every=5, snapshot_every=20,
        ic_mode=(1, 0, 1),
    )
    start = time.monotonic()
    result = run(cfg)
    return cfg, result, time.monotonic() - start


@pytest.fixture(scope="module")
def zero_run16():
    cfg = SimConfig(
        nu=1e-2, grid=ACCEPT_GRID, dt=0.01, t_end=10.0, eps=1e-6,
        nonlinear_enabled=False, diag_every=10, snapshot_every=20,
        ic_mode=(0, 2, 1),
    )
    start = time.monotonic()
    result = run(cfg)
    return cfg, result, time.monotonic() - start


def test_criterion_06_simulator_vs_closed_form(linear_run16, zero_run16):
    cfg, res, t_wall_a = linear_run16
    assert res.status == "completed"
    kv = WaveVector(1, ACCEPT_GRID.eta_values[0], 1)
    i = (1, 0, 1)
    t0, U0 = res.snapshots[0]
    K1f, K2f = compute_K_check(U0)
    K0 = ModeStateK(K1f.coeffs[i], K2f.coeffs[i])
    worst = 0.0
    for t, U in res.snapshots[1:]:
        K1f, K2f = compute_K_check(U, t)
        want = evolve_K_closed(K0, t, cfg.nu, kv)
        err = (abs(K1f.coeffs[i] - want.K1) + abs(K2f.coeffs[i] - want.K2)) / want.magnitude
        worst = max(worst, err)
        assert divergence_defect(U) <= 1e-10
    assert worst <= 1e-4

    cfg0, res0, t_wall_b = zero_run16
    assert res0.status == "completed"
    j = 2
    i0 = (0, j, 1)
    eta = ACCEPT_GRID.eta_values[j]
    _, W0 = res0.snapshots[0]
    s0 = ZeroModeState(*(c[i0] for c in W0.coeffs))
    worst0 = 0.0
    for t, U in res0.snapshots[1:]:
        want = zero_mode_evolve(s0, t, cfg0.nu, eta, 1)
        got = [c[i0] for c in U.coeffs]
        scale = abs(want.u1) + abs(want.u2) + abs(want.u3)
        err = (
            abs(got[0] - want.u1) + abs(got[1] - want.u2) + abs(got[2] - want.u3)
        ) / scale
        worst0 = max(worst0, err)
        assert divergence_defect(U) <= 1e-10
    assert worst0 <= 1e-4
    total = t_wall_a + t_wall_b
    assert total < 120.0
    print(
        f"[PASS] criterion 6: 16x64x16 linear run matches closed forms "
        f"(pair rel {worst:.2e}, x-averaged rel {worst0:.2e} <= 1e-4), "
        f"divergence <= 1e-10, in {total:.0f}s"
    )


def test_criterion_07_mixing_decay_rate(linear_run16):
    cfg, res, _ = linear_run16
    ts, measured = res.norm_series("U12_neq_L2")
    _, U0 = res.snapshots[0]
    u_in_h2 = math.sqrt(sum(sobolev_norm(f, 2.0) ** 2 for f in U0.components()))
    envelope = u_in_h2 * np.exp(-(cfg.nu / 6.0) * ts**3) / np.sqrt(1.0 + ts**2)
    C = float(np.max(measured / envelope))
    assert np.all(measured <= C * envelope * (1.0 + 1e-12))
    assert 0.0 < C < 100.0

    window = (ts >= 2.0) & (ts <= 5.0)
    slope = float(np.polyfit(np.log(ts[window]), np.log(measured[window]), 1)[0])
    assert slope <= -0.8
    print(
        f"[PASS] criterion 7: planar mixing decay enveloped with fitted C = {C:.3f}, "
        f"log-log slope {slope:.2f} <= -0.8 on t in [2, 5]"
    )


def _streak_wave_seed(grid, eps, sigma=5.0):
    """Divergence-free streak + streamwise-wave data of H^sigma size eps.

    A single Fourier mode is an exact solution of the full nonlinear system
    (its self-advection vanishes identically), and band-filling data spreads
    the fixed norm so thin that the velocity stays far below the nonlinear
    regime.  The classic minimal-seed structure, one x-averaged streak plus
    one strongly coupled streamwise wave, concentrates the same norm budget
    into an interacting pair.
    """
    from rotcouette.simulation import VelocityField, leray_project_L

    c = np.zeros((3,) + grid.shape, dtype=complex)
    c[2][(1, 0, 0)] = 1.0
    c[2][(grid.Nx - 1, 0, 0)] = 1.0
    c[0][(0, 1, 1)] = 1.0
    c[0][(0, grid.Ny - 1, grid.Nz - 1)] = 1.0
    U = leray_project_L(VelocityField(grid, c, 0.0), 0.0)
    total = math.sqrt(sum(sobolev_norm(f, sigma) ** 2 for f in U.components()))
    for c in U.coeff_arrays():
        c *= eps / total
        c[0, 0, 0] = 0.0
    return U


def test_criterion_08_nonlinear_stability_smoke(tmp_path):
    start = time.monotonic()
    nu = 5e-2
    grid = GridSpec(16, 64, 16, Ly=8.0)
    horizon = default_horizon(nu)
    criteria = ClassifyCriteria(horizon=horizon, growth_factor=10.0)

    from rotcouette.reporting import write_snapshot_csv

    outcomes = {}
    for label, eps in (("small", 1e-4 * nu**2), ("large", 10.0)):
        seed = _streak_wave_seed(grid, eps)
        ic_path = tmp_path / f"seed_{label}.csv"
        write_snapshot_csv(ic_path, seed, nu)
        cfg = SimConfig(
            nu=nu, grid=grid, dt=0.01, t_end=horizon, eps=eps,
            nonlinear_enabled=True, diag_every=10, ic_kind="file",
            ic_file=str(ic_path),
        )
        res = run(cfg)
        outcomes[label] = (classify_run(res, criteria), res)

    assert outcomes["small"][0] == "stable"
    assert outcomes["large"][0] == "unstable"
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    big_res = outcomes["large"][1]
    print(
        f"[PASS] criterion 8: eps = 1e-4 nu^2 classified stable, eps = 10 classified "
        f"unstable ({big_res.status}) at nu = {nu}, in {elapsed:.0f}s"
    )


def test_criterion_09_discrete_energy_identity(linear_run16):
    cfg, res, _ = linear_run16
    worst = 0.0
    for r0, r1 in zip(res.reports[:-1], res.reports[1:]):
        dt = r1.t - r0.t
        E0 = r0.norms["MK1_neq_HN"] ** 2 + r0.norms["MK2_neq_HN"] ** 2
        E1 = r1.norms["MK1_neq_HN"] ** 2 + r1.norms["MK2_neq_HN"] ** 2

        def diss(r):
            return (
                r.norms["dMM_K1_HN"] ** 2
                + r.norms["dMM_K2_HN"] ** 2
                + cfg.nu * (r.norms["gradL_MK1_HN"] ** 2 + r.norms["gradL_MK2_HN"] ** 2)
            )

        integral = dt * (diss(r0) + diss(r1))  # trapezoid of twice the dissipation
        residual = abs(E1 - E0 + integral)
        scale = max(abs(E1 - E0), integral)
        ratio = residual / scale
        worst = max(worst, ratio)
        assert ratio <= 0.01
    print(
        f"[PASS] criterion 9: weighted energy identity residual <= 1% per diagnostic "
        f"interval (worst {worst:.2%})"
    )
