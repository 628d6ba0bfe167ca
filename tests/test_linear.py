"""Tests for the per-mode closed forms against quadrature/RK4/expm oracles."""

import cmath
import math

import numpy as np
import pytest

from rotcouette.linear import (
    ModeStateK,
    ModeStateQ,
    ZeroModeState,
    enhanced_dissipation_check,
    evolve_K_closed,
    evolve_U3,
    inviscid_damping_rates,
    k_to_q,
    phase_angle,
    q_to_k,
    zero_mode_evolve,
)
from rotcouette.spectral import WaveVector, integral_w, w_symbol

from oracles import expm_zero_mode, quad_phase_angle, random_modes, rk4_K_batch


class TestPhaseAngle:
    def test_zero_at_zero(self):
        assert phase_angle(0.0, WaveVector(3, -2.0, 5)) == 0.0

    def test_limit_simple_mode(self):
        # oracle value: the rotation rate integrates to pi/2 as t -> infinity
        kv = WaveVector(1, 0.0, 0)
        assert quad_phase_angle(1e4, kv) == pytest.approx(math.pi / 2.0, abs=1e-3)
        assert phase_angle(1e7, kv) == pytest.approx(math.pi / 2.0, abs=1e-6)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(31)
        for kv in random_modes(rng, 500):
            t = float(rng.uniform(0.0, 100.0))
            assert phase_angle(t, kv) == pytest.approx(quad_phase_angle(t, kv), abs=1e-8)

    def test_bounded_by_pi(self):
        rng = np.random.default_rng(32)
        for kv in random_modes(rng, 200):
            assert abs(phase_angle(1e9, kv)) < math.pi

    def test_rejects_zero_k(self):
        with pytest.raises(ValueError):
            phase_angle(1.0, WaveVector(0, 1.0, 1))


class TestConversions:
    def test_round_trip(self):
        rng = np.random.default_rng(33)
        for kv in random_modes(rng, 100):
            t = float(rng.uniform(0.0, 20.0))
            q = ModeStateQ(
                Q1=complex(rng.standard_normal(), rng.standard_normal()),
                Q2=complex(rng.standard_normal(), rng.standard_normal()),
            )
            back = k_to_q(q_to_k(q, t, kv), t, kv)
            assert abs(back.Q1 - q.Q1) <= 1e-12 * max(1.0, abs(q.Q1))
            assert abs(back.Q2 - q.Q2) <= 1e-12 * max(1.0, abs(q.Q2))

    def test_rejects_zero_k(self):
        with pytest.raises(ValueError):
            q_to_k(ModeStateQ(1.0, 1.0), 0.0, WaveVector(0, 1.0, 1))


class TestEvolveK:
    def test_inviscid_modulus_conserved(self):
        rng = np.random.default_rng(34)
        for kv in random_modes(rng, 100):
            state = ModeStateK(
                K1=complex(rng.standard_normal(), rng.standard_normal()),
                K2=complex(rng.standard_normal(), rng.standard_normal()),
            )
            t = float(rng.uniform(0.0, 50.0))
            out = evolve_K_closed(state, t, 0.0, kv)
            assert out.magnitude == pytest.approx(state.magnitude, rel=1e-12)

    def test_long_time_rotation_example(self):
        # K0 = (1, 0) rotates to (cos phi, -sin phi); phi -> pi/2 for this mode
        kv = WaveVector(1, 0.0, 0)
        out = evolve_K_closed(ModeStateK(1.0, 0.0), 1e7, 0.0, kv)
        assert abs(out.K1 - 0.0) < 1e-6
        assert abs(out.K2 - (-1.0)) < 1e-6

    def test_decay_identity(self):
        rng = np.random.default_rng(35)
        for kv in random_modes(rng, 200):
            nu = float(10 ** rng.uniform(-4, -1))
            t = float(rng.uniform(0.0, 20.0))
            state = ModeStateK(K1=1.0 + 0.3j, K2=-0.2 + 0.9j)
            out = evolve_K_closed(state, t, nu, kv)
            want = math.exp(-2.0 * nu * integral_w(t, kv)) * state.magnitude**2
            if want > 1e-280:
                assert out.magnitude**2 == pytest.approx(want, rel=1e-10)

    def test_matches_rk4_oracle(self):
        rng = np.random.default_rng(36)
        modes = random_modes(rng, 50, eta_max=10.0, kmax=4, lmax=4)
        k = np.array([kv.k for kv in modes], float)
        eta = np.array([kv.eta for kv in modes])
        l = np.array([kv.l for kv in modes], float)
        nu = 10 ** rng.uniform(-4, -1, len(modes))
        t = rng.uniform(0.1, 10.0, len(modes))
        K1_0 = rng.standard_normal(len(modes)) + 1j * rng.standard_normal(len(modes))
        K2_0 = rng.standard_normal(len(modes)) + 1j * rng.standard_normal(len(modes))
        K1_o, K2_o = rk4_K_batch(K1_0, K2_0, nu, k, eta, l, t)
        for i, kv in enumerate(modes):
            out = evolve_K_closed(ModeStateK(K1_0[i], K2_0[i]), float(t[i]), float(nu[i]), kv)
            scale = abs(K1_o[i]) + abs(K2_o[i])
            assert abs(out.K1 - K1_o[i]) + abs(out.K2 - K2_o[i]) <= 1e-6 * scale

    def test_semigroup_property(self):
        rng = np.random.default_rng(37)
        for kv in random_modes(rng, 50):
            nu = float(10 ** rng.uniform(-4, -1))
            t1 = float(rng.uniform(0.0, 10.0))
            t2 = float(rng.uniform(0.0, 10.0))
            state = ModeStateK(K1=0.7 - 0.1j, K2=0.4 + 0.2j)
            direct = evolve_K_closed(state, t1 + t2, nu, kv)
            mid = evolve_K_closed(state, t1, nu, kv)
            composed = evolve_K_closed(mid, t1 + t2, nu, kv, t0=t1)
            assert abs(direct.K1 - composed.K1) <= 1e-12 + 1e-10 * abs(direct.K1)
            assert abs(direct.K2 - composed.K2) <= 1e-12 + 1e-10 * abs(direct.K2)

    def test_rejects_zero_k(self):
        with pytest.raises(ValueError):
            evolve_K_closed(ModeStateK(1.0, 0.0), 1.0, 0.01, WaveVector(0, 1.0, 1))


class TestEnhancedDissipation:
    def test_zero_state(self):
        assert enhanced_dissipation_check(ModeStateK(0.0, 0.0), 5.0, 1e-2, WaveVector(1, 2.0, 1))

    def test_zero_time_equality_case(self):
        assert enhanced_dissipation_check(ModeStateK(1.0, 2.0), 0.0, 1e-2, WaveVector(2, -1.0, 0))

    def test_random_samples(self):
        rng = np.random.default_rng(38)
        for kv in random_modes(rng, 1000):
            nu = float(10 ** rng.uniform(-4, -1))
            t = float(rng.uniform(0.0, 50.0))
            state = ModeStateK(
                K1=complex(rng.standard_normal(), rng.standard_normal()),
                K2=complex(rng.standard_normal(), rng.standard_normal()),
            )
            assert enhanced_dissipation_check(state, t, nu, kv)


class TestEvolveU3:
    def test_homogeneous_decay(self):
        kv = WaveVector(2, 1.0, 3)
        nu = 1e-2
        for t in (0.0, 1.0, 7.5):
            got = evolve_U3(1.0 + 2.0j, ModeStateK(0.0, 0.0), t, nu, kv)
            want = cmath.exp(-nu * integral_w(t, kv)) * (1.0 + 2.0j)
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_l_zero_pure_decay(self):
        kv = WaveVector(1, -3.0, 0)
        nu = 5e-2
        got = evolve_U3(0.5, ModeStateK(1.0, 1.0j), 4.0, nu, kv)
        want = cmath.exp(-nu * integral_w(4.0, kv)) * 0.5
        assert abs(got - want) <= 1e-12

    def test_scipy_quadrature_cross_check(self):
        from scipy.integrate import quad

        kv = WaveVector(1, 2.0, 1)
        nu = 1e-2
        state0 = ModeStateK(0.8 - 0.4j, 0.1 + 1.1j)

        def path(s):
            return evolve_K_closed(state0, s, nu, kv)

        t = 6.0
        I_t = integral_w(t, kv)

        def integrand(s, part):
            st = path(s)
            w = w_symbol(s, kv)
            rhs = -(
                kv.k * kv.l / abs(kv.k) * st.K2
                + kv.l * (kv.eta - kv.k * s) / kv.kl_magnitude * st.K1
            ) * w**-1.5
            val = math.exp(-nu * (I_t - integral_w(s, kv))) * rhs
            return val.real if part == 0 else val.imag

        re, _ = quad(lambda s: integrand(s, 0), 0.0, t, limit=400)
        im, _ = quad(lambda s: integrand(s, 1), 0.0, t, limit=400)
        want = cmath.exp(-nu * I_t) * (0.3 + 0.0j) + complex(re, im)
        got = evolve_U3(0.3, state0, t, nu, kv)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_apriori_bound(self):
        rng = np.random.default_rng(39)
        for _ in range(100):
            kv = random_modes(rng, 1, eta_max=20.0, kmax=4, lmax=4)[0]
            nu = float(10 ** rng.uniform(-4, -1))
            t = float(rng.uniform(0.0, 20.0))
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

    def test_rejects_zero_k(self):
        with pytest.raises(ValueError):
            evolve_U3(1.0, ModeStateK(0, 0), 1.0, 0.01, WaveVector(0, 1.0, 1))


class TestZeroMode:
    def test_identity_at_zero_time(self):
        s0 = ZeroModeState(1.0 + 1j, 2.0, -0.5j)
        out = zero_mode_evolve(s0, 0.0, 3e-2, 1.5, 2)
        assert out == s0

    def test_lift_up_slopes(self):
        out = zero_mode_evolve(ZeroModeState(1.0, 0.0, 0.0), 2.0, 0.0, 1.0, 1)
        assert out.u3 == pytest.approx(1.0)  # slope +1/2
        assert out.u2 == pytest.approx(-1.0)  # slope -1/2
        out = zero_mode_evolve(ZeroModeState(1.0, 0.0, 0.0), 3.0, 0.0, 0.0, 1)
        assert out.u2 == pytest.approx(-3.0)  # eta = 0: full -t transfer

    def test_heat_decay_when_l_zero(self):
        s0 = ZeroModeState(1.0, 0.8j, -2.0)
        out = zero_mode_evolve(s0, 5.0, 1e-2, 2.0, 0)
        d = math.exp(-1e-2 * 4.0 * 5.0)
        assert out.u1 == pytest.approx(d * s0.u1)
        assert out.u2 == pytest.approx(d * s0.u2)
        assert out.u3 == pytest.approx(d * s0.u3)

    def test_matrix_exponential_oracle(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            eta = float(rng.uniform(-10, 10))
            l = int(rng.integers(-5, 6))
            if eta == 0.0 and l == 0:
                continue
            nu = float(10 ** rng.uniform(-4, -1))
            t = float(rng.uniform(0.0, 20.0))
            v0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            want = expm_zero_mode(eta, l, nu, t) @ v0
            out = zero_mode_evolve(ZeroModeState(*v0), t, nu, eta, l)
            got = np.array([out.u1, out.u2, out.u3])
            assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))

    def test_semigroup(self):
        s0 = ZeroModeState(0.3 + 0.1j, -0.2, 0.9j)
        a = zero_mode_evolve(zero_mode_evolve(s0, 1.5, 2e-2, 0.7, 2), 2.5, 2e-2, 0.7, 2)
        b = zero_mode_evolve(s0, 4.0, 2e-2, 0.7, 2)
        for x, y in ((a.u1, b.u1), (a.u2, b.u2), (a.u3, b.u3)):
            assert abs(x - y) <= 1e-13

    def test_rejects_double_zero(self):
        with pytest.raises(ValueError):
            zero_mode_evolve(ZeroModeState(1, 0, 0), 1.0, 1e-2, 0.0, 0)


class TestInviscidDampingRates:
    def test_t_zero(self):
        assert inviscid_damping_rates(3.0, 0.0, 1e-2) == (3.0, 3.0)

    def test_ratio_is_time_bracket(self):
        for t in (0.5, 2.0, 17.0):
            b12, b3 = inviscid_damping_rates(1.0, t, 1e-3)
            assert b12 / b3 == pytest.approx(1.0 / math.sqrt(1.0 + t * t), rel=1e-12)


class TestSharpFactorBound:
    def test_w_inverse_decay_factor(self):
        # scan the constant in 1/w <= C <t>^-2 |k,eta,l|^2 over k != 0 modes
        rng = np.random.default_rng(41)
        dense = []
        for k in (1, 2, -1):
            for tt in np.linspace(0.0, 20.0, 400):
                dense.append((tt, WaveVector(k, k * tt * 0.5, 0)))
        scanned = max(
            (1 + tt * tt) / (w_symbol(tt, kv) * (kv.k**2 + kv.eta**2 + kv.l**2))
            for tt, kv in dense
        )
        assert scanned <= 4.0 / 3.0 + 1e-6
        for kv in random_modes(rng, 2000):
            t = float(rng.uniform(0.0, 50.0))
            lhs = 1.0 / w_symbol(t, kv)
            rhs = scanned * (kv.k**2 + kv.eta**2 + kv.l**2) / (1.0 + t * t)
            assert lhs <= rhs * (1.0 + 1e-9)
