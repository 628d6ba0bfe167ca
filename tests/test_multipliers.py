"""Tests for the stretching weight m and the ghost weight M, as the package's kernels give them."""

import math

import numpy as np
import pytest

from rotcouette.multipliers import (
    WINDOW,
    M_log_derivative,
    m_log_derivative,
    m_ode_residual,
    mode_weights,
)
from rotcouette.spectral import WaveVector, w_symbol

from oracles import (
    MBoundsReport,
    check_M_bounds_and_coercivity,
    check_m_bounds,
    kernel_weights,
    random_modes,
    rk4_M_batch,
)


def sample_nu(rng) -> float:
    return float(10 ** rng.uniform(-6, -1))


def m_at(t: float, kv: WaveVector, nu: float) -> float:
    return float(mode_weights([t], [kv], nu)[1][0, 0])


def M_at(t: float, kv: WaveVector, nu: float) -> float:
    return float(mode_weights([t], [kv], nu)[0][0, 0])


def residual(t: float, kv: WaveVector, nu: float):
    (r,) = m_ode_residual(t, kv, nu)
    return r


class TestMExact:
    def test_window_length(self):
        # WINDOW * nu^{-1/3} = 1e4 at nu = 1e-3: the stretching window of a mode
        # critical at t = 0 is open just before t = 1e4 and closed just after
        nu, kv = 1e-3, WaveVector(1, 0.0, 0)
        assert WINDOW * nu ** (-1.0 / 3.0) == pytest.approx(1e4)
        assert m_log_derivative(1e4 - 1.0, kv, nu) < 0.0
        assert m_log_derivative(1e4 + 1.0, kv, nu) == 0.0
        assert m_at(1e4 + 1.0, kv, nu) == m_at(2e4, kv, nu)  # frozen once it closes

    def test_k_zero_is_one(self):
        nu = 1e-3
        for t in (0.0, 1.0, 1e6):
            assert m_at(t, WaveVector(0, 4.0, -2), nu) == 1.0

    def test_inside_window_value(self):
        # k=1, eta=2, l=0, t=2.5: half a unit past the critical time
        nu = 1e-3
        assert m_at(2.5, WaveVector(1, 2.0, 0), nu) == pytest.approx(0.8, rel=1e-12)

    def test_negative_ratio_branch_starts_at_one(self):
        nu = 1e-3  # window length 1e4 >> |eta/k| = 1
        assert m_at(0.0, WaveVector(1, -1.0, 0), nu) == pytest.approx(1.0, rel=1e-12)

    def test_far_negative_ratio_is_identity(self):
        nu = 1e-1  # window length 1000 * 10^{1/3} = 2154.4
        kv = WaveVector(1, -1e4, 0)  # eta/k far below the window start
        for t in (0.0, 3.0, 1e5):
            assert m_at(t, kv, nu) == 1.0

    def test_continuity_at_switches(self):
        rng = np.random.default_rng(50)
        h = 1e-9
        for _ in range(200):
            nu = sample_nu(rng)
            kv = random_modes(rng, 1, eta_max=20.0)[0]
            ratio = kv.eta / kv.k
            for switch in (ratio, ratio + WINDOW * nu ** (-1.0 / 3.0)):
                if switch <= h:
                    continue
                left = m_at(switch - h, kv, nu)
                right = m_at(switch + h, kv, nu)
                assert abs(left - right) <= 1e-6 * max(left, right)
            # exact branch agreement at the switching times themselves
            if ratio > 0:
                assert m_at(ratio, kv, nu) == pytest.approx(1.0, rel=1e-12)
            t_close = ratio + WINDOW * nu ** (-1.0 / 3.0)
            if t_close > 0:
                assert m_at(t_close, kv, nu) == pytest.approx(
                    m_at(t_close + 1e3, kv, nu), rel=1e-12
                )

    def test_monotone_nonincreasing(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            nu = sample_nu(rng)
            kv = random_modes(rng, 1)[0]
            ts = np.sort(rng.uniform(0.0, 2.0 * WINDOW * nu ** (-1.0 / 3.0), 50))
            vals = mode_weights(ts, [kv], nu)[1][0].tolist()
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_frozen_branch_lower_bound(self):
        # frozen value at k=1, l=0 is exactly nu^{2/3} / (nu^{2/3} + 1e6)
        for nu in (1e-6, 1e-3, 1e-1):
            kv = WaveVector(1, 1.0, 0)
            t = kv.eta / kv.k + WINDOW * nu ** (-1.0 / 3.0) * 10
            m = m_at(t, kv, nu)
            nu23 = nu ** (2.0 / 3.0)
            assert m == pytest.approx(nu23 / (nu23 + 1e6), rel=1e-10)
            assert m >= nu23 / (1.0 + 1e6)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            m_at(-1.0, WaveVector(1, 0.0, 0), 1e-2)
        with pytest.raises(ValueError):
            mode_weights([0.0, 2.0, -1e-300], [WaveVector(0, 1.0, 0)], 1e-2)


class TestMOdeResidual:
    def test_k_zero(self):
        assert residual(3.0, WaveVector(0, 2.0, 1), 1e-2) == 0.0

    def test_interior_points(self):
        rng = np.random.default_rng(52)
        checked = 0
        while checked < 300:
            nu = sample_nu(rng)
            kv = random_modes(rng, 1, eta_max=20.0)[0]
            ratio = kv.eta / kv.k
            lo = max(ratio, 0.0) + 0.01
            hi = ratio + WINDOW * nu ** (-1.0 / 3.0) - 0.01
            if hi <= lo:
                continue
            t = float(rng.uniform(lo, min(hi, lo + 100.0)))
            assert residual(t, kv, nu) <= 1e-6
            checked += 1

    def test_frozen_region_zero_rhs(self):
        nu = 1e-1
        kv = WaveVector(2, 1.0, 1)
        t = kv.eta / kv.k + WINDOW * nu ** (-1.0 / 3.0) + 5.0
        assert residual(t, kv, nu) <= 1e-10

    def test_none_at_switching_times(self):
        # no residual where m is not differentiable: at its window's opening and closing and at t = 0
        nu = 1e-2
        kv = WaveVector(1, 3.0, 0)
        ts = [0.0, 1e-4, 3.0, 3.0 + 1.5e-4, 3.0 + WINDOW * nu ** (-1.0 / 3.0), 4.0]
        got = m_ode_residual(ts, kv, nu)
        assert got[:5] == [None] * 5 and got[5] <= 1e-6


class TestMClosed:
    def test_k_zero_and_initial_condition(self):
        nu = 1e-2
        assert M_at(17.0, WaveVector(0, 1.0, 2), nu) == 1.0
        rng = np.random.default_rng(53)
        for kv in random_modes(rng, 50):
            assert M_at(0.0, kv, nu) == pytest.approx(1.0, rel=1e-14)

    def test_matches_rk4_oracle(self):
        rng = np.random.default_rng(54)
        n = 200
        modes = random_modes(rng, n, eta_max=30.0)
        k = np.array([kv.k for kv in modes], float)
        eta = np.array([kv.eta for kv in modes])
        nu = 10 ** rng.uniform(-6, -1, n)
        t = rng.uniform(0.1, 50.0, n)
        oracle = rk4_M_batch(nu, k, eta, t)
        for i, kv in enumerate(modes):
            got = M_at(float(t[i]), kv, float(nu[i]))
            assert got == pytest.approx(float(oracle[i]), abs=1e-8)

    def test_range(self):
        rng = np.random.default_rng(55)
        floor = math.exp(-math.pi)
        for kv in random_modes(rng, 500):
            nu = sample_nu(rng)
            M = M_at(float(rng.uniform(0, 1e4)), kv, nu)
            assert floor < M <= 1.0

    def test_long_time_limit_above_floor(self):
        nu = 1e-2
        kv = WaveVector(1, (1e-2) ** (-1.0 / 3.0) * 50.0, 0)  # large positive eta/k
        limit = M_at(1e12, kv, nu)
        assert limit > math.exp(-math.pi)

    def test_coercivity_identity_at_critical_time(self):
        # at t = eta/k: -Mdot/M = nu^{1/3}, so nu^{-1/6} sqrt(-Mdot M) = M
        nu = 1e-3
        kv = WaveVector(2, 6.0, 1)
        t = kv.eta / kv.k
        M, dmm, _, _ = kernel_weights([(t, kv)], nu)
        lhs = nu ** (-1.0 / 6.0) * math.sqrt(dmm[0])
        assert lhs == pytest.approx(M[0], rel=1e-12)
        assert -M_log_derivative(t, kv, nu) == pytest.approx(nu ** (1.0 / 3.0), rel=1e-12)


class TestBoundReports:
    def samples(self, rng, n=2000):
        out = []
        for kv in random_modes(rng, n, nonzero_k=False):
            out.append((float(rng.uniform(0.0, 100.0)), kv))
        return out

    def test_m_bounds(self):
        rng = np.random.default_rng(56)
        nu = 1e-3
        samples = self.samples(rng)
        # include deep-frozen samples so the scan sees the true floor
        samples += [(1e6, WaveVector(1, 1.0, 0)), (1e6, WaveVector(1, -1.0, 0))]
        report = check_m_bounds(samples, nu)
        assert isinstance(report, MBoundsReport)
        assert report.upper_bound_ok
        assert report.c1 >= 1.0 / (1.0 + 1e6) - 1e-12
        assert report.c2 <= 1.0 + 1e-9  # middle branch attains the constant 1
        assert report.c2 > 0.99

    def test_frequency_relation_pointwise(self):
        rng = np.random.default_rng(57)
        nu = 1e-2
        for t, kv in self.samples(rng, 2000):
            kl2 = kv.k**2 + kv.l**2
            if kl2 == 0:
                continue
            assert m_at(t, kv, nu) >= kl2 / w_symbol(t, kv) * (1.0 - 1e-12)

    def test_M_coercivity_scan(self):
        rng = np.random.default_rng(58)
        rows = []
        for kv in random_modes(rng, 5000, nonzero_k=False):
            nu = float(10 ** rng.uniform(-6, -1))
            t = float(rng.uniform(0.0, 100.0))
            rows.append((t, kv, nu))
        # group by nu: the report takes one params object, so scan per sample
        inf = math.inf
        M_min, M_max = math.inf, 0.0
        for t, kv, nu in rows:
            rep = check_M_bounds_and_coercivity([(t, kv)], nu)
            M_min = min(M_min, rep.M_min)
            M_max = max(M_max, rep.M_max)
            if kv.k != 0:
                inf = min(inf, rep.coercivity_inf)
        assert math.exp(-math.pi) <= M_min and M_max <= 1.0 + 1e-12
        assert inf >= 0.1
