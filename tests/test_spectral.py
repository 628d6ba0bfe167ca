"""Tests for grids, symbols, transforms and norms."""

import math

import numpy as np
import pytest

from rotcouette.spectral import (
    GridSpec,
    SpectralField,
    WaveVector,
    integral_w,
)

from oracles import (
    field_to_physical,
    hermitian_symmetrize,
    high_eta_energy_fraction,
    physical_l2,
    quad_integral_w,
    random_modes,
    sobolev_norm,
)


def random_hermitian_field(grid, rng, time=0.0):
    c = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return hermitian_symmetrize(SpectralField(grid, c * grid.dealias_mask, time))


class TestSymbols:
    def test_w_symbol_examples(self):
        from rotcouette.spectral import w_symbol

        assert w_symbol(0.0, WaveVector(1, 2.0, 3)) == 14.0
        assert w_symbol(2.0, WaveVector(1, 2.0, 0)) == 1.0  # critical time eta/k
        assert w_symbol(1.0, WaveVector(1, 0.0, 1)) == 3.0

    def test_w_lower_bound(self):
        from rotcouette.spectral import w_symbol

        rng = np.random.default_rng(12)
        for kv in random_modes(rng, 300, nonzero_k=False):
            t = float(rng.uniform(0.0, 100.0))
            assert w_symbol(t, kv) >= kv.k**2 + kv.l**2 - 1e-12

    def test_integral_w_zero_time(self):
        assert integral_w(0.0, WaveVector(3, -7.0, 2)) == 0.0

    def test_integral_w_simple_value(self):
        kv = WaveVector(1, 0.0, 0)
        want = quad_integral_w(1.0, kv)
        assert math.isclose(integral_w(1.0, kv), want, rel_tol=1e-12)
        assert math.isclose(integral_w(1.0, kv), 4.0 / 3.0, rel_tol=1e-12)

    def test_integral_w_matches_quadrature(self):
        rng = np.random.default_rng(13)
        for kv in random_modes(rng, 1000, nonzero_k=False):
            t = float(rng.uniform(0.0, 100.0))
            got = integral_w(t, kv)
            want = quad_integral_w(t, kv)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-8)

    def test_integral_w_cubic_lower_bound(self):
        rng = np.random.default_rng(14)
        for kv in random_modes(rng, 1000, nonzero_k=False):
            t = float(rng.uniform(0.0, 100.0))
            assert integral_w(t, kv) >= kv.k**2 * t**3 / 12.0 - 1e-9

    def test_integral_w_rejects_negative_time(self):
        with pytest.raises(ValueError):
            integral_w(-0.5, WaveVector(1, 0.0, 0))


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="even"):
            GridSpec(15, 16, 16)
        with pytest.raises(ValueError, match="positive"):
            GridSpec(16, 0, 16)
        with pytest.raises(ValueError, match="Ly"):
            GridSpec(16, 16, 16, Ly=-1.0)

    def test_eta_grid(self):
        g = GridSpec(8, 16, 8, Ly=32.0)
        assert g.eta_values[0] == 0.0
        assert math.isclose(g.eta_values[1], 2.0 * math.pi / 32.0)
        assert g.j_index.min() == -8 and g.j_index.max() == 7

    def test_dealias_cutoffs_alias_free(self):
        for n in (8, 16, 32, 64):
            kc = GridSpec(n, n, n).dealias_cutoffs[0]
            # sums of two retained wavenumbers never wrap back into the band
            assert 3 * kc < n


class TestTransforms:
    def test_roundtrip(self):
        g = GridSpec(8, 16, 8)
        rng = np.random.default_rng(21)
        vals = rng.standard_normal(g.shape)
        back = field_to_physical(SpectralField(g, np.fft.fftn(vals) / g.n_modes))
        assert np.allclose(back.real, vals, atol=1e-12)
        assert np.max(np.abs(back.imag)) < 1e-12

    def test_single_mode_amplitude(self):
        g = GridSpec(8, 16, 8, Ly=32.0)
        c = np.zeros(g.shape, dtype=complex)
        c[1, 0, 0] = 1.0
        phys = field_to_physical(SpectralField(g, c, 0.0))
        # amplitude convention: max |f| of a unit mode is 1
        assert np.max(np.abs(phys)) == pytest.approx(1.0, rel=1e-12)

    def test_reality_of_hermitian_fields(self):
        g = GridSpec(8, 16, 8)
        rng = np.random.default_rng(22)
        f = random_hermitian_field(g, rng)
        phys = field_to_physical(f)
        scale = np.max(np.abs(phys))
        assert np.max(np.abs(phys.imag)) <= 1e-12 * scale


class TestSobolevNorm:
    def test_single_mode_value(self):
        g = GridSpec(8, 16, 8, Ly=32.0)
        c = np.zeros(g.shape, dtype=complex)
        c[1, 0, 0] = 1.0
        f = SpectralField(g, c, 0.0)
        assert sobolev_norm(f, 1.0) == pytest.approx(
            math.sqrt(2.0) * math.sqrt(g.cell_measure), rel=1e-12
        )

    def test_parseval_against_physical_quadrature(self):
        # the uniform mode weight Ly/Ny differs from the physical Riemann sum
        # by the fixed constant 2 pi sqrt(Ny)
        g = GridSpec(8, 16, 8, Ly=32.0)
        rng = np.random.default_rng(26)
        f = random_hermitian_field(g, rng)
        bridge = 2.0 * math.pi * math.sqrt(g.Ny)
        assert sobolev_norm(f, 0.0) == pytest.approx(physical_l2(f) / bridge, rel=1e-10)

    def test_monotone_in_s(self):
        g = GridSpec(8, 16, 8)
        rng = np.random.default_rng(27)
        f = random_hermitian_field(g, rng)
        norms = [sobolev_norm(f, s) for s in (0.0, 0.5, 1.0, 2.0, 3.0)]
        assert all(a <= b + 1e-15 for a, b in zip(norms, norms[1:]))

    def test_slow_path_agreement(self):
        from oracles import slow_sobolev_norm

        g = GridSpec(4, 8, 4)
        rng = np.random.default_rng(28)
        f = random_hermitian_field(g, rng)
        for s in (0.0, 1.0, 2.5):
            assert sobolev_norm(f, s) == pytest.approx(slow_sobolev_norm(f, s), rel=1e-12)

    def test_rejects_negative_s(self):
        g = GridSpec(4, 8, 4)
        f = SpectralField(g, np.zeros(g.shape, dtype=complex), 0.0)
        with pytest.raises(ValueError):
            sobolev_norm(f, -1.0)


class TestDiagnosticsHelpers:
    def test_high_eta_fraction(self):
        g = GridSpec(4, 16, 4)
        c = np.zeros(g.shape, dtype=complex)
        c[1, 8, 0] = 1.0  # j = -8 sits at the Nyquist index
        f = SpectralField(g, c, 0.0)
        assert high_eta_energy_fraction(f) == pytest.approx(1.0)
        c2 = np.zeros(g.shape, dtype=complex)
        c2[1, 1, 0] = 1.0
        assert high_eta_energy_fraction(SpectralField(g, c2, 0.0)) == 0.0
