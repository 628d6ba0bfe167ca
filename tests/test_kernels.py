"""The split weight kernels against the scalar closed forms, their oracle and themselves."""

import math

import numpy as np
import pytest

from rotcouette import _kernels
from rotcouette.multipliers import WINDOW, M_closed, m_exact
from rotcouette.spectral import GridSpec, WaveVector

from oracles import M_values, m_values, neg_MdotM, neg_MdotM_values

NU = 2e-3
# sampled modes (k, eta, l): m's window opens at the first's eta/k and closes lw later (two of
# TIMES); the second's closes before t = 0 unless nu is below 8e-6
FIXED = ((4.0, 13.0, 1.0), (1.0, -5e4, 2.0))
TIMES = (0.0, 5.5, 120.0, 13.0 / 4.0, 13.0 / 4.0 + WINDOW * NU ** (-1.0 / 3.0))
# each output of the split kernels, by the oracle that gives it
ORACLES = {"M_values": 0, "neg_MdotM_values": 1, "m_values": 2}


def split(t, k, eta, l, nu=NU):
    """(M^2, -Mdot M, m) from the per-run constants and w(t), unit-safe as the frame symbol's."""
    wt = k * k + (eta - k * t) ** 2 + l * l
    return _kernels.weights(_kernels.weight_constants(k, eta, l, nu), t, np.where(wt > 0.0, wt, 1.0))


def oracle(t, k, eta, l, nu=NU):
    return M_values(t, k, eta, l, nu) ** 2, neg_MdotM_values(t, k, eta, l, nu), m_values(t, k, eta, l, nu)


def sample_arrays(rng, n=5000):
    k = rng.integers(-8, 9, n).astype(float)
    eta = rng.uniform(-50.0, 50.0, n)
    l = rng.integers(-8, 9, n).astype(float)
    return tuple(np.append(a, s) for a, s in zip((k, eta, l), zip(*FIXED)))


def test_grid_kernels_match_scalar_functions():
    rng = np.random.default_rng(81)
    k, eta, l = sample_arrays(rng, 500)
    for t in TIMES:
        M2, dmm, m = split(t, k, eta, l)
        for i in range(len(k)):
            kv = WaveVector(int(k[i]), float(eta[i]), int(l[i]))
            assert m[i] == pytest.approx(m_exact(t, kv, NU), rel=1e-13)
            assert math.sqrt(M2[i]) == pytest.approx(M_closed(t, kv, NU), rel=1e-13)
            assert dmm[i] == pytest.approx(neg_MdotM(t, kv, NU), rel=1e-12, abs=1e-300)


def test_split_kernels_match_oracle_bit_for_bit():
    rng = np.random.default_rng(82)
    k, eta, l = sample_arrays(rng)
    for nu in (5e-2, NU, 1e-6):
        for t in TIMES:
            for name, got, want in zip(ORACLES, split(t, k, eta, l, nu), oracle(t, k, eta, l, nu)):
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (name, nu, t)


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_broadcast_inputs_match_raveled_grid_exactly(name):
    # the diagnostics pass (Nx,1,1), (1,Ny,1), (1,1,Nz) wave
    # arrays; byte-reproducible CSVs need the same values as on a raveled grid
    grid = GridSpec(Nx=6, Ny=20, Nz=10, Ly=7.0)
    k = grid.k_index.astype(float)[:, None, None]
    eta = grid.eta_values[None, :, None]
    l = grid.l_index.astype(float)[None, None, :]
    flat = [np.ascontiguousarray(np.broadcast_to(a, grid.shape)).ravel() for a in (k, eta, l)]
    which = ORACLES[name]
    for t in TIMES + (eta[0, 1, 0] / k[1, 0, 0],):
        wide = np.broadcast_to(split(t, k, eta, l)[which], grid.shape)
        assert np.array_equal(wide.ravel(), split(t, *flat)[which])
        assert np.array_equal(wide.ravel().view(np.int64), oracle(t, *flat)[which].view(np.int64))
