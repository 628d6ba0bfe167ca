"""The per-mode grid kernels against the scalar closed forms and themselves."""

import numpy as np
import pytest

from rotcouette import _kernels
from rotcouette.multipliers import M_closed, m_exact
from rotcouette.spectral import GridSpec, WaveVector

from oracles import neg_MdotM

TIMES = (0.0, 5.5, 120.0)
NU = 2e-3
KERNELS = {
    "m_values": lambda t, k, e, l: _kernels.m_values(t, k, e, l, NU),
    "M_values": lambda t, k, e, l: _kernels.M_values(t, k, e, l, NU),
    "neg_MdotM_values": lambda t, k, e, l: _kernels.neg_MdotM_values(t, k, e, l, NU),
}


def sample_arrays(rng, n=5000):
    k = rng.integers(-8, 9, n).astype(float)
    eta = rng.uniform(-50.0, 50.0, n)
    l = rng.integers(-8, 9, n).astype(float)
    return k, eta, l


def test_grid_kernels_match_scalar_functions():
    rng = np.random.default_rng(81)
    k, eta, l = sample_arrays(rng, 500)
    for t in TIMES:
        m = KERNELS["m_values"](t, k, eta, l)
        M = KERNELS["M_values"](t, k, eta, l)
        dmm = KERNELS["neg_MdotM_values"](t, k, eta, l)
        for i in range(len(k)):
            kv = WaveVector(int(k[i]), float(eta[i]), int(l[i]))
            assert m[i] == pytest.approx(m_exact(t, kv, NU), rel=1e-13)
            assert M[i] == pytest.approx(M_closed(t, kv, NU), rel=1e-13)
            assert dmm[i] == pytest.approx(neg_MdotM(t, kv, NU), rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_broadcast_inputs_match_raveled_grid_exactly(name):
    # the diagnostics pass (Nx,1,1), (1,Ny,1), (1,1,Nz) wave
    # arrays; byte-reproducible CSVs need the same values as on a raveled grid
    grid = GridSpec(Nx=6, Ny=20, Nz=10, Ly=7.0)
    k = grid.k_index.astype(float)[:, None, None]
    eta = grid.eta_values[None, :, None]
    l = grid.l_index.astype(float)[None, None, :]
    flat = [np.ascontiguousarray(np.broadcast_to(a, grid.shape)).ravel() for a in (k, eta, l)]
    kernel = KERNELS[name]
    for t in TIMES:
        wide = np.broadcast_to(kernel(t, k, eta, l), grid.shape)
        assert np.array_equal(wide.ravel(), kernel(t, *flat))
