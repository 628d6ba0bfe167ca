"""The weight kernels against the scalar closed forms, their oracle and themselves, and their callers."""

import csv
import math

import numpy as np
import pytest

from rotcouette import simulation
from rotcouette.cli import EXIT_OK, main
from rotcouette.diagnostics import _ledger_weights
from rotcouette.multipliers import WINDOW, weight_constants, weights
from rotcouette.spectral import GridSpec, WaveVector

from oracles import M_closed, M_values, m_exact, m_values, neg_MdotM, neg_MdotM_values

NU = 2e-3
# sampled modes (k, eta, l): m's window opens at the first's eta/k and closes lw later (two of
# TIMES); the second's closes before t = 0 unless nu is below 8e-6
FIXED = ((4.0, 13.0, 1.0), (1.0, -5e4, 2.0))
TIMES = (0.0, 5.5, 120.0, 13.0 / 4.0, 13.0 / 4.0 + WINDOW * NU ** (-1.0 / 3.0))
# each output of the split kernels, by the oracle that gives it
ORACLES = {"M_values": 0, "neg_MdotM_values": 1, "m_values": 2}


def split(t, k, eta, l, nu=NU):
    """(M, -Mdot M, m) from the per-run constants and w(t), unit-safe as the frame symbol's."""
    wt = k * k + (eta - k * t) ** 2 + l * l
    return weights(weight_constants(k, eta, l, nu), t, np.where(wt > 0.0, wt, 1.0))


def oracle(t, k, eta, l, nu=NU):
    return M_values(t, k, eta, l, nu), neg_MdotM_values(t, k, eta, l, nu), m_values(t, k, eta, l, nu)


def sample_arrays(rng, n=5000):
    k = rng.integers(-8, 9, n).astype(float)
    eta = rng.uniform(-50.0, 50.0, n)
    l = rng.integers(-8, 9, n).astype(float)
    return tuple(np.append(a, s) for a, s in zip((k, eta, l), zip(*FIXED)))


def test_grid_kernels_match_scalar_functions():
    rng = np.random.default_rng(81)
    k, eta, l = sample_arrays(rng, 500)
    for t in TIMES:
        M, dmm, m = split(t, k, eta, l)
        for i in range(len(k)):
            kv = WaveVector(int(k[i]), float(eta[i]), int(l[i]))
            assert m[i] == pytest.approx(m_exact(t, kv, NU), rel=1e-13)
            assert M[i] == pytest.approx(M_closed(t, kv, NU), rel=1e-13)
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


def test_command_and_ledger_run_one_implementation(tmp_path):
    # every k != 0 mode of the 8x16x8 box, at eta = 50 j: over t = 0, 100, ..., 1100 each
    # mode's window of m is shut, open or closed, and the command's m and M^2 are the
    # ledger's bit for bit, so neither can get a formula of its own
    grid, nu, N = GridSpec(8, 16, 8, Ly=2.0 * math.pi / 50.0), 0.9, 2.0
    wv = simulation._waves(grid, True)
    at = [(a, b, c) for a in range(1, wv.k.shape[0]) for b in range(wv.eta.shape[1])
          for c in range(wv.l.shape[2])]
    argv = ["multipliers", "--nu", repr(nu), "--t-max", "1100", "--points", "12", "--out", str(tmp_path)]
    for a, b, c in at:
        argv.append(f"--mode={int(wv.k[a, 0, 0])},{float(wv.eta[0, b, 0])!r},{int(wv.l[0, 0, c])}")
    assert main(argv) == EXIT_OK
    with open(tmp_path / "multipliers.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12 * len(at)
    lw = WINDOW * nu ** (-1.0 / 3.0)
    branches = set()
    try:
        for i, (a, b, c) in enumerate(at):
            ratio = wv.eta[0, b, 0] / wv.k[a, 0, 0]
            for row in rows[12 * i: 12 * (i + 1)]:
                t, M, m = (float(row[name]) for name in ("t", "M", "m"))
                Md, ledger_m = _ledger_weights(grid, nu, N, t)
                got = np.array([M * M, m])
                want = np.array([Md[0, a - 1, b], ledger_m[a - 1, b, c]])
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (a, b, c, t)
                branches.add("shut" if t < ratio else "closed" if t >= ratio + lw else "open")
    finally:
        for cache in simulation._TIME_CACHES:
            cache.cache_clear()
    assert branches == {"shut", "open", "closed"}
