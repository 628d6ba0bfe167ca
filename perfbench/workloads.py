"""The three benchmark workloads: seeded inputs, CLI arguments, output checks.

Every input is generated from the ``--seed`` argument, either by the
package's own ``initial_condition(random_band)`` or by the CLI itself from an
INI config.  Every check uses the package's acceptance constants (criteria 6
and 9 of ``tests/test_acceptance.py``).  Checks read the files the CLI wrote,
so they test the program's outputs, not its in-memory state.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from refclock import ALL_PARTS

CLOSED_FORM_RTOL = 1e-4  # criterion 6
DIVERGENCE_TOL = 1e-10  # criteria 6 and 8
ENERGY_IDENTITY_RTOL = 0.01  # criterion 9
HERMITIAN_RTOL = 1e-13  # rounding level, relative to the largest coefficient
SAMPLED_MODES = 24
GROWTH_FACTOR = 10.0  # sweep classifier default, used for steps-to-decision


def _ini(path: Path, sections: dict[str, dict]) -> Path:
    lines = []
    for name, values in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{k} = {v}" for k, v in values.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def _read_energy(path: Path) -> list[dict[str, float]]:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _snapshots(outdir: Path) -> list[Path]:
    return sorted(outdir.glob("snapshot_*.csv"))


class Workload:
    name = ""
    grid = (0, 0, 0)
    probe_parts = ALL_PARTS  # host-speed probe (see refclock.py)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    @property
    def state_bytes(self) -> int:
        """Three complex128 velocity components on the full grid."""
        return 3 * 16 * math.prod(self.grid)

    def argv(self, outdir: Path) -> list[str]:
        raise NotImplementedError

    def check(self, outdir: Path) -> list[tuple[str, bool, str]]:
        """Correctness checks on one command's output: (name, ok, detail)."""
        raise NotImplementedError

    def cell_statuses(self, outdir: Path) -> list[str]:
        """Status of every cell the command ran; a simulate command is one cell."""
        return ["completed"]


class Nonlinear16(Workload):
    """Criterion-8 physics on 16x64x16 from a seeded random-band snapshot."""

    name = "nonlinear-16"
    grid = (16, 64, 16)
    nu, ly, dt, t_end, eps = 5e-2, 8.0, 0.01, 0.4, 1.0

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        from rotcouette.reporting import write_snapshot_csv
        from rotcouette.simulation import SimConfig, initial_condition
        from rotcouette.spectral import GridSpec

        grid = GridSpec(*self.grid, Ly=self.ly)
        ic = SimConfig(nu=self.nu, grid=grid, eps=self.eps, seed=seed, ic_kind="random_band")
        self.ic_path = write_snapshot_csv(workdir / "ic.csv", initial_condition(ic), self.nu)
        self.n_steps = round(self.t_end / self.dt)
        self.config = _ini(workdir / "nonlinear16.ini", {"sim": dict(
            nu=self.nu, nx=grid.Nx, ny=grid.Ny, nz=grid.Nz, ly=self.ly, dt=self.dt,
            t_end=self.t_end, eps=self.eps, ic_kind="file", ic_file=self.ic_path,
            nonlinear_enabled="true", rk_stages=4, diag_every=10,
        )})

    def argv(self, outdir):
        return ["simulate", "--config", str(self.config), "--out", str(outdir),
                "--snapshots", str(self.n_steps)]

    def check(self, outdir):
        from rotcouette.reporting import read_snapshot_csv
        from rotcouette.simulation import divergence_defect
        from rotcouette.spectral import hermitian_defect

        rows = _read_energy(outdir / "energy.csv")
        finite = all(math.isfinite(v) for r in rows for v in r.values())
        completed = bool(rows) and math.isclose(rows[-1]["t"], self.t_end)
        final = read_snapshot_csv(_snapshots(outdir)[-1])
        div = divergence_defect(final)
        scale = max(float(np.max(np.abs(c))) for c in final.coeff_arrays())
        herm = max(hermitian_defect(f) for f in final.components()) / scale
        return [
            ("completed", completed, f"last row t = {rows[-1]['t'] if rows else None}"),
            ("finite", finite, "energy.csv values"),
            ("divergence", div <= DIVERGENCE_TOL, f"{div:.2e}"),
            ("hermitian", herm <= HERMITIAN_RTOL, f"{herm:.2e}"),
        ]


class Linear32(Workload):
    """Linearised run on 32x128x32 with a diagnostic row every step."""

    name = "linear-32"
    grid = (32, 128, 32)
    # Its steps stream 2 MiB arrays, which slow regimes slow far less than FFTs
    # or tiny-array calls; a probe with those parts over-corrected it.
    probe_parts = ("python", "stream")
    nu, ly, dt, t_end, snapshot_every = 1e-2, 8.0, 0.02, 0.4, 10

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.config = _ini(workdir / "linear32.ini", {"sim": dict(
            nu=self.nu, nx=self.grid[0], ny=self.grid[1], nz=self.grid[2], ly=self.ly,
            dt=self.dt, t_end=self.t_end, eps=1e-6, seed=seed, ic_kind="random_band",
            rk_stages=4, diag_every=1,
        )})

    def argv(self, outdir):
        return ["simulate", "--config", str(self.config), "--out", str(outdir), "--linear",
                "--snapshots", str(self.snapshot_every)]

    def check(self, outdir):
        from rotcouette.diagnostics import compute_K_check
        from rotcouette.linear import ModeStateK, ZeroModeState, evolve_K_closed, zero_mode_evolve
        from rotcouette.reporting import read_snapshot_csv
        from rotcouette.simulation import divergence_defect
        from rotcouette.spectral import WaveVector

        snaps = [read_snapshot_csv(p) for p in _snapshots(outdir)]
        U0 = snaps[0]
        grid = U0.grid
        # seeded sample of the populated modes, both k != 0 and k = 0
        power = sum(np.abs(c) for c in U0.coeff_arrays())
        populated = np.argwhere(power > 1e-6 * power.max())
        rng = np.random.default_rng(self.seed)
        pick = populated[rng.choice(len(populated), size=min(SAMPLED_MODES, len(populated)), replace=False)]
        K0 = [f.coeffs for f in compute_K_check(U0)]
        worst_k = worst_0 = 0.0
        for U in snaps[1:]:
            t = U.time
            K = [f.coeffs for f in compute_K_check(U, t)]
            for i in map(tuple, pick):
                k, eta, l = int(grid.k_index[i[0]]), float(grid.eta_values[i[1]]), int(grid.l_index[i[2]])
                if k != 0:
                    want = evolve_K_closed(ModeStateK(K0[0][i], K0[1][i]), t, self.nu, WaveVector(k, eta, l))
                    err = (abs(K[0][i] - want.K1) + abs(K[1][i] - want.K2)) / want.magnitude
                    worst_k = max(worst_k, err)
                else:
                    s0 = ZeroModeState(*(c[i] for c in U0.coeff_arrays()))
                    want = zero_mode_evolve(s0, t, self.nu, eta, l)
                    got = [c[i] for c in U.coeff_arrays()]
                    ref = (want.u1, want.u2, want.u3)
                    err = sum(abs(g - w) for g, w in zip(got, ref)) / sum(abs(w) for w in ref)
                    worst_0 = max(worst_0, err)
        div = max(divergence_defect(U) for U in snaps)

        rows = _read_energy(outdir / "energy.csv")
        worst_e = 0.0
        for r0, r1 in zip(rows[:-1], rows[1:]):
            e0 = r0["MK1_neq_HN"] ** 2 + r0["MK2_neq_HN"] ** 2
            e1 = r1["MK1_neq_HN"] ** 2 + r1["MK2_neq_HN"] ** 2

            def diss(r):
                return (r["dMM_K1_HN"] ** 2 + r["dMM_K2_HN"] ** 2
                        + self.nu * (r["gradL_MK1_HN"] ** 2 + r["gradL_MK2_HN"] ** 2))

            integral = (r1["t"] - r0["t"]) * (diss(r0) + diss(r1))
            worst_e = max(worst_e, abs(e1 - e0 + integral) / max(abs(e1 - e0), integral))
        return [
            ("snapshots", len(snaps) == 1 + round(self.t_end / self.dt) // self.snapshot_every,
             f"{len(snaps)} files"),
            ("closed_form_pair", worst_k <= CLOSED_FORM_RTOL, f"{worst_k:.2e}"),
            ("closed_form_zero_mode", worst_0 <= CLOSED_FORM_RTOL, f"{worst_0:.2e}"),
            ("divergence", div <= DIVERGENCE_TOL, f"{div:.2e}"),
            ("energy_identity", bool(rows) and worst_e <= ENERGY_IDENTITY_RTOL, f"{worst_e:.2e}"),
        ]


class Sweep8(Workload):
    """Serial threshold sweep on 8x16x8 bracketing the transition."""

    name = "sweep-8"
    grid = (8, 16, 8)
    nu_grid = "2e-2 1e-2 5e-3"
    eps_min, eps_max, eps_points = 1e1, 1e4, 8

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.config = _ini(workdir / "sweep8.ini", {
            "sim": dict(nx=self.grid[0], ny=self.grid[1], nz=self.grid[2], ly=32.0, dt=0.05,
                        seed=seed, ic_kind="random_band", rk_stages=4, diag_every=5),
            "sweep": dict(nu_grid=self.nu_grid, eps_min=self.eps_min, eps_max=self.eps_max,
                          eps_points=self.eps_points, horizon=5.0, growth_factor=GROWTH_FACTOR,
                          norm_name="U_neq_HN_total", bisect="false"),
        })

    def argv(self, outdir):
        return ["sweep", "--config", str(self.config), "--out", str(outdir), "--threads", "1"]

    def _rows(self, outdir):
        with open(outdir / "cells.csv", newline="") as fh:
            return list(csv.DictReader(fh))

    def cell_statuses(self, outdir):
        return [r["status"] for r in self._rows(outdir)]

    def check(self, outdir):
        with open(outdir / "summary.csv", newline="") as fh:
            summary = list(csv.DictReader(fh))
        gamma = json.loads((outdir / "gamma.json").read_text())
        n_nu = len(self.nu_grid.split())
        return [
            ("cells", len(self._rows(outdir)) == n_nu * self.eps_points, "cells.csv rows"),
            ("uncensored", len(summary) == n_nu and all(r["censored"] == "0" for r in summary),
             ",".join(r["censored"] for r in summary)),
            ("no_repairs", gamma["repaired_cells"] == [], f"{len(gamma['repaired_cells'])} repaired"),
            ("gamma_finite", gamma["gamma"] is not None and math.isfinite(gamma["gamma"]),
             f"gamma = {gamma['gamma']}"),
        ]


WORKLOADS = {w.name: w for w in (Nonlinear16, Linear32, Sweep8)}
