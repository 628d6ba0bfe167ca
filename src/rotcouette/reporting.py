"""Deterministic CSV/JSON emission: energy rows, spectral snapshots, manifests.

All floats are written with ``repr`` (shortest round-trip form), columns and
row order are fixed, and nothing time- or host-dependent enters the CSV
bodies, so re-running a command with an identical config and seed reproduces
the data files byte for byte.  The manifest records the config hash, the
code version, wall times and the produced file list.
"""

from __future__ import annotations

import hashlib
import json
import time as _time
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .diagnostics import ACCUMULATED_COLUMNS, FLAG_NAMES, INSTANT_COLUMNS, EnergyReport
from .simulation import VelocityField
from .spectral import GridSpec

__all__ = [
    "fmt",
    "energy_columns",
    "write_energy_csv",
    "write_snapshot_csv",
    "read_snapshot_csv",
    "config_hash",
    "Manifest",
]


def fmt(x: float) -> str:
    return repr(float(x))


def energy_columns() -> list[str]:
    return ["t"] + INSTANT_COLUMNS + ACCUMULATED_COLUMNS + FLAG_NAMES


def write_energy_csv(path: str | Path, reports: Sequence[EnergyReport]) -> Path:
    path = Path(path)
    cols = energy_columns()
    lines = [",".join(cols)]
    for r in reports:
        row = [fmt(r.t)]
        row += [fmt(r.norms.get(c, float("nan"))) for c in INSTANT_COLUMNS]
        row += [fmt(r.norms.get(c, float("nan"))) for c in ACCUMULATED_COLUMNS]
        row += ["1" if r.flags.get(c, False) else "0" for c in FLAG_NAMES]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_snapshot_csv(path: str | Path, U: VelocityField, nu: float) -> Path:
    """Spectral dump of the dealiased band: one row per retained mode.

    Header comment lines carry the grid, the y period, the viscosity and the
    frame time; data columns are the integer mode indices, eta, and the real
    and imaginary parts of the three components.
    """
    path = Path(path)
    grid = U.grid
    mask = grid.dealias_mask
    ik, ij, il = np.nonzero(mask)
    columns = [grid.k_index[ik].tolist(), grid.j_index[ij].tolist(), grid.l_index[il].tolist(),
               grid.eta_values[ij].tolist()]
    for kept in U.coeffs[:, mask]:
        columns += [kept.real.tolist(), kept.imag.tolist()]
    lines = [
        f"# grid {grid.Nx} {grid.Ny} {grid.Nz}",
        f"# ly {fmt(grid.Ly)}",
        f"# nu {fmt(nu)}",
        f"# time {fmt(U.time)}",
        "k,j,l,eta,u1_re,u1_im,u2_re,u2_im,u3_re,u3_im",
    ]
    for k, j, l, *values in zip(*columns):
        lines.append(",".join([str(k), str(j), str(l)] + [fmt(v) for v in values]))
    path.write_text("\n".join(lines) + "\n")
    return path


def read_snapshot_csv(path: str | Path) -> VelocityField:
    lines = Path(path).read_text().splitlines()
    n_header = next((i for i, line in enumerate(lines) if not line.startswith("#")), len(lines))
    header = dict(line[1:].split(maxsplit=1) for line in lines[:n_header])
    nx, ny, nz = (int(v) for v in header["grid"].split())
    grid = GridSpec(Nx=nx, Ny=ny, Nz=nz, Ly=float(header["ly"]))
    t = float(header["time"])
    # after the header, one line of column names, then one row per mode
    cols = np.loadtxt(lines[n_header + 1 :], delimiter=",", ndmin=2, usecols=range(10)).T
    ik, ij, il = (cols[a].astype(np.int64) % n for a, n in enumerate(grid.shape))
    coeffs = np.zeros((3,) + grid.shape, dtype=np.complex128)
    # real and imaginary parts assigned apart: re + 1j * im turns a -0.0 real part into 0.0
    coeffs.real[:, ik, ij, il] = cols[4::2]
    coeffs.imag[:, ik, ij, il] = cols[5::2]
    return VelocityField(grid, coeffs, t)


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


class Manifest:
    """Reproducibility record emitted by every file-writing command."""

    def __init__(self, config: dict):
        self.config = config
        self.hash = config_hash(config)
        self.started = _time.time()
        self.outputs: list[str] = []

    def add(self, path: str | Path) -> None:
        self.outputs.append(str(path))

    def write(self, outdir: str | Path) -> Path:
        path = Path(outdir) / "manifest.json"
        payload = {
            "config_hash": self.hash,
            "version": __version__,
            "started_unix": self.started,
            "finished_unix": _time.time(),
            "config": self.config,
            "outputs": sorted(self.outputs),
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")
        return path


def write_cells_csv(path: str | Path, cells) -> Path:
    path = Path(path)
    lines = ["nu,eps,stable,peak_norm,t_peak,status,refined"]
    for c in sorted(cells, key=lambda c: (c.nu, c.eps)):
        lines.append(
            ",".join(
                [
                    fmt(c.nu),
                    fmt(c.eps),
                    c.outcome,
                    fmt(c.peak_norm),
                    fmt(c.t_peak),
                    c.status.replace(",", ";"),
                    "1" if c.refined else "0",
                ]
            )
        )
    path.write_text("\n".join(lines) + "\n")
    return path


def read_cells_csv(path: str | Path) -> dict:
    """Parse a cells CSV back into a checkpoint map for sweep resumption."""
    from .threshold import CellResult

    path = Path(path)
    out = {}
    if not path.exists():
        return out
    for line in path.read_text().splitlines()[1:]:
        if not line:
            continue
        nu_s, eps_s, outcome, peak, tpk, status, refined = line.split(",")
        cell = CellResult(
            nu=float(nu_s),
            eps=float(eps_s),
            outcome=outcome,
            peak_norm=float(peak),
            t_peak=float(tpk),
            status=status,
            refined=refined == "1",
        )
        if not cell.refined:
            out[(cell.nu, cell.eps)] = cell
    return out


def write_summary_csv(path: str | Path, result) -> Path:
    path = Path(path)
    lines = ["nu,eps_star,censored"]
    for nu in sorted(result.eps_star):
        star = result.eps_star[nu]
        lines.append(
            ",".join([fmt(nu), fmt(star) if star is not None else "", "1" if result.censored[nu] else "0"])
        )
    path.write_text("\n".join(lines) + "\n")
    return path


def write_gamma_json(path: str | Path, result) -> Path:
    path = Path(path)
    payload = {
        "gamma": result.gamma,
        "gamma_ci": list(result.gamma_ci) if result.gamma_ci else None,
        "eps_star": {fmt(nu): result.eps_star[nu] for nu in sorted(result.eps_star)},
        "censored": {fmt(nu): result.censored[nu] for nu in sorted(result.censored)},
        "repaired_cells": [[nu, eps] for nu, eps in result.repaired],
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def write_multiplier_csv(path: str | Path, rows: Iterable[dict]) -> Path:
    path = Path(path)
    cols = ["t", "k", "eta", "l", "nu", "m", "M", "mdot_over_m", "Mdot_over_M", "m_ode_residual"]
    lines = [",".join(cols)]
    for row in rows:
        out = []
        for c in cols:
            v = row[c]
            if isinstance(v, float) and v != v:  # NaN at non-differentiable times
                out.append("")
            elif c in ("k", "l"):
                out.append(str(int(v)))
            else:
                out.append(fmt(v))
        lines.append(",".join(out))
    path.write_text("\n".join(lines) + "\n")
    return path
