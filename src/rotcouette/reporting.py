"""Deterministic CSV/JSON emission: energy rows, spectral snapshots, manifests.

All floats are written with ``repr`` (shortest round-trip form), columns and
row order are fixed, and nothing time- or host-dependent enters the CSV
bodies, so re-running a command with an identical config and seed reproduces
the data files byte for byte.  Every CSV except the snapshots goes through
``write_csv``, whose one field rule writes a flag as 1 or 0, a missing value
(None) as an empty field, text as it is, and anything else as the ``repr`` of
its float.  The manifest records the config hash, the code and numpy
versions, the BLAS library that numpy calls (the advection's matrix products
run there, so the bytes of a nonlinear run hold for one numpy/BLAS build),
wall times, the produced file list and, for a simulation, how the run ended.
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
    "write_csv",
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


def _field(v) -> str:
    """The one rule for a CSV field: a flag is 1 or 0, None is empty, text is kept."""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    return fmt(v)


def write_csv(path: str | Path, columns: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """A header line of ``columns``, then one line per row; each field as ``_field`` writes it."""
    path = Path(path)
    path.write_text("".join(",".join(map(_field, row)) + "\n" for row in (columns, *rows)))
    return path


def write_energy_csv(path: str | Path, reports: Sequence[EnergyReport]) -> Path:
    rows = (
        [r.t]
        + [r.norms[c] for c in INSTANT_COLUMNS + ACCUMULATED_COLUMNS]
        + [r.flags[c] for c in FLAG_NAMES]
        for r in reports
    )
    return write_csv(path, energy_columns(), rows)


# rows per formatted block of a snapshot; bounds the strings alive at once
_SNAPSHOT_BLOCK = 512


def _strings(values: np.ndarray, lead: str) -> np.ndarray:
    """``lead + repr(v)`` for each value, as an object array to gather rows from."""
    return np.array([lead + repr(v) for v in values.tolist()], dtype=object)


def write_snapshot_csv(path: str | Path, U: VelocityField, nu: float) -> Path:
    """Spectral dump of the dealiased band: one row per retained mode.

    Header comment lines carry the grid, the y period, the viscosity and the
    frame time; data columns are the integer mode indices, eta, and the real
    and imaginary parts of the three components.

    Every field is the ``repr`` of its value, as if formatted row by row,
    but each distinct string is formatted once: the index and eta columns
    are gathered from per-axis tables, and the coefficient parts of each
    block of rows from a table of the block's distinct bit patterns (bit
    patterns, not float values, so that 0.0 and -0.0 stay apart).
    """
    path = Path(path)
    grid = U.grid
    mask = grid.dealias_mask
    ik, ij, il = np.nonzero(mask)
    k_s, j_s = _strings(grid.k_index, "\n"), _strings(grid.j_index, ",")
    l_s, eta_s = _strings(grid.l_index, ","), _strings(grid.eta_values, ",")
    # (rows, 6) bit patterns: u1_re, u1_im, u2_re, u2_im, u3_re, u3_im
    bits = np.ascontiguousarray(U.coeffs[:, mask].T).view(np.int64)
    header = [
        f"# grid {grid.Nx} {grid.Ny} {grid.Nz}",
        f"# ly {fmt(grid.Ly)}",
        f"# nu {fmt(nu)}",
        f"# time {fmt(U.time)}",
        "k,j,l,eta,u1_re,u1_im,u2_re,u2_im,u3_re,u3_im",
    ]
    with path.open("w") as f:
        f.write("\n".join(header))
        for a in range(0, len(bits), _SNAPSHOT_BLOCK):
            rows = slice(a, a + _SNAPSHOT_BLOCK)
            patterns, inverse = np.unique(bits[rows], return_inverse=True)
            values = _strings(patterns.view(np.float64), ",")[inverse.reshape(-1, 6)]
            # each row starts with its line break and each value with its comma
            head = k_s[ik[rows]] + j_s[ij[rows]] + l_s[il[rows]] + eta_s[ij[rows]]
            f.write("".join(np.column_stack((head, values)).ravel().tolist()))
        f.write("\n")
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


def _blas() -> dict | None:
    """{"name", "version"} of numpy's BLAS, None where the numpy build cannot say."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode argument
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


class Manifest:
    """Reproducibility record emitted by every file-writing command."""

    def __init__(self, config: dict):
        self.config = config
        self.hash = config_hash(config)
        self.started = _time.time()
        self.outputs: list[str] = []
        self.run: dict | None = None  # outcome of a simulate run; not part of the hash

    def add(self, path: str | Path) -> None:
        self.outputs.append(str(path))

    def write(self, outdir: str | Path) -> Path:
        path = Path(outdir) / "manifest.json"
        payload = {
            "config_hash": self.hash,
            "version": __version__,
            "numpy": np.__version__,
            "blas": _blas(),
            "started_unix": self.started,
            "finished_unix": _time.time(),
            "config": self.config,
            "outputs": sorted(self.outputs),
        }
        if self.run is not None:
            payload["run"] = self.run
        path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")
        return path


def write_cells_csv(path: str | Path, cells) -> Path:
    rows = (
        (c.nu, c.eps, c.outcome, c.peak_norm, c.t_peak, c.status.replace(",", ";"), c.refined)
        for c in sorted(cells, key=lambda c: (c.nu, c.eps))
    )
    return write_csv(path, ["nu", "eps", "stable", "peak_norm", "t_peak", "status", "refined"], rows)


def read_cells_csv(path: str | Path) -> dict:
    """Parse a cells CSV into a resume checkpoint; bisection and ``error:`` cells rerun."""
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
        if not cell.refined and not status.startswith("error:"):
            out[(cell.nu, cell.eps)] = cell
    return out


def write_summary_csv(path: str | Path, result) -> Path:
    rows = ((nu, result.eps_star[nu], result.censored[nu]) for nu in sorted(result.eps_star))
    return write_csv(path, ["nu", "eps_star", "censored"], rows)


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
