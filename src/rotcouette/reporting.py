"""Deterministic CSV/JSON emission: energy rows, spectral snapshots, manifests.

All floats are written with ``repr`` (shortest round-trip form), columns and
row order are fixed, and nothing time- or host-dependent enters the CSV
bodies, so re-running a command with an identical config and seed reproduces
the data files byte for byte.  A snapshot keeps those bytes but formats each
distinct magnitude once; every other CSV goes through ``write_csv``, whose
one field rule writes a flag as 1 or 0, a missing value (None) as an empty
field, text as it is, and anything else as the ``repr`` of its float.  The
manifest records the config hash, the code and numpy versions, the BLAS
library that numpy calls (the advection's matrix products run there, so the
bytes of a nonlinear run hold for one numpy/BLAS build), wall times, the
produced file list and, for a simulation, how the run ended.
"""

from __future__ import annotations

import hashlib
import json
import time as _time
from functools import lru_cache
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


_COLUMNS = "k,j,l,eta,u1_re,u1_im,u2_re,u2_im,u3_re,u3_im"  # the line that ends a snapshot's header
# rows per formatted block of a snapshot; bounds the join list and the strings alive at once
_SNAPSHOT_BLOCK = 512


@lru_cache(maxsize=4)
def _row_heads(grid: GridSpec) -> np.ndarray:
    """``\\nk,j,`` and ``l,eta`` of each retained row, sharing one string per (k, j) and (l, j)."""
    ik, ij, il = np.nonzero(grid.dealias_mask)
    k, j, l, eta = (a.tolist() for a in (grid.k_index, grid.j_index, grid.l_index, grid.eta_values))
    kj = np.array([[f"\n{a},{b}," for b in j] for a in k], dtype=object)
    le = np.array([[f"{c},{e!r}" for e in eta] for c in l], dtype=object)
    heads = np.stack((kj[ik, ij], le[il, ij]), axis=1)
    heads.flags.writeable = False
    return heads


def write_snapshot_csv(path: str | Path, U: VelocityField, nu: float) -> Path:
    """Spectral dump of the dealiased band: one row per retained mode.

    Header comment lines carry the grid, the y period, the viscosity and the
    frame time; data columns are the integer mode indices, eta, and the real
    and imaginary parts of the three components.

    Every field is the ``repr`` of its value, as if formatted row by row,
    but each distinct string is formatted once: ``k,j,l,eta`` from per-grid
    tables, a coefficient part from its sign and one table of the distinct
    nonzero magnitudes (sign bits cleared), assuming no Hermitian symmetry.
    """
    path, grid = Path(path), U.grid
    # the (rows, 6) bit patterns of u1_re, u1_im, ..., u3_im become places in the table of
    # magnitudes; the +-0.0 values skip the sort and take its first and last places
    place = np.moveaxis(U.coeffs, 0, -1)[grid.dealias_mask].view(np.int64)
    minus = (place < 0) & ~np.isnan(place.view(np.float64))  # repr writes every NaN nan
    place &= 2**63 - 1
    nonzero = place != 0
    table, inverse = np.unique(place[nonzero], return_inverse=True)
    place[nonzero] = inverse + 1
    place[minus & ~nonzero] = -1
    minus &= nonzero
    strings = [",0.0"] + ["," + repr(m) for m in table.view(np.float64).tolist()] + [",-0.0"]
    strings = np.array(strings, object)
    header = [
        f"# grid {grid.Nx} {grid.Ny} {grid.Nz}",
        f"# ly {fmt(grid.Ly)}",
        f"# nu {fmt(nu)}",
        f"# time {fmt(U.time)}",
        _COLUMNS,
    ]
    with path.open("w") as f:
        f.write("\n".join(header))
        for a in range(0, len(place), _SNAPSHOT_BLOCK):
            rows = slice(a, a + _SNAPSHOT_BLOCK)
            # each row starts with its line break and each value with its comma
            line = np.column_stack((_row_heads(grid)[rows], strings[place[rows]]))
            # a nonzero negative value takes ",-" in a string made for it alone
            signed = [s.replace(",", ",-", 1) for s in line[:, 2:][minus[rows]]]
            line[:, 2:][minus[rows]] = np.array(signed, object)
            f.write("".join(line.ravel().tolist()))
        f.write("\n")
    return path


def _bad_row(fh, first: int) -> str | None:
    """"line N: why" of the first row from file line ``first`` on that is not 10 numbers, if any."""
    fh.seek(0)
    for n, line in enumerate(fh, start=1):
        text = line.split("#", 1)[0]  # comments and blank lines are skipped, as np.loadtxt does
        if n < first or not text.strip():
            continue
        fields = text.split(",")
        if len(fields) < 10:
            return f"line {n}: {line.strip()!r} has {len(fields)} fields, not 10"
        for v in fields[:10]:
            try:
                float(v)
            except ValueError:
                return f"line {n}: {v.strip()!r} is not a number"
    return None


def read_snapshot_csv(path: str | Path) -> VelocityField:
    """The field of a snapshot CSV; a ValueError naming the file and line refuses malformed input.

    The "#" header holds ``# grid NX NY NZ``, ``# ly LY`` and ``# time T`` and ends with the
    column names; each row (one per line) has integer k, j, l in the FFT range [-N/2, N/2).
    """
    with open(path) as fh:
        header, n, line = {}, 0, ""
        for n, line in enumerate(fh, start=1):
            if not line.startswith("#"):
                break
            key, *words = line[1:].split() or [""]
            header[key] = (n, line.strip(), words)
        if line.rstrip("\n") != _COLUMNS:
            raise ValueError(f"snapshot {path} line {n}: {line.strip()!r} is not the column names line")
        fields = []
        for key, kind, count in (("grid", int, 3), ("ly", float, 1), ("time", float, 1)):
            if key not in header:
                raise ValueError(f"snapshot {path} has no '# {key}' header line")
            at, text, words = header[key]
            try:
                values = [kind(w) for w in words]
            except ValueError:
                values = []
            if len(values) != count:
                raise ValueError(f"snapshot {path} line {at}: {text!r} is not '# {key}' and "
                                 f"{count} number(s)")
            fields += values
        # then one row per mode, parsed from the same handle
        try:
            cols = np.loadtxt(fh, delimiter=",", ndmin=2, usecols=range(10)).T
        except ValueError as exc:  # numpy's row numbers are not file lines
            why = _bad_row(fh, n + 1) or f"has a malformed row ({exc})"
            raise ValueError(f"snapshot {path} {why}") from exc
    nx, ny, nz, ly, t = fields
    grid = GridSpec(Nx=nx, Ny=ny, Nz=nz, Ly=ly)
    for name, c, size in zip("kjl", cols, grid.shape):
        bad = (c != np.round(c)) | (c < -(size // 2)) | (c >= size // 2)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"snapshot {path} line {n + 1 + i}: {name} = {c[i]:g} is not an integer "
                             f"in [{-(size // 2)}, {size // 2})")
    ik, ij, il = cols[:3].astype(np.int64)  # each in [-N/2, N/2): a negative one counts from the end
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
    for n, line in enumerate(path.read_text().splitlines()[1:], start=2):
        if not line:
            continue
        where, values = f"{path} line {n}", line.split(",")
        if len(values) != 7:
            raise ValueError(f"{where}: {len(values)} fields, expected 7")
        nu_s, eps_s, outcome, peak, tpk, status, refined = values
        if outcome not in ("stable", "unstable", "inconclusive"):
            raise ValueError(f"{where}: outcome {outcome!r} is not stable, unstable or inconclusive")
        if refined not in ("0", "1"):
            raise ValueError(f"{where}: refined {refined!r} is not 0 or 1")
        try:
            nu, eps, peak_norm, t_peak = (float(v) for v in (nu_s, eps_s, peak, tpk))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        cell = CellResult(nu=nu, eps=eps, outcome=outcome, peak_norm=peak_norm, t_peak=t_peak,
                          status=status, refined=refined == "1")
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
