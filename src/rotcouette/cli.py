"""Command-line entry point: linear, multipliers, simulate, sweep.

Configs are INI files with [sim] and [sweep] sections whose keys are the
lower-case field names of ``SimConfig`` and ``SweepConfig``, with the fields of
the nested ``grid`` and ``classify`` configs and ic_k/ic_j/ic_l for ``ic_mode``;
command-line flags override file values.  Exit codes: 0 success, 1 usage
error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
import typing
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import reporting
from .linear import (
    ModeStateK,
    ZeroModeState,
    evolve_K_closed,
    evolve_U3,
    inviscid_damping_rates,
    zero_mode_evolve,
)
from .multipliers import (
    WINDOW,
    M_log_derivative,
    m_log_derivative,
    m_ode_residual,
    mode_weights,
)
from .simulation import BlowUpError, SimConfig, _full, run
from .spectral import WaveVector
from .threshold import SweepConfig, sweep

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to exit code 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="rotcouette", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=str, default=".", help="output directory")

    lin = sub.add_parser("linear", parents=[common], help="closed-form per-mode trajectories")
    lin.add_argument("--mode", action="append", default=None, metavar="K,ETA,L",
                     help="mode triple; repeatable")
    lin.add_argument("--nu", type=float, required=True)
    lin.add_argument("--t-max", type=float, default=20.0)
    lin.add_argument("--points", type=int, default=201)
    lin.add_argument("--k1", type=float, default=1.0, help="initial K1 (real)")
    lin.add_argument("--k2", type=float, default=0.0, help="initial K2 (real)")
    lin.add_argument("--u30", type=float, default=1.0, help="initial third component (real)")

    mult = sub.add_parser("multipliers", parents=[common], help="dump m/M weight profiles")
    mult.add_argument("--mode", action="append", default=None, metavar="K,ETA,L")
    mult.add_argument("--nu", type=float, required=True)
    mult.add_argument("--t-max", type=float, default=20.0)
    mult.add_argument("--points", type=int, default=201)

    sim = sub.add_parser("simulate", parents=[common], help="run the pseudospectral integrator")
    sim.add_argument("--config", type=str, default=None, help="INI config file")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--nu", type=float, default=None)
    sim.add_argument("--eps", type=float, default=None)
    sim.add_argument("--t-end", type=float, default=None)
    sim.add_argument("--dt", type=float, default=None)
    sim.add_argument("--grid", type=str, default=None, metavar="NX,NY,NZ")
    sim.add_argument("--ly", type=float, default=None)
    sim.add_argument("--linear", action="store_true", help="disable the nonlinear terms")
    sim.add_argument("--snapshots", type=int, default=None, help="snapshot cadence in steps")

    sw = sub.add_parser("sweep", parents=[common], help="amplitude/viscosity threshold sweep")
    sw.add_argument("--config", type=str, default=None, help="INI config file")
    sw.add_argument("--seed", type=int, default=None)
    sw.add_argument("--threads", type=int, default=1, choices=[1], help="cells run serially")
    sw.add_argument("--resume", action="store_true", help="reuse cells.csv rows in --out")

    return p


# ---------------------------------------------------------------------------
# config handling


# The fields with no dataclass default; every other default is the dataclass's own.
_CLI_DEFAULTS = dict(nu=1e-2, nx=16, ny=64, nz=16, nu_grid=(1e-2,), eps_min=1e-8, eps_max=1e-2,
                     eps_points=5)
_IC_MODE_KEYS = ("ic_k", "ic_j", "ic_l")
_SECTIONS = {"sim": SimConfig, "sweep": SweepConfig}
_PARSERS = {  # closed: a field of any other declared type raises KeyError
    float: float, int: int, str: str,
    bool: lambda v: configparser.ConfigParser.BOOLEAN_STATES[v.lower()],
    tuple[float, ...]: lambda v: tuple(float(x) for x in v.replace(",", " ").split()),
}


def _fields(cls) -> list[tuple[str, object, object]]:
    """(name, declared type, default) of the fields of a config; a sweep's base is [sim]."""
    hints = typing.get_type_hints(cls)
    return [(f.name, hints[f.name], f.default) for f in fields(cls) if f.name != "base"]


def _keys(cls) -> set[str]:
    """Lower-case field names, with the keys of the nested grid and classify configs."""
    return set().union(*(
        _keys(tp) if is_dataclass(tp) else set(_IC_MODE_KEYS) if name == "ic_mode" else {name.lower()}
        for name, tp, _ in _fields(cls)
    ))


def _parse(tp, key: str, value):
    """An INI string as the type ``tp``; empty, none or auto is None for an optional field."""
    if not isinstance(value, str):  # a flag or a CLI default
        return value
    if type(None) in typing.get_args(tp):
        if value.strip().lower() in ("", "none", "auto"):
            return None
        (tp,) = (a for a in typing.get_args(tp) if a is not type(None))
    parse = _PARSERS[tp]
    try:
        return parse(value)
    except (KeyError, ValueError) as exc:
        raise UsageError(f"cannot read {key} = {value!r} as {getattr(tp, '__name__', tp)}") from exc


def _build(cls, raw: dict, **given):
    """``cls`` from the key -> value dict ``raw``; a field that no key sets keeps its default."""
    for name, tp, default in _fields(cls):
        if is_dataclass(tp):
            given[name] = _build(tp, raw)
        elif name == "ic_mode":
            given[name] = tuple(_parse(int, k, raw.get(k, d)) for k, d in zip(_IC_MODE_KEYS, default))
        elif name.lower() in raw:
            given[name] = _parse(tp, name.lower(), raw[name.lower()])
    return cls(**given)  # its ValueError on a value out of range is a usage error in main


def _read_ini(path: str | None) -> dict[str, dict[str, str]]:
    """[sim] and [sweep] of an INI file as dicts; anything else in it is a usage error."""
    if not path:
        return {}
    cp = configparser.ConfigParser()
    try:
        read = cp.read(path)  # skips, and leaves out of its list, a path it cannot open
        ini = {name: dict(cp[name]) for name in cp.sections()}
    except configparser.Error as exc:
        raise UsageError(f"malformed config file {path}: {exc}") from exc
    if not read:
        raise UsageError(f"config file not found or not a readable file: {path}")
    for name, section in ini.items():
        if name not in _SECTIONS:
            raise UsageError(f"unknown section [{name}] in {path}; expected [sim] or [sweep]")
        unknown = sorted(set(section) - _keys(_SECTIONS[name]))
        if unknown:
            raise UsageError(f"unknown [{name}] key: {unknown[0]}")
    return ini


def _sim_config(ini: dict, overrides: dict) -> SimConfig:
    flags = {k: v for k, v in overrides.items() if v is not None}
    return _build(SimConfig, {**_CLI_DEFAULTS, **ini.get("sim", {}), **flags})


def _sweep_config(ini: dict, base: SimConfig) -> SweepConfig:
    return _build(SweepConfig, {**_CLI_DEFAULTS, **ini.get("sweep", {})}, base=base)


def _parse_modes(args) -> tuple[list[WaveVector], np.ndarray]:
    """The modes and the sample times of ``linear`` and ``multipliers``."""
    modes: list[WaveVector] = []
    if args.mode:
        for spec in args.mode:
            try:
                k_s, eta_s, l_s = spec.split(",")
                modes.append(WaveVector(k=int(k_s), eta=float(eta_s), l=int(l_s)))
            except ValueError as exc:
                raise UsageError(f"bad --mode triple {spec!r}: expected K,ETA,L") from exc
    if not modes:
        raise UsageError("no mode given; use --mode K,ETA,L")
    for kv in modes:
        _require_finite(f"eta of mode ({kv.k}, {kv.eta}, {kv.l})", kv.eta)
    _require_finite("--t-max", args.t_max, minimum=0.0)
    if args.points < 1:
        raise UsageError(f"--points must be at least 1, got {args.points}")
    return modes, np.linspace(0.0, args.t_max, args.points)


def _require_finite(name: str, value: float, minimum: float | None = None) -> None:
    if not math.isfinite(value) or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" and at least {minimum:g}"
        raise UsageError(f"{name} must be finite{bound}, got {value}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_linear(args) -> int:
    modes, ts = _parse_modes(args)
    if any(kv.k == 0 and kv.eta == 0.0 and kv.l == 0 for kv in modes):
        raise UsageError("mode (0, 0, 0) has no dynamics; it is pinned to zero")
    _require_finite("--nu", args.nu, minimum=0.0)
    for flag in ("k1", "k2", "u30"):
        _require_finite(f"--{flag}", getattr(args, flag))
    files: dict[str, WaveVector] = {}  # file name -> the mode it holds
    for kv in modes:
        name = f"linear_k{kv.k}_eta{kv.eta:g}_l{kv.l}.csv"
        first = files.setdefault(name, kv)
        if first is not kv:
            raise UsageError(f"modes ({first.k}, {first.eta}, {first.l}) and ({kv.k}, {kv.eta}, "
                             f"{kv.l}) would both be written to {name}")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = reporting.Manifest(
        {"command": "linear", "nu": args.nu, "t_max": args.t_max, "points": args.points,
         "modes": [(kv.k, kv.eta, kv.l) for kv in modes],
         "k1": args.k1, "k2": args.k2, "u30": args.u30}
    )
    for name, kv in files.items():
        write = _write_zero_mode_csv if kv.k == 0 else _write_k_mode_csv
        manifest.add(write(outdir / name, kv, args, ts))
    manifest.write(outdir)
    return EXIT_OK


def _write_k_mode_csv(path, kv, args, ts):
    state0 = ModeStateK(K1=complex(args.k1), K2=complex(args.k2))
    u30 = complex(args.u30)
    k0_abs = state0.magnitude
    ref_norm = math.sqrt(k0_abs**2 + abs(u30) ** 2)
    columns = (
        "t,K1_re,K1_im,K2_re,K2_im,K_abs,U3_re,U3_im,U3_abs,"
        "env_K_abs,env_U3_abs,env_inviscid_12,env_inviscid_3"
    ).split(",")
    rows = []
    for t in ts:
        st = evolve_K_closed(state0, t, args.nu, kv)
        u3 = evolve_U3(u30, state0, t, args.nu, kv)
        env_k = math.exp(-(args.nu / 12.0) * kv.k**2 * t**3) * k0_abs
        env_u3 = math.exp(-(args.nu / 12.0) * kv.k**2 * t**3) * (abs(u30) + 12.0 / abs(kv.k) * k0_abs)
        b12, b3 = inviscid_damping_rates(ref_norm, t, args.nu)
        rows.append((
            t, st.K1.real, st.K1.imag, st.K2.real, st.K2.imag, st.magnitude,
            u3.real, u3.imag, abs(u3), env_k, env_u3, b12, b3,
        ))
    return reporting.write_csv(path, columns, rows)


def _write_zero_mode_csv(path, kv, args, ts):
    s0 = ZeroModeState(u1=complex(args.k1), u2=complex(args.k2), u3=complex(args.u30))
    columns = "t,u1_re,u1_im,u2_re,u2_im,u3_re,u3_im,u1_abs,u2_abs,u3_abs".split(",")
    rows = []
    for t in ts:
        st = zero_mode_evolve(s0, t, args.nu, kv.eta, kv.l)
        rows.append((
            t, st.u1.real, st.u1.imag, st.u2.real, st.u2.imag,
            st.u3.real, st.u3.imag, abs(st.u1), abs(st.u2), abs(st.u3),
        ))
    return reporting.write_csv(path, columns, rows)


def cmd_multipliers(args) -> int:
    modes, ts = _parse_modes(args)
    nu = args.nu
    if not 0.0 < nu < 1.0:
        raise UsageError(f"--nu must lie in (0, 1), got {nu}")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = reporting.Manifest(
        {"command": "multipliers", "nu": nu, "window": WINDOW,
         "t_max": args.t_max, "points": args.points,
         "modes": [(kv.k, kv.eta, kv.l) for kv in modes]}
    )
    columns = "t,k,eta,l,nu,m,M,mdot_over_m,Mdot_over_M,m_ode_residual".split(",")
    rows = []
    M, m = (a.tolist() for a in mode_weights(ts, modes, nu))  # one row of times per mode
    for kv, M_kv, m_kv in zip(modes, M, m):
        # None, an empty field, where m is not differentiable
        for t, M_t, m_t, resid in zip(ts.tolist(), M_kv, m_kv, m_ode_residual(ts, kv, nu)):
            rows.append((
                t, str(kv.k), kv.eta, str(kv.l), nu, m_t, M_t,
                m_log_derivative(t, kv, nu), M_log_derivative(t, kv, nu), resid,
            ))
    manifest.add(reporting.write_csv(outdir / "multipliers.csv", columns, rows))
    manifest.write(outdir)
    return EXIT_OK


def cmd_simulate(args) -> int:
    ini = _read_ini(args.config)
    overrides = dict(
        nu=args.nu, eps=args.eps, t_end=args.t_end, dt=args.dt, seed=args.seed,
        ly=args.ly, snapshot_every=args.snapshots,
    )
    if args.grid:
        try:
            nx, ny, nz = (int(v) for v in args.grid.split(","))
        except ValueError as exc:
            raise UsageError(f"bad --grid {args.grid!r}: expected NX,NY,NZ") from exc
        overrides.update(nx=nx, ny=ny, nz=nz)
    if args.linear:
        overrides["nonlinear_enabled"] = False
    cfg = _sim_config(ini, overrides)

    manifest = reporting.Manifest({"command": "simulate", **asdict(cfg)})
    (result,) = run([cfg])
    if result.error is not None:
        raise result.error
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest.add(reporting.write_energy_csv(outdir / "energy.csv", result.reports))
    for i, (t, b) in enumerate(result.snapshots):  # one full layout alive at a time
        manifest.add(reporting.write_snapshot_csv(
            outdir / f"snapshot_{i:05d}.csv", _full(cfg.grid, b, t), cfg.nu))
    manifest.run = {
        "status": result.status, "t_fail": result.t_fail, "warnings": result.warnings,
        "n_steps": result.n_steps, "dt": result.dt,
    }
    manifest.write(outdir)
    if result.blown_up:
        print(f"numerical blow-up at t = {result.t_fail}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_sweep(args) -> int:
    ini = _read_ini(args.config)
    base = _sim_config(ini, {"seed": args.seed})
    scfg = _sweep_config(ini, base)
    outdir = Path(args.out)
    manifest = reporting.Manifest({"command": "sweep", **asdict(scfg)})
    previous = outdir / "manifest.json"
    if args.resume and (outdir / "cells.csv").exists() and not previous.exists():
        raise UsageError(f"--resume: {outdir} holds cells.csv but no manifest.json to check "
                         f"its config hash against")
    if args.resume and previous.exists():
        recorded = json.loads(previous.read_text()).get("config_hash")
        if recorded != manifest.hash:
            raise UsageError(
                f"--resume: {outdir} holds a sweep with config hash {recorded}, "
                f"this sweep has {manifest.hash}"
            )
    outdir.mkdir(parents=True, exist_ok=True)
    checkpoint = reporting.read_cells_csv(outdir / "cells.csv") if args.resume else {}
    result = sweep(scfg, checkpoint=checkpoint)
    manifest.add(reporting.write_cells_csv(outdir / "cells.csv", result.cells))
    manifest.add(reporting.write_summary_csv(outdir / "summary.csv", result))
    manifest.add(reporting.write_gamma_json(outdir / "gamma.json", result))
    manifest.write(outdir)
    if all(c.status.startswith("error:") for c in result.cells):
        print(f"every one of the {len(result.cells)} sweep cells failed; "
              f"see the status column of {outdir / 'cells.csv'}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "linear": cmd_linear,
            "multipliers": cmd_multipliers,
            "simulate": cmd_simulate,
            "sweep": cmd_sweep,
        }[args.command]
        return handler(args)
    except (BlowUpError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (UsageError, ValueError) as exc:  # a config or input file that the package refuses
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
