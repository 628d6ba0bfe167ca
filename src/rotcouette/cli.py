"""Command-line entry point: linear, multipliers, simulate, sweep.

Configs are INI files with [sim] and [sweep] sections mirroring the
``SimConfig``/``SweepConfig`` field names; command-line flags override file
values.  Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import replace
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
    MultiplierParams,
    M_closed,
    M_log_derivative,
    SwitchingTimeError,
    m_exact,
    m_log_derivative,
    m_ode_residual,
)
from .simulation import BlowUpError, SimConfig, run
from .spectral import GridSpec, WaveVector
from .threshold import ClassifyCriteria, SweepConfig, sweep

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
    lin.add_argument("--k", type=int, default=None)
    lin.add_argument("--eta", type=float, default=None)
    lin.add_argument("--l", type=int, default=None)
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
    mult.add_argument("--window", type=float, default=1000.0)

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
    sw.add_argument("--threads", type=int, default=1)
    sw.add_argument("--resume", action="store_true", help="reuse cells.csv rows in --out")

    return p


# ---------------------------------------------------------------------------
# config handling


_SIM_DEFAULTS = dict(
    nu=1e-2, nx=16, ny=64, nz=16, ly=32.0, dt=None, t_end=10.0, eps=1e-6, beta=1.0,
    seed=0, ic_kind="single_mode", ic_k=1, ic_j=0, ic_l=1, ic_file=None, sigma=5.0,
    nonlinear_enabled=True, rk_stages=4, diag_every=10, snapshot_every=0,
    blowup_cap=1e6, c0=100.0, c1=10.0, mult_window=1000.0,
)


def _read_ini(path: str | None) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    if path:
        if not Path(path).exists():
            raise UsageError(f"config file not found: {path}")
        cp.read(path)
    return cp


def _sim_config(cp: configparser.ConfigParser, overrides: dict) -> SimConfig:
    raw = dict(_SIM_DEFAULTS)
    if cp.has_section("sim"):
        for key in cp["sim"]:
            if key not in raw:
                raise UsageError(f"unknown [sim] key: {key}")
            raw[key] = cp["sim"][key]
    raw.update({k: v for k, v in overrides.items() if v is not None})

    def as_bool(v):
        return v if isinstance(v, bool) else str(v).strip().lower() in {"1", "true", "yes", "on"}

    def as_opt_float(v):
        if v is None or v == "" or str(v).lower() == "none":
            return None
        return float(v)

    grid = GridSpec(Nx=int(raw["nx"]), Ny=int(raw["ny"]), Nz=int(raw["nz"]), Ly=float(raw["ly"]))
    try:
        return SimConfig(
            nu=float(raw["nu"]),
            grid=grid,
            dt=as_opt_float(raw["dt"]),
            t_end=float(raw["t_end"]),
            eps=float(raw["eps"]),
            beta=float(raw["beta"]),
            seed=int(raw["seed"]),
            ic_kind=str(raw["ic_kind"]),
            ic_mode=(int(raw["ic_k"]), int(raw["ic_j"]), int(raw["ic_l"])),
            ic_file=raw["ic_file"] if raw["ic_file"] else None,
            sigma=float(raw["sigma"]),
            nonlinear_enabled=as_bool(raw["nonlinear_enabled"]),
            rk_stages=int(raw["rk_stages"]),
            diag_every=int(raw["diag_every"]),
            snapshot_every=int(raw["snapshot_every"]),
            blowup_cap=float(raw["blowup_cap"]),
            C0=float(raw["c0"]),
            C1=float(raw["c1"]),
            mult_window=float(raw["mult_window"]),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


_SWEEP_DEFAULTS = dict(
    nu_grid="1e-2", eps_min=1e-8, eps_max=1e-2, eps_points=5,
    horizon=None, growth_factor=10.0, norm_name="U_neq_HN_total",
    bisect=False, bisect_rel_width=0.10,
)


def _sweep_config(cp: configparser.ConfigParser, base: SimConfig) -> SweepConfig:
    raw = dict(_SWEEP_DEFAULTS)
    if cp.has_section("sweep"):
        for key in cp["sweep"]:
            if key not in raw:
                raise UsageError(f"unknown [sweep] key: {key}")
            raw[key] = cp["sweep"][key]
    nu_grid = tuple(float(v) for v in str(raw["nu_grid"]).replace(",", " ").split())
    horizon = raw["horizon"]
    horizon = None if horizon in (None, "", "none", "auto") else float(horizon)
    try:
        return SweepConfig(
            nu_grid=nu_grid,
            eps_min=float(raw["eps_min"]),
            eps_max=float(raw["eps_max"]),
            eps_points=int(raw["eps_points"]),
            base=base,
            classify=ClassifyCriteria(
                horizon=horizon,
                growth_factor=float(raw["growth_factor"]),
                norm_name=str(raw["norm_name"]),
            ),
            bisect=str(raw["bisect"]).strip().lower() in {"1", "true", "yes", "on"},
            bisect_rel_width=float(raw["bisect_rel_width"]),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_modes(args) -> list[WaveVector]:
    modes: list[WaveVector] = []
    if args.mode:
        for spec in args.mode:
            try:
                k_s, eta_s, l_s = spec.split(",")
                modes.append(WaveVector(k=int(k_s), eta=float(eta_s), l=int(l_s)))
            except ValueError as exc:
                raise UsageError(f"bad --mode triple {spec!r}: expected K,ETA,L") from exc
    k = getattr(args, "k", None)
    eta = getattr(args, "eta", None)
    l = getattr(args, "l", None)
    if k is not None or eta is not None or l is not None:
        if None in (k, eta, l):
            raise UsageError("--k, --eta and --l must be given together")
        modes.append(WaveVector(k=k, eta=eta, l=l))
    if not modes:
        raise UsageError("no mode given; use --mode K,ETA,L or --k/--eta/--l")
    return modes


# ---------------------------------------------------------------------------
# subcommands


def cmd_linear(args) -> int:
    modes = _parse_modes(args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = reporting.Manifest(
        {"command": "linear", "nu": args.nu, "t_max": args.t_max, "points": args.points,
         "modes": [(kv.k, kv.eta, kv.l) for kv in modes],
         "k1": args.k1, "k2": args.k2, "u30": args.u30}
    )
    ts = np.linspace(0.0, args.t_max, args.points)
    for kv in modes:
        if kv.k == 0 and kv.eta == 0.0 and kv.l == 0:
            raise UsageError("mode (0, 0, 0) has no dynamics; it is pinned to zero")
        name = f"linear_k{kv.k}_eta{kv.eta:g}_l{kv.l}.csv"
        path = outdir / name
        if kv.k == 0:
            _write_zero_mode_csv(path, kv, args)
        else:
            _write_k_mode_csv(path, kv, args, ts)
        manifest.add(path)
    manifest.add(manifest.write(outdir))
    return EXIT_OK


def _write_k_mode_csv(path, kv, args, ts):
    state0 = ModeStateK(K1=complex(args.k1), K2=complex(args.k2))
    u30 = complex(args.u30)
    k0_abs = state0.magnitude
    ref_norm = math.sqrt(k0_abs**2 + abs(u30) ** 2)
    lines = [
        "t,K1_re,K1_im,K2_re,K2_im,K_abs,U3_re,U3_im,U3_abs,"
        "env_K_abs,env_U3_abs,env_inviscid_12,env_inviscid_3"
    ]
    for t in ts:
        st = evolve_K_closed(state0, t, args.nu, kv)
        u3 = evolve_U3(u30, state0, t, args.nu, kv)
        env_k = math.exp(-(args.nu / 12.0) * kv.k**2 * t**3) * k0_abs
        env_u3 = math.exp(-(args.nu / 12.0) * kv.k**2 * t**3) * (abs(u30) + 12.0 / abs(kv.k) * k0_abs)
        b12, b3 = inviscid_damping_rates(ref_norm, t, args.nu)
        lines.append(
            ",".join(
                reporting.fmt(v)
                for v in (
                    t, st.K1.real, st.K1.imag, st.K2.real, st.K2.imag, st.magnitude,
                    u3.real, u3.imag, abs(u3), env_k, env_u3, b12, b3,
                )
            )
        )
    path.write_text("\n".join(lines) + "\n")


def _write_zero_mode_csv(path, kv, args):
    s0 = ZeroModeState(u1=complex(args.k1), u2=complex(args.k2), u3=complex(args.u30))
    ts = np.linspace(0.0, args.t_max, args.points)
    lines = ["t,u1_re,u1_im,u2_re,u2_im,u3_re,u3_im,u1_abs,u2_abs,u3_abs"]
    for t in ts:
        st = zero_mode_evolve(s0, t, args.nu, kv.eta, kv.l)
        lines.append(
            ",".join(
                reporting.fmt(v)
                for v in (
                    t, st.u1.real, st.u1.imag, st.u2.real, st.u2.imag,
                    st.u3.real, st.u3.imag, abs(st.u1), abs(st.u2), abs(st.u3),
                )
            )
        )
    path.write_text("\n".join(lines) + "\n")


def cmd_multipliers(args) -> int:
    modes = _parse_modes(args)
    p = MultiplierParams(nu=args.nu, window=args.window)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = reporting.Manifest(
        {"command": "multipliers", "nu": args.nu, "window": args.window,
         "t_max": args.t_max, "points": args.points,
         "modes": [(kv.k, kv.eta, kv.l) for kv in modes]}
    )
    rows = []
    ts = np.linspace(0.0, args.t_max, args.points)
    for kv in modes:
        for t in ts:
            try:
                resid = m_ode_residual(float(t), kv, p)
            except SwitchingTimeError:
                resid = float("nan")
            rows.append(
                dict(
                    t=float(t), k=kv.k, eta=kv.eta, l=kv.l, nu=args.nu,
                    m=m_exact(float(t), kv, p), M=M_closed(float(t), kv, p),
                    mdot_over_m=m_log_derivative(float(t), kv, p),
                    Mdot_over_M=M_log_derivative(float(t), kv, p),
                    m_ode_residual=resid,
                )
            )
    path = reporting.write_multiplier_csv(outdir / "multipliers.csv", rows)
    manifest.add(path)
    manifest.add(manifest.write(outdir))
    return EXIT_OK


def cmd_simulate(args) -> int:
    cp = _read_ini(args.config)
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
    cfg = _sim_config(cp, overrides)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = reporting.Manifest({"command": "simulate", **_cfg_dict(cfg)})
    result = run(cfg)
    path = reporting.write_energy_csv(outdir / "energy.csv", result.reports)
    manifest.add(path)
    for i, (t, U) in enumerate(result.snapshots):
        spath = reporting.write_snapshot_csv(outdir / f"snapshot_{i:05d}.csv", U, cfg.nu)
        manifest.add(spath)
    manifest.add(manifest.write(outdir))
    if result.blown_up:
        print(f"numerical blow-up at t = {result.t_fail}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cfg_dict(cfg: SimConfig) -> dict:
    d = dict(vars(cfg))
    d["grid"] = {"Nx": cfg.grid.Nx, "Ny": cfg.grid.Ny, "Nz": cfg.grid.Nz, "Ly": cfg.grid.Ly}
    return d


def cmd_sweep(args) -> int:
    cp = _read_ini(args.config)
    base = _sim_config(cp, {"seed": args.seed} if args.seed is not None else {})
    scfg = _sweep_config(cp, base)
    outdir = Path(args.out)
    manifest = reporting.Manifest(
        {"command": "sweep", "base": _cfg_dict(base),
         "nu_grid": list(scfg.nu_grid), "eps_min": scfg.eps_min, "eps_max": scfg.eps_max,
         "eps_points": scfg.eps_points, "growth_factor": scfg.classify.growth_factor,
         "horizon": scfg.classify.horizon, "norm_name": scfg.classify.norm_name,
         "bisect": scfg.bisect}
    )
    previous = outdir / "manifest.json"
    if args.resume and previous.exists():
        recorded = json.loads(previous.read_text()).get("config_hash")
        if recorded != manifest.hash:
            raise UsageError(
                f"--resume: {outdir} holds a sweep with config hash {recorded}, "
                f"this sweep has {manifest.hash}"
            )
    outdir.mkdir(parents=True, exist_ok=True)
    checkpoint = reporting.read_cells_csv(outdir / "cells.csv") if args.resume else {}
    result = sweep(scfg, threads=max(1, args.threads), checkpoint=checkpoint)
    manifest.add(reporting.write_cells_csv(outdir / "cells.csv", result.cells))
    manifest.add(reporting.write_summary_csv(outdir / "summary.csv", result))
    manifest.add(reporting.write_gamma_json(outdir / "gamma.json", result))
    manifest.add(manifest.write(outdir))
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
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BlowUpError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
