"""End-to-end tests of the command-line interface and its file formats."""

import configparser
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rotcouette
from rotcouette.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main


def read_csv(path):
    lines = [l for l in Path(path).read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:]]
    cols = {
        name: [row[i] for row in rows] for i, name in enumerate(header)
    }
    return cols


def floats(col):
    return np.array([float(v) for v in col])


def sim_ini(tmp_path, **kv):
    base = dict(
        nu="1e-2", nx="8", ny="16", nz="8", ly="32.0", dt="0.02", t_end="1.0",
        eps="1e-4", seed="3", ic_kind="single_mode", ic_k="1", ic_j="0",
        ic_l="1", diag_every="5", snapshot_every="0",
    )
    base.update({k: str(v) for k, v in kv.items()})
    path = tmp_path / "sim.ini"
    path.write_text("[sim]\n" + "\n".join(f"{k} = {v}" for k, v in base.items()) + "\n")
    return path


def sweep_ini(tmp_path):
    path = tmp_path / "sweep.ini"
    path.write_text(
        "[sim]\n"
        "nu = 1e-2\nnx = 8\nny = 16\nnz = 8\nly = 32.0\ndt = 0.05\n"
        "eps = 1.0\nseed = 2\nic_k = 1\nic_j = 0\nic_l = 1\ndiag_every = 5\n"
        "[sweep]\n"
        "nu_grid = 2e-2 1e-2\neps_min = 1e-7\neps_max = 1e-6\neps_points = 2\n"
        "horizon = 2.0\ngrowth_factor = 10.0\n"
    )
    return path


def with_keys(path, section, **kv):
    """The INI file at path with keys of one section set, replacing what it held."""
    cp = configparser.ConfigParser()
    cp.read(path)
    cp[section].update({k: str(v) for k, v in kv.items()})
    with open(path, "w") as fh:
        cp.write(fh)
    return path


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        assert main(["linear", "--mode", "1,0,0"]) == EXIT_USAGE

    def test_no_mode(self, tmp_path):
        assert main(["linear", "--nu", "1e-3", "--out", str(tmp_path)]) == EXIT_USAGE

    def test_mean_mode_rejected(self, tmp_path):
        rc = main(
            ["linear", "--mode", "0,0,0", "--nu", "1e-3", "--out", str(tmp_path)]
        )
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["linear", "--mode", "1,nan,0", "--nu", "1e-3"],
            ["linear", "--mode", "1,0,0", "--nu", "nan"],
            ["linear", "--mode", "1,0,0", "--nu", "1e-3", "--k1", "nan"],
            ["linear", "--mode", "1,0,0", "--nu", "1e-3", "--k2", "inf"],
            ["linear", "--mode", "1,0,0", "--nu", "1e-3", "--u30=-inf"],
            ["linear", "--mode", "0,1,1", "--nu", "-1"],
            ["linear", "--mode", "1,0,0", "--mode", "0,0,0", "--nu", "1e-3"],
            ["linear", "--mode", "1,0,0", "--nu", "1e-3", "--t-max", "inf"],
            ["linear", "--mode", "1,0,0", "--nu", "1e-3", "--points", "-1"],
            ["multipliers", "--mode", "1,inf,0", "--nu", "1e-3"],
            ["multipliers", "--mode", "1,2,0", "--nu", "1e-3", "--t-max", "-1"],
            ["multipliers", "--mode", "1,2,0", "--nu", "1e-3", "--t-max", "nan"],
            ["multipliers", "--mode", "1,2,0", "--nu", "1e-3", "--window", "1000"],
            ["multipliers", "--mode", "1,2,0", "--nu", "0"],
            ["multipliers", "--mode", "1,2,0", "--nu", "1"],
        ],
        ids=["linear-nan-eta", "linear-nan-nu", "linear-nan-k1", "linear-inf-k2",
             "linear-inf-u30", "linear-negative-nu-zero-mode", "linear-mean-mode-in-list",
             "linear-inf-t-max", "linear-negative-points", "multipliers-inf-eta",
             "multipliers-negative-t-max", "multipliers-nan-t-max", "multipliers-window-flag",
             "multipliers-zero-nu", "multipliers-unit-nu"],
    )
    def test_bad_mode_or_sampling_rejected(self, tmp_path, argv):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[sim]\nbogus = 1\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("kind", ["directory", "missing"])
    def test_config_that_is_not_a_readable_file(self, tmp_path, capsys, command, kind):
        # configparser skips a path it cannot open, which would run the defaults
        cfg = tmp_path / "conf"
        if kind == "directory":
            cfg.mkdir()
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if command == "simulate":
            argv += ["--grid", "8,16,8", "--t-end", "0.05"]
        assert main(argv) == EXIT_USAGE
        assert "not a readable file" in capsys.readouterr().err
        assert not out.exists()

    def test_shear_rate_is_not_a_key(self, tmp_path, capsys):
        # the shear rate is 1 and the window of the weight m is 1000 nu^{-1/3}, as in the
        # paper; neither is a config field
        for key in ("beta", "mult_window"):
            out = tmp_path / "out"
            argv = ["simulate", "--config", str(sim_ini(tmp_path, **{key: 2})), "--out", str(out)]
            assert main(argv) == EXIT_USAGE
            assert f"unknown [sim] key: {key}" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize(
        "setting",
        [
            "--t-end=nan", "--t-end=inf", "--dt=inf", "--dt=nan", "--eps=nan", "--eps=inf",
            "--ly=nan", "sigma=nan", "sigma=inf", "blowup_cap=nan", "blowup_cap=inf",
            "blowup_cap=0", "c0=nan", "c0=inf", "c1=nan", "c1=-1", "--snapshots=-3",
            "--seed=-1",
        ],
    )
    def test_nonfinite_or_out_of_range_sim_value_rejected(self, tmp_path, setting):
        # a flag overrides the file; a bare key=value goes into [sim]
        flag = setting.startswith("--")
        flags, keys = ([setting], {}) if flag else ([], dict([setting.split("=")]))
        out = tmp_path / "out"
        argv = ["simulate", "--config", str(sim_ini(tmp_path, **keys)), "--out", str(out)]
        assert main(argv + flags) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [
            "[sim]\nnonlinear_enabled = ture\n",
            "[sim]\nnx = 8\nnx = 16\n",
            "nx = 8\n[sim]\nny = 16\n",
            "[sim]\nic_file = 50%.csv\n",
            "[simm]\nnx = 8\n",
        ],
        ids=["misspelt-boolean", "duplicate-key", "key-before-section", "bad-interpolation",
             "misspelt-section"],
    )
    def test_malformed_config_file(self, tmp_path, text):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["linear", "--mode", "1,0,0", "--nu", "1e-3"], ["--threads", "2"]),
            (["multipliers", "--mode", "1,2,0", "--nu", "1e-3"], ["--seed", "1"]),
            (["simulate", "--config", "CFG"], ["--threads", "2"]),
            (["linear", "--mode", "1,0,0", "--nu", "1e-3"], ["--config", "CFG"]),
            (["multipliers", "--mode", "1,2,0", "--nu", "1e-3"], ["--config", "CFG"]),
        ],
        ids=["linear-threads", "multipliers-seed", "simulate-threads", "linear-config",
             "multipliers-config"],
    )
    def test_flag_without_effect_rejected(self, tmp_path, argv, flag):
        cfg = tmp_path / "tiny.ini"
        cfg.write_text("[sim]\nnx = 8\nny = 16\nnz = 8\nt_end = 0.1\n")
        argv, flag = ([str(cfg) if a == "CFG" else a for a in x] for x in (argv, flag))
        out = tmp_path / "out"
        assert main(argv + flag + ["--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        # the same command without the flag runs
        assert main(argv + ["--out", str(tmp_path / "ok")]) == EXIT_OK


ZERO_ROW = "0,0,0,0.0,0.0,0.0,0.0,0.0,0.0,0.0"  # the mean mode, first row of a zero snapshot

# line i (from 0) of an 8x16x8 zero snapshot, whose header is lines 0-4, replaced by a text
# or deleted (None), and the refusal that follows "snapshot <path> " in simulate's usage error
MALFORMED_SNAPSHOTS = {
    "grid-with-two-values": (0, "# grid 8 16", "line 1: '# grid 8 16' is not '# grid' and 3 number(s)"),
    "ly-without-a-value": (1, "# ly", "line 2: '# ly' is not '# ly' and 1 number(s)"),
    # else the first row is taken for the header's end and dropped
    "no-column-names": (4, None, f"line 5: {ZERO_ROW!r} is not the column names line"),
    # else k = 9 on Nx = 8 wraps onto k = 1
    "index-outside-the-grid": (5, "9" + ZERO_ROW[1:], "line 6: k = 9 is not an integer in [-4, 4)"),
    # else the cast to integers truncates it to l = 1
    "index-not-an-integer": (5, "0,0,1.5" + ZERO_ROW[5:], "line 6: l = 1.5 is not an integer in [-4, 4)"),
    # numpy's own messages name neither the file nor its line
    "row-with-nine-fields": (6, ZERO_ROW[:-4], f"line 7: {ZERO_ROW[:-4]!r} has 9 fields, not 10"),
    "field-not-a-number": (6, "0,0,1,0.0,abc" + ZERO_ROW[13:], "line 7: 'abc' is not a number"),
    # numpy skips a comment line and a blank line, which the line count must not skip
    "index-after-a-comment": (7, "# a comment\n\n9,0,2" + ZERO_ROW[5:],
                              "line 10: k = 9 is not an integer in [-4, 4)"),
    # else the later row of the mode is kept and the mode it replaced is read as zero
    "mode-repeated": (6, ZERO_ROW, "line 7: mode (k, j, l) = (0, 0, 0) repeats line 6"),
    # read as written, but else the run starts from it and blows up at its first step
    "coefficient-not-finite": (5, ZERO_ROW[:-7] + "nan,0.0", "holds a coefficient that is not finite"),
}


class TestConfigRejectedBeforeAnyWork:
    """A config that SimConfig refuses exits 1, creates no --out and runs no sweep cell."""

    @pytest.mark.parametrize(
        "sim, flags",
        [
            (dict(ic_kind="random_band"), ["--seed", "-1"]),
            (dict(snapshot_every=-3), []),
            (dict(ic_k=5), []),
            (dict(ic_k=0, ic_j=0, ic_l=0), []),
            (dict(ic_kind="file", ic_file="missing.csv"), []),
            (dict(ic_kind="file"), []),
            (dict(rk_stages=2), []),
        ],
        ids=["negative-seed", "negative-snapshot-every", "ic-mode-outside-band", "ic-mode-mean",
             "missing-ic-file", "no-ic-file", "rk-stages-2"],
    )
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_rejected(self, tmp_path, monkeypatch, capsys, command, sim, flags):
        from rotcouette import threshold

        calls = []
        monkeypatch.setattr(threshold, "_run_cells", lambda *a: calls.append(a))
        cfg = sim_ini(tmp_path) if command == "simulate" else sweep_ini(tmp_path)
        with_keys(cfg, "sim", **sim)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)] + flags) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error: ")
        assert calls == [] and not out.exists()

    def test_snapshot_that_initial_condition_refuses(self, tmp_path):
        from rotcouette.reporting import write_snapshot_csv
        from rotcouette.simulation import VelocityField
        from rotcouette.spectral import GridSpec

        other = GridSpec(8, 16, 8, Ly=16.0)  # sim_ini has Ly = 32
        U = VelocityField(other, np.zeros((3,) + other.shape, complex))
        ic = write_snapshot_csv(tmp_path / "ic.csv", U, 1e-2)
        cfg = sim_ini(tmp_path, ic_kind="file", ic_file=ic)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("key", ["grid", "ly", "time"])
    def test_snapshot_header_without_a_line(self, tmp_path, capsys, key):
        from rotcouette.reporting import write_snapshot_csv
        from rotcouette.simulation import VelocityField
        from rotcouette.spectral import GridSpec

        grid = GridSpec(8, 16, 8, Ly=32.0)
        U = VelocityField(grid, np.zeros((3,) + grid.shape, complex))
        ic = write_snapshot_csv(tmp_path / "ic.csv", U, 1e-2)
        lines = ic.read_text().splitlines(keepends=True)
        ic.write_text("".join(line for line in lines if not line.startswith(f"# {key} ")))
        cfg = sim_ini(tmp_path, ic_kind="file", ic_file=ic)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert f"no '# {key}' header line" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(MALFORMED_SNAPSHOTS))
    def test_malformed_snapshot(self, tmp_path, capsys, case):
        from rotcouette.reporting import write_snapshot_csv
        from rotcouette.simulation import VelocityField
        from rotcouette.spectral import GridSpec

        i, text, message = MALFORMED_SNAPSHOTS[case]
        grid = GridSpec(8, 16, 8, Ly=32.0)  # the grid of sim_ini: unedited, simulate runs it
        U = VelocityField(grid, np.zeros((3,) + grid.shape, complex))
        ic = write_snapshot_csv(tmp_path / "ic.csv", U, 1e-2)
        lines = ic.read_text().splitlines()
        assert lines[5] == ZERO_ROW
        lines[i : i + 1] = [] if text is None else [text]
        ic.write_text("\n".join(lines) + "\n")
        cfg = sim_ini(tmp_path, ic_kind="file", ic_file=ic)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: snapshot {ic} {message}\n"
        assert not out.exists()

    def test_snapshot_that_is_not_a_real_field(self, tmp_path, capsys):
        from rotcouette.reporting import write_snapshot_csv
        from rotcouette.simulation import _full
        from rotcouette.spectral import GridSpec

        grid = GridSpec(8, 16, 8, Ly=32.0)  # the grid of sim_ini
        box = np.zeros((3, 5, 11, 3), complex)
        box[0, 1, 2, 1] = 1e-4
        U = _full(grid, box, 0.0)
        U.coeffs[0, -1, -2, -1] *= 1.5  # its l = -1 reflection, no longer the conjugate
        ic = write_snapshot_csv(tmp_path / "ic.csv", U, 1e-2)
        cfg = sim_ini(tmp_path, ic_kind="file", ic_file=ic)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "not a real field" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_refuses_file_initial_condition(self, tmp_path, monkeypatch, capsys):
        from rotcouette import threshold
        from rotcouette.reporting import write_snapshot_csv
        from rotcouette.simulation import VelocityField
        from rotcouette.spectral import GridSpec

        calls = []
        monkeypatch.setattr(threshold, "_run_cells", lambda *a: calls.append(a))
        grid = GridSpec(8, 16, 8, Ly=32.0)  # the grid of sweep_ini: a snapshot simulate accepts
        U = VelocityField(grid, np.zeros((3,) + grid.shape, complex))
        ic = write_snapshot_csv(tmp_path / "ic.csv", U, 1e-2)
        cfg = with_keys(sweep_ini(tmp_path), "sim", ic_kind="file", ic_file=ic)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "ic_kind = file" in capsys.readouterr().err
        assert calls == [] and not out.exists()


class TestConfigSchema:
    """The INI keys, defaults and parsers come from the config dataclasses."""

    SIM = dict(
        nu="2e-2", nx="8", ny="16", nz="8", ly="16.0", dt="0.05", t_end="2.0", eps="1e-3",
        seed="4", ic_kind="file", ic_k="2", ic_j="-1", ic_l="2", sigma="6.0",
        nonlinear_enabled="no", rk_stages="4", diag_every="3", snapshot_every="7",
        blowup_cap="1e3", c0="50.0", c1="5.0",
    )
    SWEEP = dict(
        nu_grid="2e-2, 1e-2", eps_min="1e-6", eps_max="1e-3", eps_points="3", horizon="4.0",
        growth_factor="5.0", norm_name="Q0_2_HN", bisect="YES", bisect_rel_width="0.2",
    )

    def test_empty_config_is_the_dataclass_defaults(self):
        from rotcouette.cli import _sim_config, _sweep_config
        from rotcouette.simulation import SimConfig
        from rotcouette.spectral import GridSpec
        from rotcouette.threshold import SweepConfig

        base = _sim_config({}, {})
        assert base == SimConfig(nu=1e-2, grid=GridSpec(16, 64, 16))
        want = SweepConfig(nu_grid=(1e-2,), eps_min=1e-8, eps_max=1e-2, eps_points=5, base=base)
        assert _sweep_config({}, base) == want

    def test_every_key_reaches_its_field(self, tmp_path):
        from dataclasses import fields, replace

        from rotcouette.cli import _keys, _read_ini, _sim_config, _sweep_config
        from rotcouette.simulation import SimConfig
        from rotcouette.threshold import SweepConfig

        assert set(self.SIM) | {"ic_file"} == _keys(SimConfig)
        assert set(self.SWEEP) == _keys(SweepConfig)
        ic = tmp_path / "ic.csv"
        ic.write_text("")  # SimConfig checks that the file exists; nothing reads it here
        path = tmp_path / "all.ini"
        path.write_text("".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
            for name, keys in (("sim", {**self.SIM, "ic_file": ic}), ("sweep", self.SWEEP))
        ))
        ini = _read_ini(str(path))
        base0, base = _sim_config({}, {}), _sim_config(ini, {})
        # a sweep refuses a file initial condition, so it gets the one SimConfig field changed
        scfg0 = _sweep_config({}, base0)
        scfg = _sweep_config(ini, replace(base, ic_kind="random_band"))
        for new, old in ((base, base0), (base.grid, base0.grid), (scfg, scfg0),
                         (scfg.classify, scfg0.classify)):
            for f in fields(new):
                if f.name != "rk_stages":  # 4 is its only value, so it shows by refusing 2
                    assert getattr(new, f.name) != getattr(old, f.name), f.name
        assert base.ic_mode == (2, -1, 2) and scfg.nu_grid == (2e-2, 1e-2) and scfg.bisect
        with pytest.raises(ValueError, match="rk_stages"):
            _sim_config({"sim": {"rk_stages": "2"}}, {})

    @pytest.mark.parametrize("spelling", ["", "none", "None", "AUTO", "auto"])
    @pytest.mark.parametrize("section, key", [("sim", "dt"), ("sim", "ic_file"), ("sweep", "horizon")])
    def test_optional_value_is_none(self, spelling, section, key):
        from rotcouette.cli import _sim_config, _sweep_config

        ini = {section: {key: spelling}}
        base = _sim_config(ini if section == "sim" else {}, {})
        cfg = base if section == "sim" else _sweep_config(ini, base).classify
        assert getattr(cfg, key) is None

    def test_unsupported_annotation_raises(self):
        from rotcouette.cli import _parse

        with pytest.raises(KeyError):
            _parse(complex, "z", "1j")

    def test_unreadable_value_is_a_usage_error(self, tmp_path, capsys):
        cfg = with_keys(sweep_ini(tmp_path), "sweep", eps_points="2.5")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "usage error: cannot read eps_points = '2.5' as int" in capsys.readouterr().err
        assert not out.exists()


def snapshot_state(name):
    """The states the snapshot writer is checked on, by name."""
    from oracles import full_step

    from rotcouette.simulation import SimConfig, VelocityField, initial_condition
    from rotcouette.spectral import GridSpec

    if name.startswith("stepped"):
        linear = name == "stepped-linear"
        grid = GridSpec(16, 32, 16, Ly=8.0) if linear else GridSpec(8, 16, 8, Ly=32.0)
        cfg = SimConfig(nu=1e-2, grid=grid, dt=0.05, eps=1e-6 if linear else 1e2, seed=4,
                        ic_kind="random_band", nonlinear_enabled=not linear)
        U = initial_condition(cfg)
        for i in range(3):
            U = full_step(U, i * cfg.dt, cfg.dt, cfg)
        return U
    # "signs-apart" spans three 512-row blocks (1519 rows), the others one block (273 rows)
    grid = GridSpec(Nx=12, Ny=48, Nz=12, Ly=7.3) if name == "signs-apart" else GridSpec(
        Nx=6, Ny=20, Nz=10, Ly=7.3)
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal((3,) + grid.shape) + 1j * rng.standard_normal((3,) + grid.shape)
    coeffs[:, ~grid.dealias_mask] = 0.0
    u1 = coeffs[0]
    if name == "signed-zeros":
        u1[0, 1, 0], u1[0, 1, 1], u1[1, 2, 3] = complex(0.0, -0.0), complex(-0.0, 0.0), -0.0
    elif name == "extremes":
        u1[0, 1, 0], u1[0, 1, 1], u1[1, 2, 3] = complex(5e-324, np.inf), -np.inf, complex(np.nan, 1.0)
        u1[1, 2, 2], u1[0, 2, 3] = complex(-0.0, 5e-324), complex(1e308, -1e-300)
    elif name == "one-ulp":
        u1[0, 1, 0] = u1[0, 1, 1] = complex(0.1, np.nextafter(0.1, 1.0))
        u1[1, 2, 3] = np.nextafter(0.1, 1.0)
    elif name == "signs-apart":
        rows = np.argwhere(grid.dealias_mask)
        first, last = tuple(rows[0]), tuple(rows[-1])
        # a NaN with its sign bit set is written nan; -inf, inf and the least subnormal keep signs
        u1[first], u1[last] = complex(-np.nan, -np.inf), complex(np.inf, -5e-324)
        # one magnitude with both signs, in the first and the last block
        coeffs[1][first], coeffs[1][last] = complex(0.375, 1.0), complex(-0.375, -1.0)
        # not a real field: this l < 0 mode is not the conjugate of its reflection
        coeffs[2][1, 2, -1] = coeffs[2][-1, -2, 1] = complex(0.25, 0.75)
    return VelocityField(grid, coeffs, 0.1 + 0.2)  # t is not a short decimal


SNAPSHOT_STATES = [
    "stepped-linear", "stepped-nonlinear", "signed-zeros", "extremes", "one-ulp", "signs-apart"
]


class TestSnapshotFormat:
    @pytest.mark.parametrize("block", [None, 7], ids=["default-block", "block-7"])
    @pytest.mark.parametrize("name", SNAPSHOT_STATES)
    def test_writer_matches_row_by_row_oracle(self, tmp_path, monkeypatch, name, block):
        from oracles import row_by_row_snapshot_csv

        from rotcouette import reporting

        if block is not None:  # many blocks, with a short last one
            monkeypatch.setattr(reporting, "_SNAPSHOT_BLOCK", block)
        U = snapshot_state(name)
        got = reporting.write_snapshot_csv(tmp_path / "new.csv", U, 3e-3).read_bytes()
        want = row_by_row_snapshot_csv(tmp_path / "oracle.csv", U, 3e-3).read_bytes()
        assert got == want

    def test_round_trip_is_bitwise(self, tmp_path):
        from rotcouette.reporting import read_snapshot_csv, write_snapshot_csv

        for name in SNAPSHOT_STATES:
            U = snapshot_state(name)
            mask = U.grid.dealias_mask
            nonzero = np.count_nonzero(U.coeffs[:, mask]) / U.coeffs[:, mask].size
            if name.startswith("stepped"):  # advection fills the band, a linear run keeps it sparse
                assert nonzero > 0.95 if name == "stepped-nonlinear" else nonzero < 0.1
            back = read_snapshot_csv(write_snapshot_csv(tmp_path / f"{name}.csv", U, 3e-3))
            assert back.grid == U.grid and back.time == U.time
            # every NaN is written nan, so it reads back as the one positive NaN
            kept = np.ascontiguousarray(U.coeffs[:, mask]).view(np.float64)
            want = np.where(np.isnan(kept), float("nan"), kept)
            assert back.coeffs[:, mask].tobytes() == want.tobytes(), name
            assert not np.any(back.coeffs[:, ~mask])

    def test_signs_apart_reaches_its_cases(self):
        U = snapshot_state("signs-apart")
        rows = np.ascontiguousarray(U.coeffs[:, U.grid.dealias_mask])
        values = rows.view(np.float64)
        assert np.any(np.isnan(values) & np.signbit(values))
        assert {-np.inf, np.inf, -5e-324} <= set(values[np.isinf(values) | (values == -5e-324)])
        assert rows[1, 0].real == -rows[1, -1].real == 0.375 and rows.shape[1] > 2 * 512
        assert U.coeffs[2, 1, 2, -1] != np.conj(U.coeffs[2, -1, -2, 1])

    def test_writer_leaves_input_and_keys_rows_by_grid(self, tmp_path):
        from oracles import row_by_row_snapshot_csv

        from rotcouette import reporting

        small, other = snapshot_state("stepped-nonlinear"), snapshot_state("extremes")
        assert small.grid.shape == (8, 16, 8) and other.grid.shape == (6, 20, 10)
        for i, U in enumerate((small, other, small)):
            before = U.coeffs.copy()
            got = reporting.write_snapshot_csv(tmp_path / f"new{i}.csv", U, 3e-3).read_bytes()
            assert U.coeffs.tobytes() == before.tobytes()
            assert got == row_by_row_snapshot_csv(tmp_path / f"oracle{i}.csv", U, 3e-3).read_bytes()
            assert not reporting._row_heads(U.grid).flags.writeable


class TestCsvFields:
    def test_field_rule(self, tmp_path):
        from rotcouette.reporting import write_csv

        row = [True, False, None, "stable", "12", 0.0, -0.0, 5e-324, math.inf, math.nan,
               np.float64(0.1), 1, np.True_, "error: a, b"]
        path = write_csv(tmp_path / "row.csv", [f"c{i}" for i in range(len(row))], [row])
        assert path.read_bytes() == (
            b"c0,c1,c2,c3,c4,c5,c6,c7,c8,c9,c10,c11,c12,c13\n"
            b"1,0,,stable,12,0.0,-0.0,5e-324,inf,nan,0.1,1.0,1,error: a; b\n"
        )


# the first line of cells.csv: CellResult's fields, with outcome under the header stable
CELLS_HEADER = "nu,eps,stable,peak_norm,t_peak,status,refined"


class TestCellsFormat:
    def test_round_trip(self, tmp_path):
        from dataclasses import astuple, replace

        from rotcouette.reporting import read_cells_csv, write_cells_csv
        from rotcouette.threshold import CellResult

        cells = [
            CellResult(1e-2, 10.0, "stable", 1.25, 0.0, "completed"),
            CellResult(1e-2, 1e3, "unstable", math.inf, 0.35, "blown_up"),
            CellResult(2e-2, 0.1 + 0.2, "inconclusive", 5e-324, -0.0, "completed, then checked"),
            CellResult(2e-2, 1e3, "inconclusive", math.nan, math.nan, "error: a, b"),
            CellResult(2e-2, 31.6, "stable", 3.5, 0.5, "completed", refined=True),
            CellResult(2e-2, 56.2, "unstable", 7.0, 0.25, "blown_up", refined=True),
        ]
        path = write_cells_csv(tmp_path / "cells.csv", cells[::-1])  # written in (nu, eps) order
        assert path.read_text() == (
            CELLS_HEADER + "\n"
            "0.01,10.0,stable,1.25,0.0,completed,0\n"
            "0.01,1000.0,unstable,inf,0.35,blown_up,0\n"
            "0.02,0.30000000000000004,inconclusive,5e-324,-0.0,completed; then checked,0\n"
            "0.02,31.6,stable,3.5,0.5,completed,1\n"
            "0.02,56.2,unstable,7.0,0.25,blown_up,1\n"
            "0.02,1000.0,inconclusive,nan,nan,error: a; b,0\n"
        )
        # every row is parsed; a refined or error: cell is then left out, so a resume reruns it
        kept = [replace(c, status=c.status.replace(",", ";")) for c in cells[:3]]
        back = read_cells_csv(path)
        assert list(back) == [(c.nu, c.eps) for c in kept]
        # repr tells -0.0 from 0.0 and a bool from a number
        assert [repr(astuple(c)) for c in back.values()] == [repr(astuple(c)) for c in kept]

    def test_empty_file_resumes_no_cell(self, tmp_path):
        from rotcouette.reporting import read_cells_csv

        (tmp_path / "cells.csv").write_text("")
        assert read_cells_csv(tmp_path / "cells.csv") == {}


class TestReproducibility:
    @pytest.mark.parametrize("command", ["linear", "multipliers", "simulate", "sweep"])
    def test_byte_identical_rerun(self, tmp_path, command):
        argv = {
            "linear": ["linear", "--mode", "1,0.5,0", "--mode", "0,1,1", "--nu", "1e-3",
                       "--k2", "0.3", "--points", "41"],
            "multipliers": ["multipliers", "--mode", "1,2,0", "--mode", "0,3,1", "--nu", "1e-3",
                            "--points", "41"],
            "simulate": ["simulate", "--config",
                         str(sim_ini(tmp_path, ic_kind="random_band", snapshot_every="10"))],
            "sweep": ["sweep", "--config", str(sweep_ini(tmp_path))],
        }[command]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--out", str(out1)]) == EXIT_OK
        assert main(argv + ["--out", str(out2)]) == EXIT_OK
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        assert len(names) >= 2  # the manifest and at least one data file
        for name in names:
            if name == "manifest.json":  # holds wall-clock stamps
                hashes = [json.loads((d / name).read_text())["config_hash"] for d in (out1, out2)]
                assert hashes[0] == hashes[1]
            else:
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


    @pytest.mark.parametrize(
        "grid, t_end", [((8, 16, 8), "1.0"), ((16, 64, 16), "0.1")], ids=["8x16x8", "16x64x16"]
    )
    def test_blas_threads_keep_bytes(self, tmp_path, grid, t_end):
        # the advection's matrix products run in BLAS: one or two BLAS threads
        # must write the same energy.csv and snapshots
        nx, ny, nz = grid
        cfg = sim_ini(tmp_path, nx=nx, ny=ny, nz=nz, ly="8.0", t_end=t_end, eps="0.5",
                      ic_kind="random_band", diag_every="1", snapshot_every="2")
        src = str(Path(rotcouette.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            out = tmp_path / f"threads{threads}"
            subprocess.run(
                [sys.executable, "-m", "rotcouette", "simulate", "--config", str(cfg),
                 "--out", str(out)],
                env=env, check=True, capture_output=True,
            )
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir() if p.name != "manifest.json")
        assert "energy.csv" in names and len(names) >= 3
        assert names == sorted(p.name for p in outs[1].iterdir() if p.name != "manifest.json")
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


class TestLinearCommand:
    def test_nonzero_mode_envelopes(self, tmp_path):
        rc = main(
            ["linear", "--mode", "1,0,0", "--nu", "1e-3",
             "--t-max", "20", "--out", str(tmp_path)]
        )
        assert rc == EXIT_OK
        cols = read_csv(tmp_path / "linear_k1_eta0_l0.csv")
        K = floats(cols["K_abs"])
        env = floats(cols["env_K_abs"])
        assert np.all(K <= env + 1e-12)
        assert np.all(np.diff(env) <= 1e-15)  # envelope monotone for eta = 0
        U3 = floats(cols["U3_abs"])
        assert np.all(U3 <= floats(cols["env_U3_abs"]) + 1e-8)

    def test_zero_mode_lift_up_columns(self, tmp_path):
        rc = main(
            ["linear", "--mode", "0,1,1", "--nu", "0.001",
             "--k2", "0", "--u30", "0", "--t-max", "4", "--points", "5",
             "--out", str(tmp_path)]
        )
        assert rc == EXIT_OK
        cols = read_csv(tmp_path / "linear_k0_eta1_l1.csv")
        ts = floats(cols["t"])
        u2 = floats(cols["u2_re"])
        # u2 = -t * l^2/(eta^2+l^2) * u1(0) * heat decay
        want = -ts * 0.5 * np.exp(-0.001 * 2.0 * ts)
        assert np.allclose(u2, want, rtol=1e-12, atol=1e-15)

    def test_zero_mode_inviscid_example(self, tmp_path):
        rc = main(
            ["linear", "--mode", "0,1,1", "--nu", "0",
             "--k2", "0", "--u30", "0", "--t-max", "4", "--points", "5",
             "--out", str(tmp_path)]
        )
        assert rc == EXIT_OK
        cols = read_csv(tmp_path / "linear_k0_eta1_l1.csv")
        ts = floats(cols["t"])
        assert np.allclose(floats(cols["u2_re"]), -0.5 * ts, rtol=1e-14)
        assert np.allclose(floats(cols["u3_re"]), 0.5 * ts, rtol=1e-14)

    def test_modes_sharing_a_file_name_rejected(self, tmp_path, capsys):
        # eta is written with :g, six significant digits, so these two name one file
        out = tmp_path / "out"
        argv = ["linear", "--mode", "1,0.1234567,0", "--mode", "1,0.1234568,0", "--nu", "1e-3"]
        assert main(argv + ["--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "(1, 0.1234567, 0)" in err and "(1, 0.1234568, 0)" in err
        assert "linear_k1_eta0.123457_l0.csv" in err
        assert not out.exists()


class TestMultipliersCommand:
    def test_profiles(self, tmp_path):
        rc = main(
            ["multipliers", "--mode", "0,3,1", "--mode", "1,2,0", "--nu", "1e-3",
             "--t-max", "10", "--points", "41", "--out", str(tmp_path)]
        )
        assert rc == EXIT_OK
        cols = read_csv(tmp_path / "multipliers.csv")
        k = floats(cols["k"])
        m = floats(cols["m"])
        M = floats(cols["M"])
        t = floats(cols["t"])
        assert np.all(m[k == 0] == 1.0)
        assert np.all(M[k == 0] == 1.0)
        assert np.all(m[t == 0.0] == 1.0)
        assert np.all(M[t == 0.0] == 1.0)
        resid = np.array([float(v) if v else math.nan for v in cols["m_ode_residual"]])
        finite = resid[np.isfinite(resid)]
        assert len(finite) > 0 and np.all(finite <= 1e-6)


class TestSimulateCommand:
    def test_zero_amplitude_zero_csv(self, tmp_path):
        cfg = sim_ini(tmp_path, eps="0.0")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        cols = read_csv(out / "energy.csv")
        assert np.all(floats(cols["U_neq_HN_total"]) == 0.0)

    def test_manifest_references_outputs(self, tmp_path):
        from rotcouette.reporting import config_hash

        cfg = sim_ini(tmp_path, snapshot_every="25")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        outputs = {Path(p).name for p in manifest["outputs"]}
        produced = {p.name for p in out.iterdir()}
        assert outputs <= produced
        assert "energy.csv" in outputs
        assert manifest["version"]
        assert manifest["numpy"] == np.__version__
        assert manifest["run"] == {
            "status": "completed", "t_fail": None, "warnings": [], "n_steps": 50, "dt": 0.02,
        }
        # the run record stays out of the hashed config, so sweep --resume is unaffected
        assert manifest["config_hash"] == config_hash(manifest["config"])

    def test_manifest_records_blas(self, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(sim_ini(tmp_path)), "--out", str(out)]) == EXIT_OK
        blas = json.loads((out / "manifest.json").read_text())["blas"]
        try:
            want = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            assert blas is None
        else:
            assert blas == {"name": want.get("name"), "version": want.get("version")}
            assert blas["name"]

    def test_linear_flag_reproduces_closed_form(self, tmp_path):
        from rotcouette.reporting import read_snapshot_csv
        from rotcouette.diagnostics import compute_K_check
        from rotcouette.linear import ModeStateK, evolve_K_closed
        from rotcouette.spectral import WaveVector

        cfg = sim_ini(tmp_path, snapshot_every="10", t_end="2.0")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--linear"]) == EXIT_OK
        snaps = sorted(out.glob("snapshot_*.csv"))
        U0 = read_snapshot_csv(snaps[0])
        kv = WaveVector(1, U0.grid.eta_values[0], 1)
        i = (1, 0, 1)
        K1f, K2f = compute_K_check(U0)
        K0 = ModeStateK(K1f.coeffs[i], K2f.coeffs[i])
        for snap in snaps[1:]:
            U = read_snapshot_csv(snap)
            K1f, K2f = compute_K_check(U)
            want = evolve_K_closed(K0, U.time, 1e-2, kv)
            err = abs(K1f.coeffs[i] - want.K1) + abs(K2f.coeffs[i] - want.K2)
            assert err <= 1e-6 * want.magnitude

    def test_blowup_exit_code(self, tmp_path):
        cfg = sim_ini(tmp_path, eps="1.0", blowup_cap="1e-9")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERICAL
        run = json.loads((out / "manifest.json").read_text())["run"]
        assert run["status"] == "blown_up"
        assert run["t_fail"] == pytest.approx(0.02)
        assert any("exceeded the cap" in w for w in run["warnings"])
        assert (run["n_steps"], run["dt"]) == (50, 0.02)

    @pytest.mark.parametrize(
        "exc, code", [(FloatingPointError, EXIT_NUMERICAL), (ValueError, EXIT_USAGE)]
    )
    def test_failing_step_exit_code(self, tmp_path, monkeypatch, capsys, exc, code):
        # the run's exception reaches main, as when run raised it itself
        from rotcouette import simulation

        def step(*a):
            raise exc("injected")

        monkeypatch.setattr(simulation, "step", step)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(sim_ini(tmp_path)), "--out", str(out)]) == code
        assert "injected" in capsys.readouterr().err and not out.exists()


# the index of a cells.csv line (the header is line 0), its edit (its fields in, its fields
# out) and the start of the refusal's message
MALFORMED_CELLS = {
    "cut-row": (2, lambda row: row[:4], "4 fields, expected 7"),
    "bad-number": (2, lambda row: row[:3] + ["1.0e"] + row[4:], "could not convert string to float"),
    "bad-outcome": (2, lambda row: row[:2] + ["stabel"] + row[3:], "outcome 'stabel'"),
    "bad-refined": (2, lambda row: row[:6] + ["yes"], "refined 'yes'"),
    "bad-header": (0, lambda row: row[:2] + ["outcome"] + row[3:],
                   repr(CELLS_HEADER.replace("stable", "outcome")) + " is not the header"),
}


class TestSweepCommand:
    def test_sweep_outputs(self, tmp_path):
        cfg = sweep_ini(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        cells = read_csv(out / "cells.csv")
        assert len(cells["nu"]) == 4
        assert set(cells["stable"]) == {"stable"}
        summary = read_csv(out / "summary.csv")
        assert len(summary["nu"]) == 2
        gamma = json.loads((out / "gamma.json").read_text())
        assert "gamma" in gamma

    @pytest.mark.parametrize(
        "extra",
        [
            "norm_name = U_neq_HN_totl\n",
            "bisect = true\nbisect_rel_width = 0\n",
            "bisect = flase\n",
            "nu_grid = 2 1e-2\n",
            "eps_min = nan\n",
            "eps_max = inf\n",
            "horizon = nan\n",
            "horizon = -1\n",
            "growth_factor = nan\n",
            "nu_grid = 1e-2 0.01\n",
            "eps_min = 1e-6\neps_max = 1e-6\neps_points = 3\n",
            "eps_points = 1\n",
        ],
        ids=["misspelt-norm-name", "zero-bisect-width", "misspelt-boolean", "nu-out-of-range",
             "nan-eps-min", "inf-eps-max", "nan-horizon", "negative-horizon", "nan-growth-factor",
             "repeated-nu", "repeated-eps", "one-point-drops-eps-max"],
    )
    def test_bad_sweep_key_rejected_before_any_cell(self, tmp_path, monkeypatch, extra):
        from rotcouette import threshold

        calls = []
        monkeypatch.setattr(threshold, "_run_cells", lambda *a: calls.append(a))
        cfg = sweep_ini(tmp_path)
        keys = {line.split("=")[0] for line in extra.splitlines()}  # replaced, not duplicated
        lines = cfg.read_text().splitlines(keepends=True)
        cfg.write_text("".join(l for l in lines if l.split("=")[0] not in keys) + extra)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert calls == [] and not out.exists()

    def test_cells_keep_no_snapshots(self, tmp_path, monkeypatch):
        from rotcouette import threshold

        seen = []

        def spy(cfgs):
            seen.append([(cfg.snapshot_every, cfg.nonlinear_enabled) for cfg in cfgs])
            return real_run(cfgs)

        real_run = threshold.run
        monkeypatch.setattr(threshold, "run", spy)
        cfg = with_keys(sweep_ini(tmp_path), "sim", snapshot_every=1, nonlinear_enabled="false")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert seen == [[(0, True)] * 2] * 2  # one lockstep run per viscosity row
        assert json.loads((out / "manifest.json").read_text())["config"]["base"]["snapshot_every"] == 1

    def test_threads_other_than_one_rejected(self, tmp_path, monkeypatch):
        # cells run serially: --threads stays only for command lines that pass 1
        from rotcouette import threshold

        calls = []
        monkeypatch.setattr(threshold, "_run_cells", lambda *a: calls.append(a))
        out = tmp_path / "out"
        argv = ["sweep", "--config", str(sweep_ini(tmp_path)), "--out", str(out), "--threads", "2"]
        assert main(argv) == EXIT_USAGE
        assert calls == [] and not out.exists()

    def test_seed_and_threads_flags(self, tmp_path):
        cfg = sweep_ini(tmp_path)
        out = tmp_path / "out"
        argv = ["sweep", "--config", str(cfg), "--out", str(out), "--seed", "5", "--threads", "1"]
        assert main(argv) == EXIT_OK
        assert json.loads((out / "manifest.json").read_text())["config"]["base"]["seed"] == 5

    @pytest.mark.parametrize("good", [0, 1])
    def test_exit_code_when_every_cell_fails(self, tmp_path, monkeypatch, capsys, good):
        from rotcouette import simulation

        real_ic = simulation._initial_box
        calls = []

        def ic(cfg):  # each cell builds its initial condition once, inside its run
            calls.append(cfg)
            if len(calls) > good:
                raise RuntimeError("boom")
            return real_ic(cfg)

        monkeypatch.setattr(simulation, "_initial_box", ic)
        cfg = sweep_ini(tmp_path)
        out = tmp_path / "out"
        argv = ["sweep", "--config", str(cfg), "--out", str(out)]
        assert main(argv) == (EXIT_OK if good else EXIT_NUMERICAL)
        for name in ("cells.csv", "summary.csv", "gamma.json", "manifest.json"):
            assert (out / name).exists(), name
        assert len(calls) == 4
        status = read_csv(out / "cells.csv")["status"]
        assert sum(s == "error: boom" for s in status) == 4 - good
        if not good:
            assert "every one of the 4 sweep cells failed" in capsys.readouterr().err
            # a resume reruns every error cell: each fails again and the exit code stays
            assert main(argv + ["--resume"]) == EXIT_NUMERICAL
            assert len(calls) == 8

    def test_resume_reruns_only_failed_cells(self, tmp_path, monkeypatch):
        from rotcouette import simulation

        cfg = sweep_ini(tmp_path)
        clean, out = tmp_path / "clean", tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(clean)]) == EXIT_OK
        real_ic = simulation._initial_box
        calls, broken = [], [True]

        def ic(sim):
            calls.append((sim.nu, sim.eps))
            if broken[0] and sim.nu == 1e-2:  # a transient failure of one viscosity
                raise RuntimeError("transient")
            return real_ic(sim)

        monkeypatch.setattr(simulation, "_initial_box", ic)
        argv = ["sweep", "--config", str(cfg), "--out", str(out)]
        assert main(argv) == EXIT_OK
        failed = [c for c in calls if c[0] == 1e-2]
        assert len(calls) == 4 and len(failed) == 2
        assert read_csv(out / "cells.csv")["status"].count("error: transient") == 2
        broken[0] = False
        assert main(argv + ["--resume"]) == EXIT_OK
        assert calls[4:] == failed
        for name in ("cells.csv", "summary.csv", "gamma.json"):
            assert (out / name).read_bytes() == (clean / name).read_bytes(), name

    def test_resume_with_half_a_row_checkpointed(self, tmp_path, monkeypatch):
        from rotcouette import threshold

        cfg = with_keys(sweep_ini(tmp_path), "sweep", eps_points=4, eps_max="1e2")
        clean, out = tmp_path / "clean", tmp_path / "out"
        argv = ["sweep", "--config", str(cfg), "--out", str(out)]
        assert main(argv[:4] + [str(clean)]) == EXIT_OK
        assert main(argv) == EXIT_OK
        # cells.csv is sorted by (nu, eps): keep the cells 0 and 2 of 4 of nu = 1e-2, and
        # the row of nu = 2e-2 whole
        lines = (out / "cells.csv").read_text().splitlines(keepends=True)
        (out / "cells.csv").write_text("".join(lines[:2] + lines[3:4] + lines[5:]))
        real_run, rows = threshold.run, []

        def spy(cfgs):
            rows.append([(c.nu, c.eps) for c in cfgs])
            return real_run(cfgs)

        monkeypatch.setattr(threshold, "run", spy)
        assert main(argv + ["--resume"]) == EXIT_OK
        first = read_csv(clean / "cells.csv")
        # one lockstep run of the missing half row, none for the whole row
        assert rows == [[(1e-2, float(first["eps"][i])) for i in (1, 3)]]
        for name in ("cells.csv", "summary.csv", "gamma.json"):
            assert (out / name).read_bytes() == (clean / name).read_bytes(), name

    def test_resume_reproduces_identical_csv(self, tmp_path):
        cfg = sweep_ini(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        cells_first = (out / "cells.csv").read_bytes()
        summary_first = (out / "summary.csv").read_bytes()
        # resume with the checkpoint present: must not change any output
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--resume"]) == EXIT_OK
        assert (out / "cells.csv").read_bytes() == cells_first
        assert (out / "summary.csv").read_bytes() == summary_first

    def test_resume_against_other_config_rejected(self, tmp_path, capsys):
        from dataclasses import fields

        from rotcouette.simulation import SimConfig
        from rotcouette.threshold import ClassifyCriteria, SweepConfig

        cfg = sweep_ini(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        names = ("cells.csv", "summary.csv", "manifest.json")
        before = {name: (out / name).read_bytes() for name in names}
        manifest = json.loads(before["manifest.json"])
        recorded = manifest["config_hash"]
        # the manifest records the whole SweepConfig, so a change to any field is caught
        assert set(manifest["config"]) == {f.name for f in fields(SweepConfig)} | {"command"}
        assert set(manifest["config"]["classify"]) == {f.name for f in fields(ClassifyCriteria)}
        assert set(manifest["config"]["base"]) == {f.name for f in fields(SimConfig)}
        wider = tmp_path / "wider.ini"  # [sweep] is the last section, so the line lands there
        wider.write_text(cfg.read_text() + "bisect_rel_width = 0.2\n")
        cases = {"seed": (cfg, ["--seed", "9"]), "bisect-rel-width": (wider, [])}
        for case, (config, extra) in cases.items():
            argv = ["sweep", "--config", str(config), "--out", str(out), "--resume"] + extra
            assert main(argv) == EXIT_USAGE, case
            assert {name: (out / name).read_bytes() for name in names} == before, case
            err = capsys.readouterr().err
            other = tmp_path / f"other-{case}"
            assert main(argv[:4] + [str(other)] + extra) == EXIT_OK, case
            current = json.loads((other / "manifest.json").read_text())["config_hash"]
            assert current != recorded, case
            assert recorded in err and current in err, case

    def test_resume_without_manifest_rejected(self, tmp_path, monkeypatch, capsys):
        # a sweep cut between its cells.csv and manifest.json writes: no config hash to check
        from rotcouette import threshold

        cfg = sweep_ini(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        (out / "manifest.json").unlink()
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        calls = []
        monkeypatch.setattr(threshold, "_run_cells", lambda *a: calls.append(a))
        argv = ["sweep", "--config", str(cfg), "--out", str(out), "--resume", "--seed", "2"]
        assert main(argv) == EXIT_USAGE
        assert "no manifest.json" in capsys.readouterr().err
        assert calls == [] and {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_resume_from_a_literal_cells_csv(self, tmp_path, monkeypatch):
        from rotcouette import threshold

        calls = []

        def fake_cells(scfg, nu, row):
            calls.append((nu, [eps for eps, _ in row]))
            return [threshold.CellResult(nu, eps, "stable", eps, 0.0, "completed") for eps, _ in row]

        monkeypatch.setattr(threshold, "_run_cells", fake_cells)
        cfg = sweep_ini(tmp_path)
        out = tmp_path / "out"
        argv = ["sweep", "--config", str(cfg), "--out", str(out)]
        assert main(argv) == EXIT_OK  # for the manifest, whose config hash a resume checks
        rows = [
            "0.01,1e-07,stable,1e-07,0.0,completed,0",
            "0.01,1e-06,unstable,2.5,1.5,blown_up,0",
            "0.02,1e-07,inconclusive,0.125,2.0,completed,0",
            "0.02,1e-06,inconclusive,nan,nan,error: boom; again,0",
        ]
        (out / "cells.csv").write_text("\n".join([CELLS_HEADER] + rows) + "\n")
        calls.clear()
        assert main(argv + ["--resume"]) == EXIT_OK
        # only the error cell runs again; every other row is written back as it was read
        assert calls == [(2e-2, [1e-6])]
        rows[3] = "0.02,1e-06,stable,1e-06,0.0,completed,0"
        assert (out / "cells.csv").read_text() == "\n".join([CELLS_HEADER] + rows) + "\n"

    @pytest.mark.parametrize("case", sorted(MALFORMED_CELLS))
    def test_resume_rejects_malformed_cells_csv(self, tmp_path, monkeypatch, capsys, case):
        from rotcouette import threshold

        i, edit, message = MALFORMED_CELLS[case]

        def fake_cells(scfg, nu, row):
            return [threshold.CellResult(nu, eps, "stable", eps, 0.0, "completed") for eps, _ in row]

        monkeypatch.setattr(threshold, "_run_cells", fake_cells)
        cfg = sweep_ini(tmp_path)
        out = tmp_path / "out"
        argv = ["sweep", "--config", str(cfg), "--out", str(out)]
        assert main(argv) == EXIT_OK
        lines = (out / "cells.csv").read_text().splitlines()
        lines[i] = ",".join(edit(lines[i].split(",")))
        (out / "cells.csv").write_text("\n".join(lines) + "\n")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(argv + ["--resume"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {out / 'cells.csv'} line {i + 1}: {message}")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestReadmeExample:
    def test_example_config_runs(self, tmp_path, monkeypatch):
        from rotcouette import threshold
        from rotcouette.reporting import config_hash

        readme = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = readme.split("```ini\n")
        assert len(blocks) == 2, "README.md should hold one ini example"
        cfg = tmp_path / "run.ini"
        cfg.write_text(blocks[1].split("```")[0])
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim"), "--t-end", "0.05"]
        assert main(argv) == EXIT_OK
        # config hashes are pinned: a change breaks --resume and must be deliberate
        config = json.loads((tmp_path / "sim" / "manifest.json").read_text())["config"]
        assert config["t_end"] == 0.05
        assert config_hash({**config, "t_end": 10.0}) == "d2c66485e104988e"

        cells = []

        def fake_cells(scfg, nu, row):
            cells.extend((nu, eps) for eps, _ in row)
            return [threshold.CellResult(nu, eps, "stable", eps, 0.0, "completed") for eps, _ in row]

        monkeypatch.setattr(threshold, "_run_cells", fake_cells)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")]) == EXIT_OK
        assert cells  # every cell ran through the stub
        manifest = json.loads((tmp_path / "sweep" / "manifest.json").read_text())
        assert manifest["config_hash"] == "6a0b8894c850eaf4"
