"""End-to-end tests of the command-line interface and its file formats."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

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


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        assert main(["linear", "--k", "1", "--eta", "0", "--l", "0"]) == EXIT_USAGE

    def test_no_mode(self, tmp_path):
        assert main(["linear", "--nu", "1e-3", "--out", str(tmp_path)]) == EXIT_USAGE

    def test_mean_mode_rejected(self, tmp_path):
        rc = main(
            ["linear", "--k", "0", "--eta", "0", "--l", "0", "--nu", "1e-3", "--out", str(tmp_path)]
        )
        assert rc == EXIT_USAGE

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[sim]\nbogus = 1\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["linear", "--k", "1", "--eta", "0", "--l", "0", "--nu", "1e-3"], ["--threads", "2"]),
            (["multipliers", "--mode", "1,2,0", "--nu", "1e-3"], ["--seed", "1"]),
            (["simulate", "--config", "CFG"], ["--threads", "2"]),
            (["linear", "--k", "1", "--eta", "0", "--l", "0", "--nu", "1e-3"], ["--config", "CFG"]),
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


class TestSnapshotFormat:
    def test_round_trip_is_bitwise(self, tmp_path):
        from rotcouette.reporting import read_snapshot_csv, write_snapshot_csv
        from rotcouette.simulation import VelocityField
        from rotcouette.spectral import GridSpec

        grid = GridSpec(Nx=6, Ny=20, Nz=10, Ly=7.3)
        rng = np.random.default_rng(5)
        mask = grid.dealias_mask
        arrays = np.array([
            rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
            for _ in range(3)
        ])
        arrays[:, ~mask] = 0.0
        arrays[0][1, 2, 3] = complex(-0.0, 5e-324)  # signed zero and a subnormal
        arrays[1][0, 1, 0] = complex(1e308, -1e-300)
        t = 0.1 + 0.2  # not a short decimal
        path = write_snapshot_csv(tmp_path / "snap.csv", VelocityField(grid, arrays, t), 3e-3)
        U = read_snapshot_csv(path)
        assert U.grid == grid
        assert U.time == t
        assert U.coeffs.tobytes() == arrays.tobytes()


class TestLinearCommand:
    def test_nonzero_mode_envelopes(self, tmp_path):
        rc = main(
            ["linear", "--k", "1", "--eta", "0", "--l", "0", "--nu", "1e-3",
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
            ["linear", "--k", "0", "--eta", "1", "--l", "1", "--nu", "0.001",
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
            ["linear", "--k", "0", "--eta", "1", "--l", "1", "--nu", "0",
             "--k2", "0", "--u30", "0", "--t-max", "4", "--points", "5",
             "--out", str(tmp_path)]
        )
        assert rc == EXIT_OK
        cols = read_csv(tmp_path / "linear_k0_eta1_l1.csv")
        ts = floats(cols["t"])
        assert np.allclose(floats(cols["u2_re"]), -0.5 * ts, rtol=1e-14)
        assert np.allclose(floats(cols["u3_re"]), 0.5 * ts, rtol=1e-14)


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
    def ini(self, tmp_path, **kv):
        base = dict(
            nu="1e-2", nx="8", ny="16", nz="8", ly="32.0", dt="0.02", t_end="1.0",
            eps="1e-4", seed="3", ic_kind="single_mode", ic_k="1", ic_j="0",
            ic_l="1", diag_every="5", snapshot_every="0",
        )
        base.update({k: str(v) for k, v in kv.items()})
        path = tmp_path / "sim.ini"
        path.write_text("[sim]\n" + "\n".join(f"{k} = {v}" for k, v in base.items()) + "\n")
        return path

    def test_zero_amplitude_zero_csv(self, tmp_path):
        cfg = self.ini(tmp_path, eps="0.0")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        cols = read_csv(out / "energy.csv")
        assert np.all(floats(cols["U_neq_HN_total"]) == 0.0)

    def test_byte_identical_rerun(self, tmp_path):
        cfg = self.ini(tmp_path, ic_kind="random_band", snapshot_every="10")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
        assert (out1 / "energy.csv").read_bytes() == (out2 / "energy.csv").read_bytes()
        assert (out1 / "snapshot_00000.csv").read_bytes() == (out2 / "snapshot_00000.csv").read_bytes()

    def test_manifest_references_outputs(self, tmp_path):
        cfg = self.ini(tmp_path, snapshot_every="25")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        outputs = {Path(p).name for p in manifest["outputs"]}
        produced = {p.name for p in out.iterdir()}
        assert outputs <= produced
        assert "energy.csv" in outputs
        assert manifest["version"]
        assert manifest["config_hash"]

    def test_linear_flag_reproduces_closed_form(self, tmp_path):
        from rotcouette.reporting import read_snapshot_csv
        from rotcouette.diagnostics import compute_K_check
        from rotcouette.linear import ModeStateK, evolve_K_closed
        from rotcouette.spectral import WaveVector

        cfg = self.ini(tmp_path, snapshot_every="10", t_end="2.0")
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
        cfg = self.ini(tmp_path, eps="1.0", blowup_cap="1e-9")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERICAL


class TestSweepCommand:
    def ini(self, tmp_path):
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

    def test_sweep_outputs(self, tmp_path):
        cfg = self.ini(tmp_path)
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
        "extra", ["norm_name = U_neq_HN_totl\n", "bisect = true\nbisect_rel_width = 0\n"],
        ids=["misspelt-norm-name", "zero-bisect-width"],
    )
    def test_bad_sweep_key_rejected_before_any_cell(self, tmp_path, monkeypatch, extra):
        from rotcouette import threshold

        calls = []
        monkeypatch.setattr(threshold, "_run_cell", lambda *a: calls.append(a))
        cfg = self.ini(tmp_path)
        cfg.write_text(cfg.read_text() + extra)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert calls == [] and not out.exists()

    def test_seed_and_threads_flags(self, tmp_path):
        cfg = self.ini(tmp_path)
        out = tmp_path / "out"
        argv = ["sweep", "--config", str(cfg), "--out", str(out), "--seed", "5", "--threads", "1"]
        assert main(argv) == EXIT_OK
        assert json.loads((out / "manifest.json").read_text())["config"]["base"]["seed"] == 5

    def test_resume_reproduces_identical_csv(self, tmp_path):
        cfg = self.ini(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        cells_first = (out / "cells.csv").read_bytes()
        summary_first = (out / "summary.csv").read_bytes()
        # resume with the checkpoint present: must not change any output
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--resume"]) == EXIT_OK
        assert (out / "cells.csv").read_bytes() == cells_first
        assert (out / "summary.csv").read_bytes() == summary_first

    def test_resume_against_other_config_rejected(self, tmp_path, capsys):
        cfg = self.ini(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        names = ("cells.csv", "summary.csv", "manifest.json")
        before = {name: (out / name).read_bytes() for name in names}
        recorded = json.loads(before["manifest.json"])["config_hash"]
        argv = ["sweep", "--config", str(cfg), "--out", str(out), "--resume", "--seed", "9"]
        assert main(argv) == EXIT_USAGE
        assert {name: (out / name).read_bytes() for name in names} == before
        err = capsys.readouterr().err
        other = tmp_path / "other"
        assert main(argv[:4] + [str(other), "--seed", "9"]) == EXIT_OK
        current = json.loads((other / "manifest.json").read_text())["config_hash"]
        assert current != recorded
        assert recorded in err and current in err
