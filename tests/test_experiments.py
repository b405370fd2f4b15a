"""Experiment runner: config validation, run artifacts, sweeps, theory checks, CLI."""

import os

import numpy as np
import pytest
import yaml

from nullprior.cli import main as cli_main
from nullprior.errors import ConfigError
from nullprior.experiments import (
    add_measurement_noise,
    apply_sweep_value,
    build_problem,
    run,
    run_toy3d,
    sweep,
    theory_check,
    validate_config,
)


def cs_config(**overrides):
    cfg = {
        "problem": "cs",
        "seed": 1,
        "operator": {"n": 40, "m": 8, "dist": "gaussian", "normalize": True},
        "basis": {"method": "qr", "p": 32},
        "prior": {"kind": "oracle", "error": {"kind": "zero"}},
        "denoiser": {"kind": "identity"},
        "solver": {"kind": "pnp_fista", "alpha": "auto", "gamma": 1.0,
                   "iters": 60, "restart": "fista-momentum"},
        "noise": {"snr_db": None},
    }
    cfg.update(overrides)
    return cfg


def theory_config(**overrides):
    cfg = {
        "problem": "mri",
        "seed": 3,
        "operator": {"shape": [8, 8], "transform": "dct",
                     "mask": {"kind": "lowpass", "count": 16}, "scale": 0.1},
        "signal": {"kind": "bumps", "count": 4},
        "basis": {"method": "fourier", "scale": 0.1},
        "prior": {"kind": "oracle", "error": {"kind": "zero"}},
        "denoiser": {"kind": "identity"},
        "solver": {"kind": "pnp_fista", "alpha": 50.0, "gamma": 1.0, "iters": 25},
        "noise": {"snr_db": None},
    }
    cfg.update(overrides)
    return cfg


class TestValidation:
    def test_unknown_top_key(self):
        with pytest.raises(ConfigError, match="unknown top level"):
            validate_config(cs_config(bogus=1))

    def test_unknown_section_key(self):
        cfg = cs_config()
        cfg["solver"]["warp"] = 9
        with pytest.raises(ConfigError, match="warp"):
            validate_config(cfg)

    def test_unknown_problem(self):
        with pytest.raises(ConfigError):
            validate_config({"problem": "sudoku"})

    def test_negative_gamma(self):
        cfg = cs_config()
        cfg["solver"]["gamma"] = -1
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_operator_param_error_names_config_path(self):
        cfg = cs_config()
        cfg["operator"] = {"n": 5, "m": 9}
        with pytest.raises(Exception, match="m=9"):
            build_problem(cfg)


class TestNoise:
    def test_snr_convention(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(2000)
        noisy = add_measurement_noise(y, 5.0, seed=1)
        snr = float(y @ y) / float((noisy - y) @ (noisy - y))
        assert 10 * np.log10(snr) == pytest.approx(5.0, abs=0.3)

    def test_noiseless_passthrough(self):
        y = np.arange(4.0)
        np.testing.assert_array_equal(add_measurement_noise(y, None, 0), y)

    def test_seeded(self):
        y = np.ones(50)
        a = add_measurement_noise(y, 10.0, seed=3)
        b = add_measurement_noise(y, 10.0, seed=3)
        np.testing.assert_array_equal(a, b)


class TestRun:
    def test_artifacts_written(self, tmp_path):
        result = run(cs_config(), out_dir=str(tmp_path))
        for name in ("trace_baseline.csv", "trace_npn.csv", "theory.txt",
                     "summary.csv"):
            assert (tmp_path / name).exists()
        assert result["summary"]["psnr_npn"] > result["summary"]["psnr_baseline"]

    def test_byte_identical_reruns(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run(cs_config(), out_dir=str(d1))
        run(cs_config(), out_dir=str(d2))
        for name in ("trace_baseline.csv", "trace_npn.csv", "summary.csv",
                     "theory.txt"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_seed_changes_output(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run(cs_config(), out_dir=str(d1), seed=1)
        run(cs_config(), out_dir=str(d2), seed=2)
        assert (d1 / "trace_npn.csv").read_bytes() != (d2 / "trace_npn.csv").read_bytes()

    def test_paired_noise_realization(self, tmp_path):
        # both traces start from the same y: identical initial data residual
        result = run(cs_config(noise={"snr_db": 10.0}), out_dir=str(tmp_path))
        tb, tn = result["trace_baseline"], result["trace_npn"]
        assert tb.data_res_sq[0] == tn.data_res_sq[0]

    def test_output_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NULLPRIOR_OUT", str(tmp_path / "env_out"))
        cfg = cs_config()
        cfg.pop("output", None)
        run(cfg)
        assert (tmp_path / "env_out" / "summary.csv").exists()

    def test_config_output_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NULLPRIOR_OUT", str(tmp_path / "env_out"))
        run(cs_config(output=str(tmp_path / "cfg_out")))
        assert (tmp_path / "cfg_out" / "summary.csv").exists()
        assert not (tmp_path / "env_out").exists()

    def test_out_dir_beats_config_and_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NULLPRIOR_OUT", str(tmp_path / "env_out"))
        run(cs_config(output=str(tmp_path / "cfg_out")), out_dir=str(tmp_path / "arg_out"))
        assert (tmp_path / "arg_out" / "summary.csv").exists()
        assert not (tmp_path / "cfg_out").exists()
        assert not (tmp_path / "env_out").exists()

    def test_net_prior_run(self, tmp_path):
        cfg = cs_config(
            operator={"n": 30, "m": 8, "dist": "gaussian", "normalize": True},
            basis={"method": "qr", "p": 6},
            prior={"kind": "net", "hidden": 16, "epochs": 60,
                   "train_count": 60, "lambda1": 0.0, "lambda2": 0.0},
            solver={"kind": "pnp_fista", "alpha": "auto", "gamma": 0.3,
                    "iters": 40},
        )
        result = run(cfg, out_dir=str(tmp_path))
        assert np.isfinite(result["summary"]["holdout_error"])
        history = (tmp_path / "training_history.csv").read_text().splitlines()
        assert history[0] == "epoch,fit,invertibility,gram,holdout_error"

    def test_toy3d_rejected_by_run(self):
        with pytest.raises(ConfigError, match="toy3d"):
            run({"problem": "toy3d"}, out_dir="/tmp/never")

    def test_net_prior_run_reproducible(self, tmp_path):
        cfg = cs_config(
            operator={"n": 24, "m": 6, "dist": "gaussian", "normalize": True},
            basis={"method": "qr", "p": 5},
            prior={"kind": "net", "hidden": 12, "epochs": 40,
                   "train_count": 40},
            solver={"kind": "pnp_fista", "alpha": "auto", "gamma": 0.3,
                    "iters": 30},
        )
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run(dict(cfg), out_dir=str(d1))
        run(dict(cfg), out_dir=str(d2))
        for name in ("trace_npn.csv", "summary.csv", "training_history.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_ct_config_run(self, tmp_path):
        cfg = {
            "problem": "ct", "seed": 2,
            "operator": {"side": 12, "full_angles": 12, "acquired": 4},
            "signal": {"kind": "shepp_logan"},
            "basis": {"method": "radon"},
            "prior": {"kind": "oracle", "error": {"kind": "zero"}},
            "denoiser": {"kind": "gaussian", "sigma": 0.4},
            "solver": {"kind": "pnp_fista", "alpha": "auto", "gamma": 1.0,
                       "iters": 60, "restart": "fista-momentum"},
            "noise": {"snr_db": None},
        }
        result = run(cfg, out_dir=str(tmp_path))
        assert result["summary"]["improvement_db"] > 0

    def test_sr_config_run(self, tmp_path):
        cfg = {
            "problem": "sr", "seed": 2,
            "operator": {"shape": [16, 16], "factor": 4},
            "signal": {"kind": "bumps", "count": 5},
            "basis": {"method": "sr"},
            "prior": {"kind": "oracle", "error": {"kind": "zero"}},
            "denoiser": {"kind": "gaussian", "sigma": 0.4},
            "solver": {"kind": "pnp_fista", "alpha": "auto", "gamma": 0.5,
                       "iters": 60, "restart": "fista-momentum"},
            "noise": {"snr_db": None},
        }
        result = run(cfg, out_dir=str(tmp_path))
        assert result["summary"]["improvement_db"] > 0

    @pytest.mark.parametrize("solver_kind,extra", [
        ("red_fista", {"lam": 0.2}),
        ("pnp_admm", {"rho": 1.0, "alpha": 1.0}),
        ("fista_sparsity", {"lam": 0.001, "transform": "identity"}),
    ])
    def test_other_solver_kinds_through_config(self, tmp_path, solver_kind, extra):
        cfg = cs_config()
        cfg["solver"] = {"kind": solver_kind, "alpha": "auto", "gamma": 1.0,
                         "iters": 60, **extra}
        result = run(cfg, out_dir=str(tmp_path))
        assert result["summary"]["psnr_npn"] >= result["summary"]["psnr_baseline"]

    def test_mri_dft_stacked_rows_run(self, tmp_path):
        cfg = {
            "problem": "mri", "seed": 4,
            "operator": {"shape": [8, 8], "transform": "dft",
                         "mask": {"kind": "random", "count": 12}},
            "signal": {"kind": "bumps", "count": 4},
            "basis": {"method": "fourier"},
            "prior": {"kind": "oracle", "error": {"kind": "zero"}},
            "denoiser": {"kind": "identity"},
            "solver": {"kind": "pnp_fista", "alpha": "auto", "gamma": 1.0,
                       "iters": 80, "restart": "fista-momentum"},
            "noise": {"snr_db": None},
        }
        result = run(cfg, out_dir=str(tmp_path))
        # complete complement + exact prior: recovery to solver tolerance
        assert result["summary"]["err_npn"] < 1e-8
        assert result["summary"]["improvement_db"] > 3.0


class TestSweep:
    def test_gamma_zero_row_matches_fresh_baseline(self, tmp_path):
        cfg = cs_config()
        rows = sweep(cfg, "gamma", [0.0, 0.5], out_dir=str(tmp_path / "sw"))
        fresh = run(cs_config(), out_dir=str(tmp_path / "fresh"))
        base = fresh["summary"]["psnr_baseline"]
        assert rows[0]["psnr_npn"] == base  # bit-exact reduction at gamma=0
        assert rows[0]["psnr_baseline"] == base

    def test_partial_failure_recorded(self, tmp_path):
        cfg = cs_config()
        rows = sweep(cfg, "p", [4, 4000], out_dir=str(tmp_path))
        assert rows[0]["error"] == ""
        assert "Error" in rows[1]["error"] or "error" in rows[1]["error"]
        assert (tmp_path / "summary.csv").exists()

    def test_eps_sweep_monotone_psnr(self, tmp_path):
        cfg = cs_config()
        cfg["prior"] = {"kind": "oracle", "error": {"kind": "gaussian", "eps": 0.0}}
        rows = sweep(cfg, "eps", [1e-5, 1e-3, 1e-1], out_dir=str(tmp_path))
        psnrs = [r["psnr_npn"] for r in rows]
        assert psnrs[0] > psnrs[1] > psnrs[2]

    def test_apply_sweep_value_af(self):
        cfg = {"problem": "mri", "operator": {"shape": [8, 8], "transform": "dct",
                                              "mask": {"kind": "lowpass"}},
               "solver": {"kind": "pnp_fista"}}
        out = apply_sweep_value(cfg, "af", 4.0)
        assert out["operator"]["mask"]["count"] == 16

    def test_unknown_param(self, tmp_path):
        with pytest.raises(ConfigError):
            sweep(cs_config(), "epsilon", [1.0], out_dir=str(tmp_path))

    def test_sigma_blur_sweep(self, tmp_path):
        cfg = {
            "problem": "blur", "seed": 1,
            "operator": {"shape": [16, 16],
                         "kernel": {"kind": "gaussian", "sigma": 2.0,
                                    "radius": 4}},
            "signal": {"kind": "bumps", "count": 5},
            "basis": {"method": "toeplitz"},
            "prior": {"kind": "oracle", "error": {"kind": "zero"}},
            "denoiser": {"kind": "gaussian", "sigma": 0.3},
            "solver": {"kind": "pnp_fista", "alpha": "auto", "gamma": 0.5,
                       "iters": 60},
            "noise": {"snr_db": None},
        }
        rows = sweep(cfg, "sigma_blur", [1.0, 3.0], out_dir=str(tmp_path))
        assert all(r["error"] == "" for r in rows)
        assert all(r["improvement_db"] > 0 for r in rows)


class TestTheoryCheck:
    def test_pass_on_constructed_configuration(self):
        status, details = theory_check(theory_config())
        assert status == "pass"
        assert details["report"].rho < 1.0
        assert details["checks"]["contraction"] is True
        assert details["checks"]["penalty_bound"] is True

    def test_huge_error_empty_ciz_still_passes(self):
        cfg = theory_config(prior={"kind": "oracle",
                                   "error": {"kind": "lipschitz", "eps": 50.0,
                                             "K": 500.0}})
        status, details = theory_check(cfg)
        assert len(details["report"].ciz) == 0
        assert details["checks"]["ciz_nonempty"] is True
        assert status == "pass"

    def test_median_denoiser_inconclusive(self):
        cfg = theory_config(denoiser={"kind": "median", "window": 3},
                            solver={"kind": "pnp_fista", "alpha": 50.0,
                                    "gamma": 1.0, "iters": 25})
        status, details = theory_check(cfg)
        assert status == "inconclusive"
        assert details["report"].rho >= 1.0 or not details["report"].certified

    def test_requires_oracle_and_exact_basis(self):
        cfg = theory_config(prior={"kind": "net"})
        with pytest.raises(ConfigError):
            theory_check(cfg)
        cfg2 = cs_config()
        cfg2["basis"] = {"method": "qr", "p": 32}
        cfg2["problem"] = "blur"
        cfg2["operator"] = {"shape": [8, 8], "kernel": {"kind": "gaussian",
                                                        "sigma": 1.0, "radius": 2}}
        cfg2["basis"] = {"method": "toeplitz"}
        with pytest.raises(ConfigError):
            theory_check(cfg2)


class TestToy3d:
    def test_orderings_and_recovery(self):
        result = run_toy3d({"problem": "toy3d", "seed": 0,
                            "toy3d": {"epochs": 2500}})
        assert result["in_dist_rel_error"] < 0.2
        assert result["ood_subspace_error"] < result["ood_direct_error"]
        assert result["recon_err_npn"] < result["recon_err_baseline"]
        # in-distribution error strictly below out-of-distribution error
        assert result["in_dist_subspace_error"] < result["ood_subspace_error"]
        # stacked system is complete, so the exact prior pins the solution
        assert result["recon_err_oracle"] <= 1e-8


class TestPaperMirrorRun:
    def test_cs_quarter_scale_trace_has_ciz_column(self, tmp_path):
        # m/n = p/n = 0.1 at n = 256 with a small oracle error
        cfg = {
            "problem": "cs", "seed": 5,
            "operator": {"n": 256, "m": 26, "dist": "gaussian",
                         "normalize": True},
            "basis": {"method": "qr", "p": 26},
            "prior": {"kind": "oracle", "error": {"kind": "gaussian",
                                                  "eps": 1e-3}},
            "denoiser": {"kind": "dct_soft", "tau": 0.002},
            "solver": {"kind": "pnp_fista", "alpha": "auto", "gamma": 1.0,
                       "iters": 80},
            "noise": {"snr_db": None},
        }
        result = run(cfg, out_dir=str(tmp_path))
        text = (tmp_path / "trace_npn.csv").read_text().splitlines()
        assert text[0].endswith(",in_ciz")
        flags = {row.split(",")[-1] for row in text[1:]}
        assert "1" in flags  # a detected improvement zone is marked

    def test_blur_gamma_sweep_interior_maximum(self, tmp_path):
        cfg = {
            "problem": "blur", "seed": 11,
            "operator": {"shape": [16, 16],
                         "kernel": {"kind": "gaussian", "sigma": 2.0,
                                    "radius": 5}},
            "signal": {"kind": "bumps", "count": 5},
            "basis": {"method": "toeplitz"},
            "prior": {"kind": "oracle", "error": {"kind": "gaussian",
                                                  "eps": 2e-3}},
            "denoiser": {"kind": "gaussian", "sigma": 0.4},
            "solver": {"kind": "pnp_fista", "alpha": "auto", "gamma": 1.0,
                       "iters": 120, "restart": "fista-momentum"},
            "noise": {"snr_db": 15.0},
        }
        grid = [0.01, 0.1, 1.0, 3.0, 30.0]
        rows = sweep(cfg, "gamma", grid, out_dir=str(tmp_path))
        psnrs = [r["psnr_npn"] for r in rows]
        best = int(np.argmax(psnrs))
        assert 0 < best < len(grid) - 1  # interior maximum


class TestCli:
    def _write(self, tmp_path, cfg):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(cfg))
        return str(path)

    def test_run_exit_zero(self, tmp_path, capsys):
        path = self._write(tmp_path, cs_config())
        code = cli_main(["run", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 0
        assert "improvement" in capsys.readouterr().out

    def test_config_error_exit_three(self, tmp_path, capsys):
        path = self._write(tmp_path, {"problem": "nope"})
        assert cli_main(["run", "--config", path, "--out", str(tmp_path)]) == 3

    def test_theory_check_exit_codes(self, tmp_path, capsys):
        path = self._write(tmp_path, theory_config())
        assert cli_main(["theory-check", "--config", path,
                         "--out", str(tmp_path / "t")]) == 0
        bad = theory_config(denoiser={"kind": "median", "window": 3})
        path2 = self._write(tmp_path, bad)
        assert cli_main(["theory-check", "--config", path2,
                         "--out", str(tmp_path / "t2")]) == 2

    def test_sweep_cli(self, tmp_path, capsys):
        path = self._write(tmp_path, cs_config())
        code = cli_main(["sweep", "--config", path, "--param", "gamma",
                         "--grid", "0,1", "--out", str(tmp_path / "sw")])
        assert code == 0
        assert (tmp_path / "sw" / "summary.csv").exists()

    def test_inspect_basis(self, tmp_path, capsys):
        import numpy as np

        from nullprior.nullspace import qr_nullspace, save_basis

        rng = np.random.default_rng(0)
        H = rng.standard_normal((3, 9))
        basis = qr_nullspace(H, p=4, seed=1)
        bpath = tmp_path / "basis.csv"
        save_basis(basis, bpath)
        hpath = tmp_path / "H.csv"
        np.savetxt(hpath, H, delimiter=",")
        code = cli_main(["inspect-basis", "--file", str(bpath),
                         "--samples", "10", "--dense-h", str(hpath)])
        assert code == 0
        out = capsys.readouterr().out
        assert "qr-random" in out and "rank of [H; S]: 7" in out

    def test_toy3d_cli(self, tmp_path, capsys):
        cfg = {"problem": "toy3d", "seed": 0, "toy3d": {"epochs": 2000}}
        path = self._write(tmp_path, cfg)
        code = cli_main(["toy3d", "--config", path, "--out", str(tmp_path / "toy")])
        assert code == 0
        assert (tmp_path / "toy" / "toy_summary.csv").exists()
