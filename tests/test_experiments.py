"""Experiment runner: config validation, run artifacts, sweeps, theory checks, CLI."""

import gc
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from nullprior import diagnostics, experiments, nullspace
from nullprior.cli import main as cli_main
from nullprior.denoisers import denoise, estimate_delta
from nullprior.diagnostics import CloudConstants
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
from nullprior.operators import MaskedFrequencyOperator, RadonOperator
from nullprior.solvers import SolverConfig, default_alpha

from references import iterate_cloud_pairs


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


# a small operator section for each problem
OPERATORS = {
    "cs": {"n": 40, "m": 8, "dist": "gaussian", "normalize": True},
    "mri": {"shape": [8, 8], "transform": "dct", "mask": {"kind": "lowpass", "count": 16}},
    "blur": {"shape": [8, 8], "kernel": {"kind": "gaussian", "sigma": 1.0, "radius": 2}},
    "sr": {"shape": [8, 8], "factor": 2},
    "ct": {"side": 8, "full_angles": 12, "acquired": 4},
}
FITTING_METHOD = {"cs": "qr", "mri": "fourier", "blur": "toeplitz", "sr": "sr", "ct": "radon"}


def problem_config(problem, method, **overrides):
    basis = {"method": method, "p": 4} if method == "qr" else {"method": method}
    return cs_config(problem=problem, operator=OPERATORS[problem], basis=basis,
                     signal=None if problem == "cs" else {"kind": "bumps", "count": 3},
                     **overrides)


def _replace(cfg, **sections):
    """cfg with some sections replaced; a section given as None is removed."""
    cfg = dict(cfg, **sections)
    return {key: value for key, value in cfg.items() if value is not None}


MRI_OPERATOR = theory_config()["operator"]
BLUR = problem_config("blur", "toeplitz")
CT = problem_config("ct", "radon")

# one mistake per case: an unknown key, kind or value, or a missing required
# key; TestValidation and test_config_error_exit_three cover the top level and
# the prior, basis and denoiser sections
CONFIG_MISTAKES = {
    "top-missing-solver": _replace(theory_config(), solver=None),
    "top-null-operator": theory_config(operator=None),
    "signal-unknown-key": theory_config(signal={"kind": "bumps", "count": 4, "foo": 1}),
    "signal-unknown-kind": theory_config(signal={"kind": "spiral"}),
    "signal-missing-segments": theory_config(signal={"kind": "piecewise"}),
    "error-unknown-key": theory_config(prior={"kind": "oracle",
                                              "error": {"kind": "zero", "eps": 5.0}}),
    "error-unknown-kind": theory_config(prior={"kind": "oracle", "error": {"kind": "laplace"}}),
    "error-missing-eps": theory_config(prior={"kind": "oracle", "error": {"kind": "gaussian"}}),
    # a negative eps ran as a sign-flipped error; a negative K failed only once built
    "error-gaussian-eps-negative": cs_config(prior={"kind": "oracle",
                                                    "error": {"kind": "gaussian", "eps": -1}}),
    "error-lipschitz-eps-negative": cs_config(prior={"kind": "oracle", "error": {
        "kind": "lipschitz", "eps": -1}}),
    "error-lipschitz-K-negative": cs_config(prior={"kind": "oracle", "error": {
        "kind": "lipschitz", "eps": 0.1, "K": -1}}),
    "solver-unknown-kind": theory_config(solver={"kind": "newton"}),
    "solver-unknown-momentum": theory_config(solver={"kind": "pnp_fista", "momentum": "nesterov"}),
    "solver-unknown-restart": theory_config(solver={"kind": "pnp_fista", "restart": "often"}),
    "noise-unknown-key": theory_config(noise={"snr": 20.0}),
    "operator-unknown-key": theory_config(operator=dict(MRI_OPERATOR, foo=1)),
    "operator-missing-mask": theory_config(operator={"shape": [8, 8]}),
    "mask-unknown-key": theory_config(operator=dict(
        MRI_OPERATOR, mask={"kind": "lowpass", "count": 16, "foo": 1})),
    "mask-unknown-kind": theory_config(operator=dict(
        MRI_OPERATOR, mask={"kind": "spiral", "count": 16})),
    "mask-missing-count": theory_config(operator=dict(MRI_OPERATOR, mask={"kind": "lowpass"})),
    "kernel-unknown-key": _replace(BLUR, operator=dict(
        BLUR["operator"], kernel={"kind": "gaussian", "sigma": 1.0, "foo": 1})),
    "kernel-unknown-kind": _replace(BLUR, operator=dict(BLUR["operator"], kernel={"kind": "box"})),
    "kernel-missing-sigma": _replace(BLUR, operator=dict(BLUR["operator"],
                                                         kernel={"kind": "gaussian"})),
    "cs-operator-unknown-dist": cs_config(operator={"n": 40, "m": 8, "dist": "cauchy"}),
    "cs-operator-missing-m": cs_config(operator={"n": 40}),
    "cs-operator-null-m": cs_config(operator={"n": 40, "m": None}),
    "mask-unknown-key-typo": theory_config(operator=dict(
        MRI_OPERATOR, mask={"kind": "random", "count": 16, "sed": 3})),
    "mask-lowpass-unknown-seed": theory_config(operator=dict(
        MRI_OPERATOR, mask={"kind": "lowpass", "count": 16, "seed": 3})),
    # a mask count outside [1, n] (dct) or [1, representatives] (dft: 34 at 8x8)
    "mask-random-count-above-pool": theory_config(operator=dict(
        MRI_OPERATOR, mask={"kind": "random", "count": 65})),
    "mask-random-count-zero": theory_config(operator=dict(
        MRI_OPERATOR, mask={"kind": "random", "count": 0})),
    "mask-lowpass-count-above-pool": theory_config(operator=dict(
        MRI_OPERATOR, mask={"kind": "lowpass", "count": 65})),
    "mask-dft-count-above-pool": theory_config(operator=dict(
        MRI_OPERATOR, transform="dft", mask={"kind": "lowpass", "count": 35})),
    "kernel-bilinear-unknown-key": _replace(problem_config("sr", "sr"), operator=dict(
        OPERATORS["sr"], kernel={"kind": "bilinear", "factor": 3, "junk": 7})),
    "kernel-blur-bilinear-missing-factor": _replace(BLUR, operator=dict(
        BLUR["operator"], kernel={"kind": "bilinear"})),
    "ct-operator-unknown-key": _replace(CT, operator=dict(CT["operator"], foo=1)),
    "ct-operator-missing-acquired": _replace(CT, operator={"side": 8, "full_angles": 12}),
    # values the operator or solver would reject only once it is built
    "mri-operator-unknown-transform": theory_config(operator=dict(MRI_OPERATOR,
                                                                  transform="fft")),
    "blur-operator-unknown-anchor": _replace(BLUR, operator=dict(BLUR["operator"],
                                                                 anchor="corner")),
    "sr-operator-unknown-anchor": _replace(problem_config("sr", "sr"), operator=dict(
        OPERATORS["sr"], anchor="corner")),
    "sparsity-solver-unknown-transform": theory_config(
        solver={"kind": "fista_sparsity", "transform": "wavelet"}),
    "solver-iters-zero": theory_config(solver={"kind": "pnp_fista", "iters": 0}),
    "solver-alpha-negative": theory_config(solver={"kind": "pnp_fista", "alpha": -1}),
    "solver-alpha-not-a-number": theory_config(solver={"kind": "pnp_fista", "alpha": "fast"}),
    "prior-unknown-activation": cs_config(prior={"kind": "net", "activation": "softplus"}),
    "prior-epochs-zero": cs_config(prior={"kind": "net", "lambda2": 0.1, "epochs": 0}),
    # a negative penalty weight trained as 0 (lambda1 alone) or failed late
    "prior-lambda1-negative": cs_config(prior={"kind": "net", "lambda1": -0.1}),
    "prior-lambda2-negative": cs_config(prior={"kind": "net", "lambda1": 0.1,
                                               "lambda2": -0.1}),
    # a holdout of the whole set left training nothing and diverged to nan
    "prior-holdout-whole-set": cs_config(prior={"kind": "net", "holdout": 1.0}),
    "prior-holdout-rounds-to-whole-set": cs_config(prior={"kind": "net", "holdout": 0.99,
                                                          "train_count": 20}),
    "prior-holdout-negative": cs_config(prior={"kind": "net", "holdout": -0.2}),
    # out-of-range values a builder read silently, or failed on only once built
    "prior-lr-negative": cs_config(prior={"kind": "net", "lr": -1}),
    "prior-hidden-zero": cs_config(prior={"kind": "net", "hidden": 0}),
    "prior-noise-std-negative": cs_config(prior={"kind": "net", "noise_std": -1}),
    "prior-batch-zero": cs_config(prior={"kind": "net", "batch": 0}),
    "prior-batch-negative": cs_config(prior={"kind": "net", "batch": -3}),
    "solver-admm-rho-negative": theory_config(solver={"kind": "pnp_admm", "rho": -1}),
    "solver-admm-cg-tol-negative": theory_config(solver={"kind": "pnp_admm", "cg_tol": -1}),
    "solver-admm-cg-maxiter-zero": theory_config(solver={"kind": "pnp_admm", "cg_maxiter": 0}),
    "solver-admm-peak-negative": theory_config(solver={"kind": "pnp_admm", "peak": -1}),
    "solver-red-lam-negative": theory_config(solver={"kind": "red_fista", "lam": -1}),
    "denoiser-median-window-zero": theory_config(denoiser={"kind": "median", "window": 0}),
    "denoiser-tv-weight-zero": theory_config(denoiser={"kind": "tv", "weight": 0}),
    "denoiser-tv-iters-zero": theory_config(denoiser={"kind": "tv", "iters": 0}),
    "denoiser-gaussian-sigma-negative": theory_config(denoiser={"kind": "gaussian",
                                                                "sigma": -1}),
    "denoiser-dct-soft-tau-negative": theory_config(denoiser={"kind": "dct_soft", "tau": -1}),
    "prior-train-count-zero": cs_config(prior={"kind": "net", "train_count": 0}),
    # dense matrices of n columns past the cap: refused before the operator is built
    "basis-radon-past-cap": _replace(CT, operator={"side": 65, "full_angles": 12,
                                                   "acquired": 4}),
    "basis-qr-past-cap": cs_config(operator={"n": 4097, "m": 8}),
    "prior-joint-training-past-cap": theory_config(
        operator=dict(MRI_OPERATOR, shape=[65, 65]), prior={"kind": "net", "lambda1": 0.1}),
    "toy3d-unknown-key": {"problem": "toy3d", "toy3d": {"epochs": 10, "foo": 1}},
    "toy3d-unknown-section": {"problem": "toy3d", "noise": {"snr_db": 20.0}},
}

# the keys of each solver kind: the SolverConfig fields it reads, and
# fista_sparsity's transform; pnp_admm reads alpha only in the theory report
_FISTA = {"alpha", "gamma", "iters", "momentum", "restart", "peak"}
SOLVER_KEYS = {"pnp_fista": _FISTA, "red_fista": _FISTA | {"lam"},
               "fista_sparsity": _FISTA | {"lam", "transform"},
               "pnp_admm": {"alpha", "gamma", "iters", "rho", "cg_tol", "cg_maxiter", "peak"}}
# a valid value other than the default for every solver key (cg_tol as the
# string PyYAML makes of 1e-6)
SOLVER_VALUES = {"alpha": 0.2, "gamma": 0.5, "iters": 7, "momentum": "none",
                 "restart": "fista-momentum", "peak": 2.0, "lam": 0.01, "rho": 3.0,
                 "cg_tol": "1e-6", "cg_maxiter": 50, "transform": "identity"}
UNREAD_SOLVER_KEYS = [(kind, key) for kind in sorted(SOLVER_KEYS)
                      for key in sorted(set(SOLVER_VALUES) - SOLVER_KEYS[kind])]
CONFIG_MISTAKES.update({
    f"solver-{kind}-unread-{key}": theory_config(solver={"kind": kind, key: SOLVER_VALUES[key]})
    for kind, key in UNREAD_SOLVER_KEYS})


class TestValidation:
    def test_readme_config_schema_example_builds(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Config schema", 1)[1]
        example = yaml.safe_load(section.split("```yaml\n", 1)[1].split("```", 1)[0])
        assert validate_config(example) is example
        pb = build_problem(example)
        assert pb["op"].shape_in == tuple(example["operator"]["shape"])
        assert pb["basis"].p == pb["op"].n - pb["op"].m_eff

    def test_defaults_fill_every_key_of_the_kind(self):
        assert experiments.resolve("signal", None, "sparse") == {"kind": "sparse", "n": None,
                                                                 "k": 8}
        solver = experiments.resolve("solver", {"gamma": 0.5})
        assert solver["kind"] == "pnp_fista" and solver["alpha"] == "auto"
        assert solver["gamma"] == 0.5 and solver["momentum"] == "fista"
        assert experiments.resolve("solver", {"kind": "pnp_admm"})["cg_tol"] == 1e-8

    @pytest.mark.parametrize("kind", sorted(SOLVER_KEYS))
    def test_solver_section_holds_the_keys_of_its_kind(self, kind):
        assert set(experiments.resolve("solver", {"kind": kind})) == SOLVER_KEYS[kind] | {"kind"}

    @pytest.mark.parametrize("kind,key", UNREAD_SOLVER_KEYS)
    def test_solver_key_the_kind_never_reads(self, kind, key):
        with pytest.raises(ConfigError, match=rf"for kind '{kind}': \['{key}'\]"):
            validate_config(theory_config(solver={"kind": kind, key: SOLVER_VALUES[key]}))

    @pytest.mark.parametrize("given", ["defaults", "every key"])
    @pytest.mark.parametrize("kind", sorted(SOLVER_KEYS))
    def test_build_solver_fills_only_the_keys_of_its_kind(self, kind, given):
        # the fields a kind does not read keep SolverConfig's defaults, as
        # they did when every kind took all of them
        pb = build_problem(cs_config())
        values = {} if given == "defaults" else {key: SOLVER_VALUES[key]
                                                 for key in SOLVER_KEYS[kind]}
        section = experiments.resolve("solver", {"kind": kind, **values})
        built = experiments._build_solver(section, pb["op"], pb["basis"], pb["x_star"])
        # an auto step is resolved only for a kind that steps by it; pnp_admm
        # leaves it None for the theory report
        alpha = values.get("alpha") or (default_alpha(pb["op"], pb["basis"],
                                                     gamma=values.get("gamma", 0.0))
                                        if kind in experiments._STEPPED_KINDS else None)
        fields = {key: float(value) if key == "cg_tol" else value
                  for key, value in values.items() if key not in ("alpha", "transform")}
        expected = SolverConfig(alpha=alpha, x_star=pb["x_star"], **fields)

        def typed(config):
            return {key: (type(value), value) for key, value in vars(config).items()
                    if key != "x_star"}

        assert typed(built["solver_config"]) == typed(expected)
        np.testing.assert_array_equal(built["solver_config"].x_star, pb["x_star"])
        assert built["solver_kind"] == kind
        assert built["transform"] == (values.get("transform", "dct")
                                      if kind == "fista_sparsity" else None)

    @pytest.mark.parametrize("problem,key", [("cs", "scale"), ("sr", "kernel")])
    def test_null_takes_the_default(self, problem, key):
        cfg = problem_config(problem, FITTING_METHOD[problem])
        omitted = build_problem(cfg)
        cfg["operator"] = dict(cfg["operator"], **{key: None})
        nulled = build_problem(cfg)
        np.testing.assert_array_equal(nulled["op"].to_dense(), omitted["op"].to_dense())
        np.testing.assert_array_equal(nulled["y"], omitted["y"])

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

    @pytest.mark.parametrize("case", ["basis-radon-past-cap", "basis-qr-past-cap",
                                      "prior-joint-training-past-cap"])
    def test_dense_cap_checked_before_any_build(self, case, tmp_path, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("the operator was built")

        monkeypatch.setattr(experiments, "make_operator", built)
        with pytest.raises(ConfigError, match="needs n <= 4096, not n = 4"):
            run(CONFIG_MISTAKES[case], out_dir=str(tmp_path))
        # one size smaller is at the cap, and the config is valid
        at_cap = dict(CONFIG_MISTAKES[case])
        at_cap["operator"] = {key: {"side": 64, "n": 4096, "shape": [64, 64]}.get(key, value)
                              for key, value in at_cap["operator"].items()}
        validate_config(at_cap)

    @pytest.mark.parametrize("problem", sorted(OPERATORS))
    def test_basis_method_must_fit_problem(self, problem):
        for method in ("qr", "fourier", "toeplitz", "sr", "radon"):
            cfg = problem_config(problem, method)
            if method in ("qr", FITTING_METHOD[problem]):
                assert validate_config(cfg) is cfg
            else:
                with pytest.raises(ConfigError, match="does not fit"):
                    validate_config(cfg)

    @pytest.mark.parametrize("problem", sorted(OPERATORS))
    def test_fitting_basis_builds_from_the_operator(self, problem):
        pb = build_problem(problem_config(problem, FITTING_METHOD[problem]))
        assert pb["basis"].n == pb["op"].n
        assert "op_info" not in pb

    @pytest.mark.parametrize("section,value,key", [
        ("denoiser", {"kind": "gaussian", "sigma": 0.4, "window": 7}, "window"),
        ("denoiser", {"window": 7}, "window"),  # the default kind is identity
        ("denoiser", {"kind": "tv", "sigma": 0.4}, "sigma"),
        ("basis", {"method": "fourier", "p": 5}, "p"),
        ("basis", {"p": 5}, "p"),  # the default method of mri is fourier
        ("prior", {"kind": "net", "error": {"kind": "zero"}}, "error"),
        ("prior", {"kind": "oracle", "hidden": 8}, "hidden"),
        ("prior", {"hidden": 8}, "hidden"),  # the default kind is oracle
    ])
    def test_keys_the_kind_never_reads(self, section, value, key):
        with pytest.raises(ConfigError, match=key):
            validate_config(theory_config(**{section: value}))

    def test_unknown_kinds(self):
        for section, value in [("denoiser", {"kind": "bm3d"}), ("basis", {"method": "pca"}),
                               ("prior", {"kind": "gan"})]:
            with pytest.raises(ConfigError, match="unknown"):
                validate_config(theory_config(**{section: value}))

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

    @pytest.mark.parametrize("denoiser", [{"kind": "median", "window": 3},
                                          {"kind": "tv", "weight": 0.05, "iters": 10}])
    def test_theory_delta_denoises_each_point_once(self, denoiser, tmp_path,
                                                   run_iterates):
        cfg = theory_config(denoiser=denoiser)
        result = run(cfg, out_dir=str(tmp_path))
        pb = build_problem(cfg)
        shape = pb["op"].shape_in
        assert len(run_iterates) == cfg["solver"]["iters"] + 1
        pairs = iterate_cloud_pairs(run_iterates, pb["x_star"])
        reference = estimate_delta(pb["denoiser"], [(a.reshape(shape), b.reshape(shape))
                                                    for a, b in pairs])
        assert result["theory"].delta_hat == reference
        # the observer denoises each iterate once, and x* once for the
        # fixed-point check and delta
        calls = []

        def counted(x):
            calls.append(1)
            return pb["denoiser"](x)

        cloud = CloudConstants(pb["op"], pb["basis"], 1.0, counted, pb["x_star"],
                               denoise(counted, pb["x_star"], shape))
        for x in run_iterates:
            cloud(x)
        assert cloud.delta_hat == reference
        assert len(calls) == len(run_iterates) + 1

    def test_observed_solve_transforms_each_error_once(self, monkeypatch, run_iterates):
        # a masked DCT with its Fourier complement: [H; S] is one transform;
        # H'H + gamma S'S = 0.01 I, so the iterates reach x* to float resolution
        pb = build_problem(theory_config(basis={"method": "fourier"},
                                         solver={"kind": "pnp_fista", "alpha": 50.0,
                                                 "gamma": 0.01, "iters": 80}))
        assert pb["basis"].pair(pb["op"])._shared is not None
        counts = {"_spectrum": 0, "_inverse": 0}
        for name in counts:
            def spy(self, *args, _name=name, _transform=getattr(MaskedFrequencyOperator, name)):
                counts[_name] += 1
                return _transform(self, *args)

            monkeypatch.setattr(MaskedFrequencyOperator, name, spy)
        # per iteration H x and S x from one transform and the gradient from
        # one inverse; G(y) = S x* once; S (x - x*) once per row for the trace
        _, trace = experiments._solve(pb, replace(pb["solver_config"], gamma=0.0))
        iters = len(trace.iters) - 1
        assert counts == {"_spectrum": iters + 1 + (iters + 1), "_inverse": iters}
        # the observer takes H (x - x*) and S (x - x*) from the trace's one
        # transform, and transforms only the steps above the resolution floor
        counts.update(_spectrum=0, _inverse=0)
        _, trace, _ = experiments._penalized_solve(pb)
        iters = len(trace.iters) - 1
        assert len(run_iterates) == iters + 1
        steps = sum(np.sqrt(trace.step_sq[i]) > diagnostics.resolution_floor(
            np.linalg.norm(a), np.linalg.norm(b))
            for i, (a, b) in enumerate(zip(run_iterates[:-1], run_iterates[1:])))
        assert 0 < steps < iters
        assert counts == {"_spectrum": iters + 1 + (iters + 1) + steps, "_inverse": iters}

    def test_mri_64_run_memory(self, tmp_path):
        # 64x64 MRI, 1024 of 4096 DCT coefficients kept, 120 iterations: one
        # stored iterate takes 32 kB, and keeping 121 per solve took 8 MB
        cfg = {"problem": "mri", "seed": 4, "signal": {"kind": "bumps", "count": 5},
               "operator": {"shape": [64, 64], "transform": "dct",
                            "mask": {"kind": "lowpass", "count": 1024}},
               "basis": {"method": "fourier"},
               "prior": {"kind": "oracle", "error": {"kind": "gaussian", "eps": 1e-3}},
               "denoiser": {"kind": "gaussian", "sigma": 0.4},
               "solver": {"kind": "pnp_fista", "alpha": "auto", "gamma": 1.0,
                          "iters": 120},
               "noise": {"snr_db": 20.0}}
        run(cfg, out_dir=str(tmp_path / "warm"))  # first-call caches and imports
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            run(cfg, out_dir=str(tmp_path / "measured"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # build (the complement's probe blocks) plus both solves and the report
        assert peak - start < 4e6

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

    def test_net_prior_theory_states_no_k(self, tmp_path):
        # a trained prior declares no Lipschitz constant: K and the C1 that
        # read it are unknown, C2 does not read K
        run(NET_BLUR, out_dir=str(tmp_path))
        lines = (tmp_path / "theory.txt").read_text().splitlines()
        report = dict(line.split(" = ", 1) for line in lines if not line.startswith("note"))
        assert [report[k] for k in ("K", "C1", "C1_statement_variant")] == ["nan"] * 3
        assert np.isfinite(float(report["C2"]))
        assert np.isfinite(float(report["C2_statement_variant"]))
        assert report["certified"] == "False"
        assert "note = no declared Lipschitz constant for a trained prior" in lines

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

    @pytest.mark.parametrize("problem", ["blur", "sr", "mri"])
    def test_128x128_run_writes_theory_past_dense_cap(self, tmp_path, problem):
        # n = 16384: the theory report takes its norms from the pair's spectrum
        operator = {
            "blur": {"shape": [128, 128], "kernel": {"kind": "gaussian", "sigma": 1.5}},
            "sr": {"shape": [128, 128], "factor": 2},
            "mri": {"shape": [128, 128], "transform": "dct",
                    "mask": {"kind": "lowpass", "count": 4096}},
        }[problem]
        cfg = {
            "problem": problem, "seed": 4, "operator": operator,
            "signal": {"kind": "bumps", "count": 5},
            "basis": {"method": {"blur": "toeplitz", "sr": "sr", "mri": "fourier"}[problem]},
            "prior": {"kind": "oracle", "error": {"kind": "gaussian", "eps": 1e-3}},
            "denoiser": {"kind": "gaussian", "sigma": 0.4},
            "solver": {"kind": "pnp_fista", "alpha": "auto", "gamma": 0.1, "iters": 20},
            "noise": {"snr_db": 20.0},
        }
        result = run(cfg, out_dir=str(tmp_path))
        assert (tmp_path / "theory.txt").is_file()
        assert np.isfinite(result["summary"]["rho"])
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


def _files(directory):
    """Every file of a run directory, by name, as bytes."""
    return {path.name: path.read_bytes() for path in Path(directory).iterdir()}


NET_BLUR = {
    "problem": "blur", "seed": 1,
    "operator": {"shape": [16, 16], "kernel": {"kind": "gaussian", "sigma": 1.5}},
    "signal": {"kind": "bumps", "count": 4},
    "prior": {"kind": "net", "hidden": 8, "epochs": 20, "train_count": 24, "batch": 8},
    "denoiser": {"kind": "gaussian", "sigma": 0.4},
    "solver": {"kind": "pnp_fista", "gamma": 0.1, "iters": 15},
    "noise": {"snr_db": 20.0},
}
ADMM_CT = _replace(CT, prior={"kind": "oracle", "error": {"kind": "gaussian", "eps": 1e-3}},
                   denoiser={"kind": "tv", "weight": 0.05, "iters": 5},
                   solver={"kind": "pnp_admm", "gamma": 1.0, "iters": 10},
                   noise={"snr_db": 20.0})
# (param, grid, config) of a sweep over each parameter
SWEEP_CASES = {
    "gamma-net": ("gamma", [0.1, 1.0], NET_BLUR),
    # every point takes the first's baseline
    "gamma-admm": ("gamma", [0.3, 3.0], ADMM_CT),
    # lambda_max(H'H) = 2.02: the second point takes the first's baseline,
    # whose step the third's no longer is
    "gamma-fista-step": ("gamma", [0.3, 1.0, 30.0], cs_config()),
    "eps": ("eps", [1e-3, 1e-1], cs_config()),
    "p": ("p", [4, 12], cs_config()),
    "af": ("af", [2.0, 4.0], theory_config(operator=dict(
        MRI_OPERATOR, transform="dft", mask={"kind": "random", "count": 8}))),
    "sigma_blur": ("sigma_blur", [1.0, 2.0], _replace(BLUR, noise={"snr_db": 20.0})),
}


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
        rows = sweep(cfg, "p", [4, 4000, 6], out_dir=str(tmp_path))
        assert rows[0]["error"] == ""
        assert "Error" in rows[1]["error"] or "error" in rows[1]["error"]
        assert (tmp_path / "summary.csv").exists()
        # the point after the failed one still builds, as a standalone run would
        assert rows[2]["error"] == ""
        run(apply_sweep_value(cfg, "p", 6), out_dir=str(tmp_path / "alone"))
        assert _files(tmp_path / "point_002") == _files(tmp_path / "alone")

    def test_failed_point_leaves_its_finished_stages(self, tmp_path, monkeypatch):
        # p = 4000 fails in the basis stage, after the operator, signal and
        # measurement stages it shares; the p = 6 point takes them from it
        calls = []
        real = experiments.make_operator

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "make_operator", spy)
        rows = sweep(cs_config(), "p", [4, 4000, 6], out_dir=str(tmp_path))
        assert [row["error"] == "" for row in rows] == [True, False, True]
        assert len(calls) == 1

    @pytest.mark.parametrize("param,grid,cfg", SWEEP_CASES.values(), ids=list(SWEEP_CASES))
    def test_points_match_standalone_runs(self, param, grid, cfg, tmp_path):
        sweep(cfg, param, grid, out_dir=str(tmp_path / "sw"), seed=5)
        for i, value in enumerate(grid):
            alone = tmp_path / f"alone_{i}"
            run(apply_sweep_value(cfg, param, value), out_dir=str(alone), seed=5)
            assert _files(tmp_path / "sw" / f"point_{i:03d}") == _files(alone)

    # `_solve` runs a point's penalized solve and, unless the point takes the
    # last one's, its baseline: pnp_admm never reads its step, and the cs
    # config's auto step moves once gamma passes lambda_max(H'H) = 2.02
    @pytest.mark.parametrize("param,grid,cfg,builder,builds", [
        ("gamma", [0.03, 0.1, 0.3], NET_BLUR, "train_mmse", 1),
        ("p", [4, 8, 12], cs_config(), "make_operator", 1),
        ("eps", [1e-3, 1e-2, 1e-1], cs_config(), "qr_nullspace", 1),
        ("gamma", [0.3, 1.0, 3.0], ADMM_CT, "_solve", 3 + 1),
        ("gamma", [0.3, 1.0, 3.0], cs_config(), "_solve", 3 + 2),
    ], ids=["gamma-trains-once", "p-one-operator", "eps-one-basis",
            "gamma-admm-one-baseline", "gamma-fista-baseline-per-step"])
    def test_points_rebuild_from_the_stage_they_change(self, param, grid, cfg, builder,
                                                       builds, tmp_path, monkeypatch):
        calls = []
        real = getattr(experiments, builder)

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, builder, spy)
        rows = sweep(cfg, param, grid, out_dir=str(tmp_path))
        assert [row["error"] for row in rows] == [""] * len(grid)
        assert len(calls) == builds

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

    @pytest.mark.parametrize("shape,af", [([8, 8], 4.0), ([16, 16], 2.0), ([9, 12], 8.0)])
    def test_apply_sweep_value_af_dft_keeps_n_over_af_measurements(self, shape, af):
        # a DFT mask counts conjugate-pair representatives, each about two rows
        cfg = {"problem": "mri", "operator": {"shape": shape, "transform": "dft",
                                              "mask": {"kind": "lowpass", "count": 1}}}
        op = experiments.make_operator("mri", apply_sweep_value(cfg, "af", af)["operator"])
        assert abs(op.m_eff - op.n / af) <= 2

    def test_every_point_checked_before_any_runs(self, tmp_path):
        with pytest.raises(ConfigError, match="gamma"):
            sweep(cs_config(), "gamma", [0.5, -1.0], out_dir=str(tmp_path / "sw"))
        assert not list(tmp_path.glob("sw/point_*"))

    def test_unknown_param(self, tmp_path):
        with pytest.raises(ConfigError):
            sweep(cs_config(), "epsilon", [1.0], out_dir=str(tmp_path))

    def test_unknown_solver_transform_stops_before_any_point(self, tmp_path):
        cfg = theory_config(solver={"kind": "fista_sparsity", "transform": "wavelet"})
        with pytest.raises(ConfigError, match="wavelet"):
            sweep(cfg, "gamma", [0.5, 1.0], out_dir=str(tmp_path / "sw"))
        assert not list(tmp_path.glob("sw/point_*"))

    def test_finished_point_freed_before_next_runs(self, tmp_path, monkeypatch):
        # a sweep keeps each point's summary row and the last baseline solve
        # only: a point's penalized trace and theory report (and what they
        # could reach) are garbage before the next point starts, and so is
        # every baseline trace but the last; the grid solves three
        # baselines, the second point taking the first's (steps 0.45, 0.45,
        # 0.3, 0.03)
        finished, baselines = [], []
        alive_at_start = []

        def tracked_run(*args, **kwargs):
            gc.collect()
            alive_at_start.append(([ref() is not None for ref in finished],
                                   len({id(ref()) for ref in baselines if ref() is not None})))
            result = run(*args, **kwargs)
            finished.extend(weakref.ref(result[key]) for key in ("trace_npn", "theory"))
            baselines.append(weakref.ref(result["trace_baseline"]))
            return result

        monkeypatch.setattr(experiments, "run", tracked_run)
        rows = sweep(cs_config(), "gamma", [0.3, 1.0, 3.0, 30.0], out_dir=str(tmp_path))
        assert [row["error"] for row in rows] == [""] * 4
        assert alive_at_start == [([], 0), ([False] * 2, 1), ([False] * 4, 1), ([False] * 6, 1)]

    @pytest.mark.parametrize("kind", sorted(experiments._SOLVERS))
    def test_only_stepped_kinds_read_alpha(self, kind):
        # the baseline key leaves alpha out for the other kinds, so a kind
        # that starts reading it must join _STEPPED_KINDS
        lam = {"lam": 0.01} if "lam" in SOLVER_KEYS[kind] else {}
        pb = build_problem(cs_config(solver={"kind": kind, "gamma": 0.5, "iters": 10, **lam}))
        solves = [experiments._solve(pb, replace(pb["solver_config"], alpha=alpha))
                  for alpha in (0.2, 0.3)]
        (x_a, trace_a), (x_b, trace_b) = solves
        same = all(np.array_equal(a, b) for a, b in [
            (x_a, x_b), (trace_a.err_sq, trace_b.err_sq), (trace_a.phi, trace_b.phi),
            (trace_a.data_res_sq, trace_b.data_res_sq)])
        assert same == (kind not in experiments._STEPPED_KINDS)

    def test_unshared_stage_freed_before_it_is_rebuilt(self, tmp_path, monkeypatch):
        # a p sweep rebuilds the basis, and the last point's is garbage by then
        bases, alive = [], []
        real = experiments.qr_nullspace

        def tracked(*args, **kwargs):
            gc.collect()
            alive.append([ref() is not None for ref in bases])
            bases.append(weakref.ref(basis := real(*args, **kwargs)))
            return basis

        monkeypatch.setattr(experiments, "qr_nullspace", tracked)
        rows = sweep(cs_config(), "p", [4, 8, 12], out_dir=str(tmp_path))
        assert [row["error"] for row in rows] == ["", "", ""]
        assert alive == [[], [False], [False, False]]

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


BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"


def _counting(monkeypatch, module, name):
    """Calls of module.name, counted into the returned list."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


class TestMeasuredOnFirstRead:
    def test_ct_build_and_sweep_run_no_lanczos(self, tmp_path):
        # pnp_admm never steps by alpha: its auto step comes from the theory
        # report's spectrum of P, so no CT build or sweep point runs Lanczos,
        # and a fresh interpreter never loads ARPACK (scipy.sparse.linalg)
        code = textwrap.dedent("""
            import json, sys
            from nullprior import diagnostics, experiments, solvers
            calls = []
            def spy(module, name):
                real = getattr(module, name)
                setattr(module, name, lambda *a, **k: calls.append(name) or real(*a, **k))
            for module in (experiments, solvers):
                spy(module, "default_alpha")
            spy(diagnostics, "_lanczos_max")
            cfg = experiments.load_config(sys.argv[1])
            pb = experiments.build_problem(cfg, seed=4)
            rows = experiments.sweep(cfg, "gamma", [0.3, 3.0], out_dir=sys.argv[2], seed=4)
            print(json.dumps({"alpha": pb["solver_config"].alpha, "calls": calls,
                              "errors": [row["error"] for row in rows],
                              "arpack": "scipy.sparse.linalg" in sys.modules}))
        """)
        src = os.path.dirname(os.path.dirname(experiments.__file__))
        result = subprocess.run(
            [sys.executable, "-c", code, str(BENCH_CONFIGS / "ct-admm-sweep.yaml"),
             str(tmp_path)], env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.splitlines()[-1]) == {
            "alpha": None, "calls": [], "errors": ["", ""], "arpack": False}

    def test_mri_runs_measure_no_residuals(self, tmp_path, monkeypatch):
        # the masked-Fourier pair's spectrum gives the step and rho, so no
        # build, run or sweep point reads the probe bounds
        calls = _counting(monkeypatch, nullspace, "_frequency_residuals")
        cfg = experiments.load_config(BENCH_CONFIGS / "mri-dct-64.yaml")
        pb = build_problem(cfg, seed=4)
        run(cfg, out_dir=str(tmp_path / "run"), seed=4)
        rows = sweep(cfg, "gamma", [1.0, 3.0, 1.0], out_dir=str(tmp_path / "sw"), seed=4)
        assert [row["error"] for row in rows] == [""] * 3
        assert calls == []
        basis = pb["basis"]
        ortho = basis.ortho_to_H_residual
        assert len(calls) == 1
        gram = basis.row_gram_residual
        assert len(calls) == 1
        assert (ortho, gram) == nullspace._frequency_residuals(basis.operator, pb["op"])

    def test_ct_sweep_measures_no_radon_residuals_and_norm_once(self, tmp_path, monkeypatch):
        # both gamma points keep the basis stage: pnp_admm resolves no auto
        # step, so nothing reads the residuals, and rho reads ||S||^2,
        # measured once; the 40 missing angles are only densified, so their
        # operator builds no transpose
        residuals = _counting(monkeypatch, nullspace, "_residuals")
        norms = _counting(monkeypatch, diagnostics, "norm_sq")
        densified = []
        to_dense = RadonOperator.to_dense
        monkeypatch.setattr(RadonOperator, "to_dense",
                            lambda op: densified.append(op) or to_dense(op))
        cfg = experiments.load_config(BENCH_CONFIGS / "ct-admm-sweep.yaml")
        rows = sweep(cfg, "gamma", [0.3, 3.0], out_dir=str(tmp_path), seed=4)
        assert [row["error"] for row in rows] == ["", ""]
        assert (len(residuals), len(norms)) == (0, 1)
        assert {(len(op.angles_deg), "_At" in vars(op)) for op in densified} == {
            (20, True), (40, False)}


class TestTheoryCheck:
    def test_pass_on_constructed_configuration(self):
        status, details = theory_check(theory_config())
        assert status == "pass"
        assert details["report"].rho < 1.0
        assert details["checks"]["contraction"] is True
        assert details["checks"]["penalty_bound"] is True

    @pytest.mark.parametrize("kind", ["pnp_admm", "red_fista"])
    def test_refuses_solver_kind(self, kind, monkeypatch):
        # neither iterates the gradient-plus-denoiser map the bounds govern:
        # refused before anything is built
        def built(*args, **kwargs):
            raise AssertionError("the problem was built")

        monkeypatch.setattr(experiments, "build_problem", built)
        cfg = theory_config(solver={"kind": kind, "alpha": 50.0, "gamma": 1.0, "iters": 25})
        with pytest.raises(ConfigError, match=f"solver '{kind}'"):
            theory_check(cfg)

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

    @pytest.mark.parametrize("kind", ["pnp_admm", "red_fista"])
    def test_theory_check_refused_solver_exit_three(self, kind, tmp_path, capsys):
        path = self._write(tmp_path, theory_config(solver={"kind": kind}))
        assert cli_main(["theory-check", "--config", path, "--out", str(tmp_path / "t")]) == 3
        assert "does not apply to solver" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    def test_basis_method_that_does_not_fit_exit_three(self, tmp_path, capsys):
        path = self._write(tmp_path, theory_config(basis={"method": "radon"}))
        assert cli_main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 3
        assert "does not fit" in capsys.readouterr().err
        assert not (tmp_path / "o" / "summary.csv").exists()

    @pytest.mark.parametrize("case", ["p-fourier", "eps-net", "af-ct", "sigma_blur-mri",
                                      "sigma_blur-sr-bilinear", "af-zero", "af-negative",
                                      "eps-negative"])
    def test_sweep_parameter_that_does_not_apply_exit_three(self, case, tmp_path, capsys):
        param, grid, cfg = {
            "p-fourier": ("p", "5,50,150", theory_config()),
            "eps-net": ("eps", "1e-3,1e-2", problem_config(
                "cs", "qr", prior={"kind": "net", "hidden": 4, "epochs": 2, "train_count": 10})),
            "af-ct": ("af", "2,4", problem_config("ct", "radon")),
            "sigma_blur-mri": ("sigma_blur", "1,2", theory_config()),
            # an sr operator without a kernel is bilinear
            "sigma_blur-sr-bilinear": ("sigma_blur", "1,2", problem_config("sr", "sr")),
            "af-zero": ("af", "0", theory_config()),
            "af-negative": ("af", "4,-2", theory_config()),
            "eps-negative": ("eps", "1e-3,-1e-3", cs_config()),
        }[case]
        path = self._write(tmp_path, cfg)
        code = cli_main(["sweep", "--config", path, "--param", param, "--grid", grid,
                         "--out", str(tmp_path / "sw")])
        assert code == 3
        assert "config error" in capsys.readouterr().err
        assert not list(tmp_path.glob("sw/point_*"))

    # every case runs; an operator mistake also sweeps, which must stop
    # before it writes any point
    @pytest.mark.parametrize("command,case", [
        *(pytest.param("run", case, id=case) for case in sorted(CONFIG_MISTAKES)),
        *(pytest.param("sweep", case, id=f"sweep-{case}") for case in sorted(CONFIG_MISTAKES)
          if "operator-" in case
          or case.startswith(("mask-", "kernel-", "solver-", "prior-", "error-", "basis-",
                              "denoiser-")))])
    def test_config_mistake_exit_three(self, command, case, tmp_path, capsys):
        cfg = CONFIG_MISTAKES[case]
        args = ["--config", self._write(tmp_path, cfg), "--out", str(tmp_path / "o")]
        if cfg.get("problem") == "toy3d":
            command = "toy3d"
        if command == "sweep":
            args += ["--param", "gamma", "--grid", "0.5,1"]
        assert cli_main([command, *args]) == 3
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()  # so no point_* directory either

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
