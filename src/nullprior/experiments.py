"""Config-driven experiment runner.

A YAML config names a problem, an operator, a projection basis, a prior, a
denoiser, and a solver; `run` executes the baseline (gamma = 0) and the
penalized solve on the same noise realization, writes both traces as CSV,
and appends a measured theory report.  `sweep` repeats a run over a
parameter grid, `theory_check` verifies the contraction and penalty-decay
bounds on an assumption-certified configuration, and `run_toy3d` reproduces
the three-dimensional geometry experiment.

Configs are strict: unknown keys raise ConfigError.  Every run is
deterministic for a fixed (config, seed) pair, and identical runs produce
byte-identical CSV files.
"""

import os
from dataclasses import replace

import numpy as np
import yaml

from . import denoisers as dn
from .diagnostics import (
    TheoryReport,
    compute_rho,
    decay_constants,
    decay_constants_statement_variant,
    detect_ciz,
    detect_ciz_rip_variant,
    estimate_ric,
    iterate_cloud_pairs,
    penalty_decay_bound,
    psnr,
    resolution_floor,
)
from .errors import ConfigError
from .nullspace import (
    NullSpaceBasis,
    fourier_complement,
    qr_nullspace,
    radon_complement,
    sr_complement,
    toeplitz_complement,
)
from .operators import DENSE_CAP, DenseOperator, make_operator
from .phantoms import generate, toy_plane_disk
from .priors import (
    OraclePrior,
    TwoLayerNet,
    realize_error,
    train_joint,
    train_mmse,
)
from .solvers import (
    SolverConfig,
    default_alpha,
    solve_fista_sparsity,
    solve_pnp_admm,
    solve_pnp_fista,
    solve_red_fista,
)

OUTPUT_ENV_VAR = "NULLPRIOR_OUT"

_TOP_KEYS = {"problem", "seed", "output", "signal", "operator", "basis",
             "prior", "denoiser", "solver", "noise", "toy3d"}
_SOLVER_KEYS = {"kind", "alpha", "gamma", "lam", "iters", "momentum", "restart",
                "rho", "cg_tol", "cg_maxiter", "transform", "peak"}
# the keys each kind of a section reads
_PRIOR_KEYS = {"oracle": {"kind", "error"},
               "net": {"kind", "hidden", "epochs", "lr", "batch", "lambda1", "lambda2", "activation",
                       "train_count", "train_seed", "holdout", "normalize", "noise_std", "init_scale"}}
_BASIS_KEYS = {m: {"method", "scale"} for m in ("fourier", "toeplitz", "sr", "radon")}
_BASIS_KEYS["qr"] = {"method", "p", "scale"}
_DENOISER_KEYS = {"identity": {"kind"}, "gaussian": {"kind", "sigma"},
                  "dct_soft": {"kind", "tau"}, "tv": {"kind", "weight", "iters"},
                  "median": {"kind", "window"}}
_NOISE_KEYS = {"snr_db"}
_TOY_KEYS = {"count", "radius", "hidden", "epochs", "lr", "grid_lo", "grid_hi",
             "grid_points", "gamma", "iters", "init_scale"}


def load_config(path):
    with open(path) as fh:
        cfg = yaml.safe_load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    return validate_config(cfg)


def validate_config(cfg):
    _check_keys(cfg, _TOP_KEYS, "top level")
    problem = cfg.get("problem")
    if problem not in ("cs", "mri", "blur", "sr", "ct", "toy3d"):
        raise ConfigError(f"unknown problem {problem!r}")
    if problem == "toy3d":
        _check_keys(cfg.get("toy3d", {}), _TOY_KEYS, "toy3d")
        return cfg
    for key in ("operator", "solver"):
        if key not in cfg:
            raise ConfigError(f"missing required section {key!r}")
    _check_keys(cfg.get("solver", {}), _SOLVER_KEYS, "solver")
    _check_kind_keys(cfg.get("prior"), "kind", "oracle", _PRIOR_KEYS, "prior")
    method = _check_kind_keys(cfg.get("basis"), "method",
                              _DEFAULT_BASIS_METHOD[problem], _BASIS_KEYS, "basis")
    # a complement fits the one problem it is the default of; qr fits any
    if method != "qr" and _DEFAULT_BASIS_METHOD[problem] != method:
        raise ConfigError(f"basis method {method!r} does not fit problem {problem!r}")
    _check_kind_keys(cfg.get("denoiser"), "kind", "identity", _DENOISER_KEYS, "denoiser")
    _check_keys(cfg.get("noise", {}), _NOISE_KEYS, "noise")
    solver_kind = cfg["solver"].get("kind", "pnp_fista")
    if solver_kind not in ("pnp_fista", "red_fista", "pnp_admm", "fista_sparsity"):
        raise ConfigError(f"unknown solver kind {solver_kind!r}")
    if float(cfg["solver"].get("gamma", 0.0)) < 0:
        raise ConfigError("solver.gamma must be nonnegative")
    return cfg


def _check_keys(section, allowed, where):
    if section is None:
        return
    if not isinstance(section, dict):
        raise ConfigError(f"{where} section must be a mapping")
    extra = set(section) - allowed
    if extra:
        raise ConfigError(f"unknown {where} key(s): {sorted(extra)}")


def _check_kind_keys(section, kind_key, default, keys_by_kind, where):
    """Check a section against the keys its kind reads; returns the kind."""
    kind = section.get(kind_key, default) if isinstance(section, dict) else default
    if kind not in keys_by_kind:
        raise ConfigError(f"unknown {where} {kind_key} {kind!r}")
    _check_keys(section, keys_by_kind[kind], f"{kind!r} {where}")
    return kind


def _seeds(seed, count):
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(count)]


# ---------------------------------------------------------------------------
# component builders
# ---------------------------------------------------------------------------

_DEFAULT_SIGNALS = {
    "cs": {"kind": "sparse", "k": 8},
    "mri": {"kind": "bumps", "count": 5},
    "blur": {"kind": "bumps", "count": 5},
    "sr": {"kind": "bumps", "count": 5},
    "ct": {"kind": "shepp_logan"},
}

_DEFAULT_BASIS_METHOD = {"cs": "qr", "mri": "fourier", "blur": "toeplitz",
                         "sr": "sr", "ct": "radon"}


def _build_operator(problem, op_cfg, seed):
    if problem != "ct":
        return make_operator(problem, op_cfg, seed)
    op_cfg = dict(op_cfg)
    side = int(op_cfg.pop("side"))
    full_angles = _full_angles(op_cfg.pop("full_angles"))
    acquired = op_cfg.pop("acquired")
    if op_cfg:
        raise ConfigError(f"unknown ct operator key(s): {sorted(op_cfg)}")
    acq_angles = (full_angles[: int(acquired)] if np.isscalar(acquired)
                  else [float(a) for a in acquired])
    return make_operator("ct", {"side": side, "angles": acq_angles}, seed)


def _full_angles(full):
    """CT's full angle list: a count of equispaced angles in [0, 180), or the angles."""
    return ([180.0 * i / int(full) for i in range(int(full))]
            if np.isscalar(full) else [float(a) for a in full])


def _build_signal(problem, signal_cfg, op, seed):
    spec = dict(signal_cfg) if signal_cfg else dict(_DEFAULT_SIGNALS[problem])
    kind = spec.get("kind")
    if kind in ("shepp_logan", "bumps"):
        spec.setdefault("side", op.shape_in[0])
        if op.shape_in != (spec["side"], spec["side"]):
            raise ConfigError("2-D phantom side must match the operator shape")
    elif kind in ("sparse", "piecewise"):
        spec.setdefault("n", op.n)
        if int(spec["n"]) != op.n:
            raise ConfigError("signal length must match the operator")
    x = generate(spec, seed=seed)
    return np.asarray(x, dtype=float).reshape(-1)


def _build_basis(cfg, op, seed):
    basis_cfg = cfg.get("basis") or {}
    method = basis_cfg.get("method", _DEFAULT_BASIS_METHOD[cfg["problem"]])
    scale = float(basis_cfg.get("scale", 1.0))
    if method == "qr":
        if op.n > DENSE_CAP:
            raise ConfigError("qr basis needs n <= 4096")
        p = basis_cfg.get("p")
        if p is None:
            p = op.n - op.m_eff
        basis = qr_nullspace(op.to_dense(), int(p), seed=seed)
    elif method == "fourier":
        basis = fourier_complement(op)
    elif method == "radon":
        basis = radon_complement(op, _full_angles(cfg["operator"]["full_angles"]))
    elif method == "toeplitz":
        basis = toeplitz_complement(op)
    else:
        basis = sr_complement(op)
    if scale != 1.0:
        basis = basis.scaled(scale)
    return basis


def _build_denoiser(den_cfg):
    den_cfg = den_cfg or {}
    kind = den_cfg.get("kind", "identity")
    if kind == "gaussian":
        return dn.GaussianSmooth(float(den_cfg.get("sigma", 1.0)))
    if kind == "dct_soft":
        return dn.TransformSoftThreshold(float(den_cfg.get("tau", 0.1)))
    if kind == "tv":
        return dn.TVChambolle(float(den_cfg.get("weight", 0.1)),
                              int(den_cfg.get("iters", 20)))
    if kind == "median":
        return dn.Median(int(den_cfg.get("window", 3)))
    return dn.Identity()


def _build_prior(prior_cfg, problem, signal_cfg, op, basis, x_star, seed):
    """Returns (predict_fn, error_norm_fn, info dict)."""
    prior_cfg = dict(prior_cfg) if prior_cfg else {"kind": "oracle",
                                                   "error": {"kind": "zero"}}
    kind = prior_cfg.get("kind", "oracle")
    if kind == "oracle":
        err_spec = dict(prior_cfg.get("error", {"kind": "zero"}))
        err_spec.setdefault("seed", seed)
        error = realize_error(err_spec, basis.p, op.m_eff, seed=seed)
        oracle = OraclePrior(basis, error)
        info = {"kind": "oracle", "K": getattr(error, "lipschitz", 0.0),
                "error_kind": err_spec.get("kind", "zero"), "oracle": oracle}
        return (lambda y: oracle.predict(y, x_star),
                lambda y: oracle.error_norm(y), info)

    hidden = int(prior_cfg.get("hidden", 64))
    epochs = int(prior_cfg.get("epochs", 300))
    lr = float(prior_cfg.get("lr", 1e-3))
    batch = prior_cfg.get("batch")
    lam1 = float(prior_cfg.get("lambda1", 0.0))
    lam2 = float(prior_cfg.get("lambda2", 0.0))
    activation = prior_cfg.get("activation", "tanh")
    train_count = int(prior_cfg.get("train_count", 300))
    holdout = float(prior_cfg.get("holdout", 0.2))
    normalize = bool(prior_cfg.get("normalize", True))
    noise_std = float(prior_cfg.get("noise_std", 0.0))
    init_scale = float(prior_cfg.get("init_scale", 1.0))
    train_seed = int(prior_cfg.get("train_seed", seed + 1))

    xs = np.array([_build_signal(problem, signal_cfg, op, s)
                   for s in _seeds(train_seed, train_count)])
    net = TwoLayerNet(op.m_eff, basis.p, hidden, activation, seed=train_seed,
                      init_scale=init_scale)
    if lam1 > 0 or lam2 > 0:
        if op.n > DENSE_CAP:
            raise ConfigError("joint training needs n <= 4096")
        net, basis, report = train_joint(net, basis, xs, op.to_dense(),
                                         lam1, lam2, epochs=epochs, lr=lr,
                                         batch_size=batch, seed=train_seed,
                                         holdout_frac=holdout,
                                         normalize=normalize,
                                         noise_std=noise_std)
    else:
        report = train_mmse(net, xs, op, basis, epochs=epochs, lr=lr,
                            batch_size=batch, seed=train_seed,
                            holdout_frac=holdout, normalize=normalize,
                            noise_std=noise_std)
    info = {"kind": "net", "K": np.nan, "net": net, "train_report": report,
            "basis": basis}

    def error_norm(y, _net=net, _basis=basis, _x=x_star):
        return float(np.linalg.norm(_net.predict(y) - _basis.project(_x)))

    return net.predict, error_norm, info


_SOLVERS = {"pnp_fista": solve_pnp_fista, "red_fista": solve_red_fista,
            "pnp_admm": solve_pnp_admm, "fista_sparsity": solve_fista_sparsity}


def _build_solver(solver_cfg, op, basis, x_star):
    solver_cfg = dict(solver_cfg)
    kind = solver_cfg.pop("kind", "pnp_fista")
    gamma = float(solver_cfg.pop("gamma", 0.0))
    alpha = solver_cfg.pop("alpha", "auto")
    transform = solver_cfg.pop("transform", "dct")
    if alpha == "auto":
        alpha = default_alpha(op, basis, gamma=gamma)
    config = SolverConfig(alpha=float(alpha), gamma=gamma,
                          lam=float(solver_cfg.pop("lam", 0.0)),
                          iters=int(solver_cfg.pop("iters", 100)),
                          momentum=solver_cfg.pop("momentum", "fista"),
                          restart=solver_cfg.pop("restart", "none"),
                          rho=float(solver_cfg.pop("rho", 1.0)),
                          cg_tol=float(solver_cfg.pop("cg_tol", 1e-8)),
                          cg_maxiter=int(solver_cfg.pop("cg_maxiter", 200)),
                          x_star=x_star,
                          peak=float(solver_cfg.pop("peak", 1.0)))
    return kind, config, transform


def _solve(kind, op, y, denoiser, config, basis, prior_fn, transform):
    if kind == "fista_sparsity":
        return solve_fista_sparsity(op, y, config, basis, prior_fn,
                                    transform=transform)
    return _SOLVERS[kind](op, y, denoiser, config, basis, prior_fn)


def add_measurement_noise(y, snr_db, seed):
    """Gaussian noise with variance ||y||^2 / (len(y) 10^(snr/10))."""
    y = np.asarray(y, dtype=float)
    if snr_db is None:
        return y.copy()
    sigma = np.sqrt(float(y @ y) / (y.size * 10.0 ** (snr_db / 10.0)))
    rng = np.random.default_rng(seed)
    return y + sigma * rng.standard_normal(y.size)


def build_problem(cfg, seed=None):
    """Instantiate every component a run needs; deterministic per seed."""
    cfg = validate_config(dict(cfg))
    problem = cfg["problem"]
    if problem == "toy3d":
        raise ConfigError("toy3d has its own runner: use run_toy3d "
                          "(CLI subcommand `toy3d`)")
    seed = int(cfg.get("seed", 0)) if seed is None else int(seed)
    op_seed, sig_seed, basis_seed, prior_seed, noise_seed = _seeds(seed, 5)
    op = _build_operator(problem, cfg["operator"], op_seed)
    x_star = _build_signal(problem, cfg.get("signal"), op, sig_seed)
    basis = _build_basis(cfg, op, basis_seed)
    prior_fn, error_norm_fn, prior_info = _build_prior(
        cfg.get("prior"), problem, cfg.get("signal"), op, basis, x_star,
        prior_seed)
    if prior_info["kind"] == "net":
        basis = prior_info["basis"]  # joint training may have refined it
    denoiser = _build_denoiser(cfg.get("denoiser"))
    kind, solver_config, transform = _build_solver(dict(cfg["solver"]), op,
                                                   basis, x_star)
    return {
        "problem": problem, "seed": seed, "op": op,
        "x_star": x_star, "basis": basis, "denoiser": denoiser,
        "prior_fn": prior_fn, "error_norm_fn": error_norm_fn,
        "prior_info": prior_info, "solver_kind": kind,
        "solver_config": solver_config, "transform": transform,
        "noise_seed": noise_seed,
        "snr_db": (cfg.get("noise") or {}).get("snr_db"),
    }


def _theory_report(pb, trace, y):
    """Measure every theory constant on the run's own iterate cloud.

    y is the noisy measurement the solve was given.
    """
    op = pb["op"]
    basis = pb["basis"]
    config = pb["solver_config"]
    x_star = pb["x_star"]
    notes = []
    certified = True
    # the penalty weights S by sqrt(gamma) (by 1 at gamma = 0)
    gamma_eff = config.gamma if config.gamma > 0 else 1.0
    weight = np.sqrt(gamma_eff)
    # S d and H d from one pair application per difference
    pair = basis.pair(op)

    def images(v):
        h, s = pair.forward(v)
        return weight * s, h
    ric_s, ric_h = estimate_ric(images, iterate_cloud_pairs(trace.iterates, x_star))
    # D(x*) serves the fixed-point check below and the x* pairs of delta
    denoiser = pb["denoiser"]
    dx = dn.denoise(denoiser, x_star, op.shape_in)
    delta_hat = dn.estimate_delta(denoiser, dn.iterate_cloud_images(
        denoiser, trace.iterates, x_star, dx, op.shape_in))
    err_norm = pb["error_norm_fn"](y)
    K = pb["prior_info"]["K"]
    xn = float(np.linalg.norm(x_star))
    if ric_s >= 1.0:
        certified = False
        notes.append("isometry constant of S reached 1 on the iterate cloud")
    if np.isnan(K):
        certified = False
        notes.append("no declared Lipschitz constant for a trained prior")
    elif K > 0 and err_norm > K * (1.0 + ric_h) * xn:
        certified = False
        notes.append("realized prior error exceeds K (1 + ric_h) ||x*||")
    elif K == 0.0 and err_norm > 0.0:
        certified = False
        notes.append("nonzero prior error with K = 0 cannot be certified")
    # the contraction argument treats the truth as a fixed point of the full
    # map, which requires the denoiser to leave it unchanged
    if np.linalg.norm(dx - x_star) > 1e-9 * (1.0 + xn):
        certified = False
        notes.append("ground truth is not a fixed point of the denoiser")
    est = compute_rho(delta_hat, config.alpha, op, basis, gamma_eff, ric_s)
    K_eff = 0.0 if np.isnan(K) else K
    C1, C2 = decay_constants(config.alpha, K_eff, ric_s, ric_h, xn)
    C1v, C2v = decay_constants_statement_variant(config.alpha, K_eff, ric_s,
                                                 ric_h, xn)
    ciz = detect_ciz(trace.proj_err_sq, err_norm)
    ciz_rip = detect_ciz_rip_variant(trace.err_sq, ric_s, err_norm)
    return TheoryReport(delta_hat, ric_s, ric_h, K_eff, err_norm, est.rho,
                        est.rho_squared_form, est.gradient_op_norm,
                        est.s_spectral_norm, C1, C2, C1v, C2v, config.alpha,
                        config.gamma, xn, ciz, ciz_rip, certified, notes)


def resolve_output_dir(cfg, out=None):
    out = out or cfg.get("output") or os.environ.get(OUTPUT_ENV_VAR)
    if out is None:
        raise ConfigError("no output directory: set output:, --out, or "
                          f"${OUTPUT_ENV_VAR}")
    os.makedirs(out, exist_ok=True)
    return out


SUMMARY_FIELDS = ("problem", "seed", "gamma", "snr_db", "psnr_baseline",
                  "psnr_npn", "err_baseline", "err_npn", "improvement_db",
                  "ciz_size", "rho", "holdout_error")


def _format_cell(v):
    if isinstance(v, str):
        return v
    if v is None:
        return "nan"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def write_summary_csv(path, rows, fields=SUMMARY_FIELDS):
    with open(path, "w") as fh:
        fh.write(",".join(fields) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(row.get(f)) for f in fields) + "\n")


def run(cfg, out_dir=None, seed=None):
    """Paired baseline / penalized solve; writes traces, theory report, summary."""
    cfg = validate_config(dict(cfg))
    pb = build_problem(cfg, seed=seed)
    out_dir = resolve_output_dir(cfg, out_dir)
    op, x_star = pb["op"], pb["x_star"]
    y = add_measurement_noise(op.forward(x_star), pb["snr_db"], pb["noise_seed"])

    config_npn = pb["solver_config"]
    config_base = replace(config_npn, gamma=0.0)
    x_base, tr_base = _solve(pb["solver_kind"], op, y, pb["denoiser"],
                             config_base, pb["basis"], pb["prior_fn"],
                             pb["transform"])
    x_npn, tr_npn = _solve(pb["solver_kind"], op, y, pb["denoiser"],
                           config_npn, pb["basis"], pb["prior_fn"],
                           pb["transform"])

    err_norm = pb["error_norm_fn"](y)
    tr_base.set_ciz(detect_ciz(tr_base.proj_err_sq, err_norm))
    tr_npn.set_ciz(detect_ciz(tr_npn.proj_err_sq, err_norm))
    tr_base.to_csv(os.path.join(out_dir, "trace_baseline.csv"))
    tr_npn.to_csv(os.path.join(out_dir, "trace_npn.csv"))

    report = _theory_report(pb, tr_npn, y)
    report.save(os.path.join(out_dir, "theory.txt"))
    if pb["prior_info"]["kind"] == "net":
        pb["prior_info"]["train_report"].save_history_csv(
            os.path.join(out_dir, "training_history.csv"))

    peak = config_npn.peak
    summary = {
        "problem": pb["problem"], "seed": pb["seed"], "gamma": config_npn.gamma,
        "snr_db": pb["snr_db"] if pb["snr_db"] is not None else np.nan,
        "psnr_baseline": psnr(x_base, x_star, peak),
        "psnr_npn": psnr(x_npn, x_star, peak),
        "err_baseline": float(np.linalg.norm(x_base - x_star)),
        "err_npn": float(np.linalg.norm(x_npn - x_star)),
        "improvement_db": psnr(x_npn, x_star, peak) - psnr(x_base, x_star, peak),
        "ciz_size": int(np.sum(tr_npn.in_ciz)),
        "rho": report.rho,
        "holdout_error": (pb["prior_info"]["train_report"].holdout_projection_error
                          if pb["prior_info"]["kind"] == "net" else np.nan),
    }
    write_summary_csv(os.path.join(out_dir, "summary.csv"), [summary])
    return {"x_baseline": x_base, "x_npn": x_npn, "trace_baseline": tr_base,
            "trace_npn": tr_npn, "theory": report, "summary": summary}


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

SWEEP_PARAMS = ("gamma", "p", "eps", "af", "sigma_blur")


def apply_sweep_value(cfg, param, value):
    """The config of one sweep point; ConfigError where the parameter does not apply."""
    cfg = {k: (dict(v) if isinstance(v, dict) else v) for k, v in cfg.items()}
    if param == "gamma":
        cfg.setdefault("solver", {})["gamma"] = float(value)
    elif param == "p":
        cfg.setdefault("basis", {})["p"] = int(value)
    elif param == "eps":
        prior = cfg.setdefault("prior", {"kind": "oracle"})
        error = dict(prior.get("error", {"kind": "gaussian"}))
        if error.get("kind", "zero") == "zero":
            error["kind"] = "gaussian"
        error["eps"] = float(value)
        prior["error"] = error
        cfg["prior"] = prior
    elif param == "af":
        op = cfg["operator"]
        if cfg["problem"] != "mri" or not isinstance(op.get("mask", {}), dict):
            raise ConfigError("sweep parameter 'af' needs an mri problem with a mask spec")
        shape = op.get("shape")
        n = int(np.prod(shape)) if not np.isscalar(shape) else int(shape)
        mask = dict(op.get("mask", {"kind": "lowpass"}))
        mask["count"] = max(1, int(round(n / float(value))))
        op["mask"] = mask
    elif param == "sigma_blur":
        kernel = cfg["operator"].get("kernel", {"kind": "gaussian"})
        if cfg["problem"] not in ("blur", "sr") or not (
                isinstance(kernel, dict) and kernel.get("kind") == "gaussian"):
            raise ConfigError("sweep parameter 'sigma_blur' needs a blur or sr "
                              "problem with a gaussian kernel")
        kernel = dict(kernel, sigma=float(value))
        cfg["operator"]["kernel"] = kernel
    else:
        raise ConfigError(f"unknown sweep parameter {param!r} "
                          f"(choose from {SWEEP_PARAMS})")
    return cfg


def sweep(cfg, param, grid, out_dir=None, seed=None):
    """One run per grid point with a shared seed; partial failures recorded.

    Every point's config is checked before any point runs, so a parameter
    that does not apply raises ConfigError and writes nothing.  Points run
    one after another, in grid order.  Threads were slower on the
    limited-angle CT sweep: the points contend for the interpreter lock and
    for the cores BLAS already uses.
    """
    cfg = validate_config(dict(cfg))
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"unknown sweep parameter {param!r}")
    grid = list(grid)
    if not grid:
        raise ConfigError("sweep grid is empty")
    point_cfgs = [validate_config(apply_sweep_value(cfg, param, value)) for value in grid]
    out_dir = resolve_output_dir(cfg, out_dir)
    fields = (param,) + SUMMARY_FIELDS + ("error",)

    rows = []
    for i, (value, point_cfg) in enumerate(zip(grid, point_cfgs)):
        point_dir = os.path.join(out_dir, f"point_{i:03d}")
        row = {param: value, "error": ""}
        try:
            os.makedirs(point_dir, exist_ok=True)
            result = run(point_cfg, out_dir=point_dir, seed=seed)
            row.update(result["summary"])
        except Exception as exc:  # record and continue
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    write_summary_csv(os.path.join(out_dir, "summary.csv"), rows, fields)
    return rows


# ---------------------------------------------------------------------------
# theory check
# ---------------------------------------------------------------------------

RATIO_TOL = 1e-9


def theory_check(cfg, out_dir=None, seed=None):
    """Verify the contraction and penalty-decay bounds on one configuration.

    Returns (status, details) with status "pass" | "fail" | "inconclusive".
    The solve runs without momentum: the bounds govern the plain
    gradient-plus-denoiser map, and acceleration would overshoot it.
    """
    cfg = validate_config(dict(cfg))
    if cfg.get("prior", {}).get("kind", "oracle") != "oracle":
        raise ConfigError("theory check requires an oracle prior")
    method = cfg.get("basis", {}).get("method",
                                      _DEFAULT_BASIS_METHOD.get(cfg["problem"]))
    if method not in ("qr", "fourier"):
        raise ConfigError("theory check requires an exact (qr/fourier) basis")
    cfg["solver"] = dict(cfg.get("solver", {}))
    cfg["solver"]["momentum"] = "none"

    pb = build_problem(cfg, seed=seed)
    op, x_star = pb["op"], pb["x_star"]
    y = add_measurement_noise(op.forward(x_star), pb["snr_db"], pb["noise_seed"])
    x_hat, trace = _solve(pb["solver_kind"], op, y, pb["denoiser"],
                          pb["solver_config"], pb["basis"], pb["prior_fn"],
                          pb["transform"])
    report = _theory_report(pb, trace, y)
    trace.set_ciz(report.ciz)

    details = {"report": report, "trace": trace, "checks": {}}
    checks = details["checks"]

    ciz = report.ciz
    ratios = trace.ratio[ciz]
    # ratios are unmeasurable once the error sits at float resolution: the
    # difference x - x* is pure rounding noise there
    measurable = np.sqrt(trace.err_sq[ciz]) > resolution_floor(report.xstar_norm)
    keep = np.isfinite(ratios) & measurable
    if np.any(~measurable):
        report.notes.append(f"{int(np.sum(~measurable))} improvement-zone iteration(s) below "
                            "float resolution excluded from the ratio check")
    if report.rho < 1.0:
        ok_sq = bool(np.all(ratios[keep] <= report.rho + RATIO_TOL))
        ok_lin = bool(np.all(np.sqrt(ratios[keep]) <= report.rho + RATIO_TOL))
        checks["contraction"] = ok_sq and ok_lin
    else:
        checks["contraction"] = None  # precondition rho < 1 unmet

    bound_ok = True
    alpha = pb["solver_config"].alpha
    for ell in range(len(trace.iters) - 1):
        bound = penalty_decay_bound(np.sqrt(trace.err_sq[ell]),
                                    np.sqrt(trace.step_sq[ell]), alpha,
                                    report.K, report.ric_s, report.ric_h,
                                    report.xstar_norm)
        if np.sqrt(trace.phi[ell + 1]) > bound + RATIO_TOL:
            bound_ok = False
            break
    checks["penalty_bound"] = bound_ok

    if report.error_norm ** 2 <= trace.proj_err_sq[0]:
        checks["ciz_nonempty"] = len(ciz) > 0
    else:
        # prior error dominates from the start: an empty zone is the correct
        # outcome and the contraction claim is vacuous
        checks["ciz_nonempty"] = True
        report.notes.append("improvement zone empty by construction "
                            "(prior error exceeds the initial projected error)")

    if out_dir is not None or cfg.get("output") or os.environ.get(OUTPUT_ENV_VAR):
        out = resolve_output_dir(cfg, out_dir)
        trace.to_csv(os.path.join(out, "trace_theory.csv"))
        report.save(os.path.join(out, "theory.txt"))

    if not report.certified:
        status = "inconclusive"  # assumption certification failed
    elif any(v is False for v in checks.values()):
        status = "fail"
    elif any(v is None for v in checks.values()):
        status = "inconclusive"
    else:
        status = "pass"
    details["status"] = status
    return status, details


# ---------------------------------------------------------------------------
# R^3 toy experiment
# ---------------------------------------------------------------------------

def run_toy3d(cfg, out_dir=None, seed=None):
    """Disk-supported data in a 2-plane of R^3: subspace prior vs direct net.

    Trains a small net to predict the 1-D projection from 2 measurements and
    a same-size net to reconstruct the full signal, then compares their
    projection errors on the training disk and on an out-of-distribution
    grid; finally solves the inverse problem with the trained prior.
    """
    cfg = validate_config(dict(cfg))
    toy = dict(cfg.get("toy3d") or {})
    seed = int(cfg.get("seed", 0)) if seed is None else int(seed)
    count = int(toy.get("count", 500))
    radius = float(toy.get("radius", 1.0))
    hidden = int(toy.get("hidden", 50))
    epochs = int(toy.get("epochs", 4000))
    lr = float(toy.get("lr", 5e-3))
    grid_lo = float(toy.get("grid_lo", 2.0))
    grid_hi = float(toy.get("grid_hi", 4.0))
    grid_points = int(toy.get("grid_points", 5))
    gamma = float(toy.get("gamma", 1.0))
    iters = int(toy.get("iters", 200))
    init_scale = float(toy.get("init_scale", 0.1))

    op_seed, data_seed, net_seed = _seeds(seed, 3)
    rng = np.random.default_rng(op_seed)
    H = rng.standard_normal((2, 3))
    basis = qr_nullspace(H, p=1, seed=op_seed)
    op = DenseOperator(H)
    points, plane = toy_plane_disk(count, radius, seed=data_seed)

    proj_net = TwoLayerNet(2, 1, hidden, "tanh", seed=net_seed,
                           init_scale=init_scale)
    rep_proj = train_mmse(proj_net, points, op, basis, epochs=epochs, lr=lr,
                          seed=net_seed, holdout_frac=0.2, normalize=False)

    direct_net = TwoLayerNet(2, 3, hidden, "tanh", seed=net_seed + 1,
                             init_scale=init_scale)
    identity_basis = NullSpaceBasis(np.eye(3), "learned", np.nan, 0.0)
    rep_direct = train_mmse(direct_net, points, op, identity_basis,
                            epochs=epochs, lr=lr, seed=net_seed + 1,
                            holdout_frac=0.2, normalize=False)

    axis = np.linspace(grid_lo, grid_hi, grid_points)
    cc1, cc2 = np.meshgrid(axis, axis, indexing="ij")
    ood = np.stack([cc1.reshape(-1), cc2.reshape(-1)], axis=1) @ plane

    def proj_errors(xs):
        ys = xs @ H.T
        targets = xs @ basis.matrix.T
        err_subspace = np.linalg.norm(proj_net.predict(ys) - targets, axis=1)
        err_direct = np.linalg.norm(direct_net.predict(ys) @ basis.matrix.T
                                    - targets, axis=1)
        return float(np.mean(err_subspace)), float(np.mean(err_direct))

    in_sub, in_dir = proj_errors(points)
    ood_sub, ood_dir = proj_errors(ood)

    # inverse problem: [H; S] is complete in R^3, so a perfect prior pins the
    # solution uniquely; the trained net leaves only its estimation error
    x_star = points[0]
    y = op.forward(x_star)
    alpha = default_alpha(op, basis, gamma=gamma)
    config = SolverConfig(alpha=alpha, gamma=gamma, iters=iters, x_star=x_star,
                          restart="fista-momentum")
    x_npn, _ = solve_pnp_fista(op, y, dn.Identity(), config, basis,
                               proj_net.predict)
    x_base, _ = solve_pnp_fista(op, y, dn.Identity(),
                                replace(config, gamma=0.0))
    exact = OraclePrior(basis)
    x_oracle, _ = solve_pnp_fista(op, y, dn.Identity(), config, basis,
                                  lambda yy: exact.predict(yy, x_star))

    result = {
        "in_dist_rel_error": rep_proj.holdout_projection_error,
        "in_dist_subspace_error": in_sub,
        "in_dist_direct_error": in_dir,
        "ood_subspace_error": ood_sub,
        "ood_direct_error": ood_dir,
        "recon_err_npn": float(np.linalg.norm(x_npn - x_star)),
        "recon_err_baseline": float(np.linalg.norm(x_base - x_star)),
        "recon_err_oracle": float(np.linalg.norm(x_oracle - x_star)),
        "direct_holdout_error": rep_direct.holdout_projection_error,
        "seed": seed,
    }
    if out_dir is not None or cfg.get("output") or os.environ.get(OUTPUT_ENV_VAR):
        out = resolve_output_dir(cfg, out_dir)
        fields = tuple(result)
        write_summary_csv(os.path.join(out, "toy_summary.csv"), [result], fields)
    return result
