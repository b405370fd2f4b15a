"""Config-driven experiment runner.

A YAML config names a problem, an operator, a projection basis, a prior, a
denoiser, and a solver; `run` executes the baseline (gamma = 0) and the
penalized solve on the same noise realization, writes both traces as CSV,
and appends a measured theory report.  `sweep` repeats a run over a
parameter grid, `theory_check` verifies the contraction and penalty-decay
bounds on an assumption-certified configuration of a proximal-gradient
solver, and `run_toy3d` reproduces the three-dimensional geometry experiment.

Configs are strict: `SCHEMA` lists the keys and defaults of each section's
kinds, the operator's (one kind per problem) and its mask and kernel specs
included.  A config is resolved against it once, before anything is built:
an unknown kind or key, a missing required key or a number out of range
raises ConfigError, and a key given as null takes its default.
`build_problem` then builds one chain of stages (operator, signal,
measurement, basis, prior, denoiser, solver), each from its section, its
seed and the stages before it; the prior stage holds one prior, which a run
asks only the four questions every prior answers (`priors`).  A sweep point
rebuilds only from the first stage its value changes, and solves its
baseline only when the baseline reads something the last point's did not.
Every run is deterministic for a fixed (config, seed) pair, and identical
runs produce byte-identical CSV files.
"""

import os
from dataclasses import fields, replace
from functools import partial

import numpy as np
import yaml

from . import denoisers as dn
from .diagnostics import (
    CloudConstants,
    TheoryReport,
    compute_rho,
    decay_constants,
    decay_constants_statement_variant,
    detect_ciz,
    detect_ciz_rip_variant,
    estimate_ric,  # unread here; bench/tracer.py wraps it under this name
    penalty_decay_bound,
    psnr,
    resolution_floor,
)
from .errors import ConfigError, DimensionMismatchError
from .nullspace import (
    NullSpaceBasis,
    fourier_complement,
    qr_nullspace,
    radon_complement,
    sr_complement,
    toeplitz_complement,
)
from .operators import (
    ANCHORS,
    DENSE_CAP,
    TRANSFORMS,
    CirculantConvOperator,
    DecimatedConvOperator,
    DenseOperator,
    MaskedFrequencyOperator,
    RadonOperator,
    ScaledOperator,
    bilinear_kernel,
    gaussian_kernel,
    lowpass_mask,
    mask_pool,
    random_mask,
)
from .phantoms import generate, toy_plane_disk
from .priors import (
    ACTIVATIONS,
    OraclePrior,
    TrainedPrior,
    TwoLayerNet,
    realize_error,
    train_joint,
    train_mmse,
)
from .solvers import (
    MOMENTA,
    RESTARTS,
    SPARSITY_TRANSFORMS,
    SolverConfig,
    default_alpha,
    solve_fista_sparsity,
    solve_pnp_admm,
    solve_pnp_fista,
    solve_red_fista,
)

OUTPUT_ENV_VAR = "NULLPRIOR_OUT"

CS_DISTS = ("gaussian", "binary")  # the entries of a cs operator's random matrix

_SOLVERS = {"pnp_fista": solve_pnp_fista, "red_fista": solve_red_fista,
            "pnp_admm": solve_pnp_admm, "fista_sparsity": solve_fista_sparsity}
# the kinds whose iteration steps by alpha; pnp_admm's x-update is a CG solve
# of H'H + gamma S'S + rho I, so its alpha feeds only the theory report, and
# an auto one is left for the report to take from P's spectrum
_STEPPED_KINDS = ("pnp_fista", "red_fista", "fista_sparsity")

# marks a key that has no default; a default of None means no value, which
# the builders read as "from the operator or the seed" where one is needed
REQUIRED = object()

_COMPONENTS = {"seed": 0, "output": None, "signal": None, "operator": REQUIRED,
               "basis": None, "prior": None, "denoiser": None,
               "solver": REQUIRED, "noise": None}


def _solver_keys(*keys):
    """Keys of a solver kind, defaulting as SolverConfig's fields (alpha to auto)."""
    defaults = {f.name: f.default for f in fields(SolverConfig)}
    defaults.update(alpha="auto", transform="dct")
    return {key: defaults[key] for key in keys}


# the solver keys every one of the _STEPPED_KINDS reads
_FISTA_KEYS = ("alpha", "gamma", "iters", "momentum", "restart", "peak")

# section: (the key naming its kind, the default kind, {kind: {key: default}})
SCHEMA = {
    "top level": ("problem", None, {
        **dict.fromkeys(("cs", "mri", "blur", "sr", "ct"), _COMPONENTS),
        "toy3d": {"seed": 0, "output": None, "toy3d": None}}),
    "signal": ("kind", None, {
        "sparse": {"n": None, "k": 8}, "piecewise": {"n": None, "segments": REQUIRED},
        "shepp_logan": {"side": None}, "bumps": {"side": None, "count": 5}}),
    "prior": ("kind", "oracle", {
        "oracle": {"error": None},
        "net": {"hidden": 64, "epochs": 300, "lr": 1e-3, "batch": None,
                "lambda1": 0.0, "lambda2": 0.0, "activation": "tanh",
                "train_count": 300, "train_seed": None, "holdout": 0.2,
                "normalize": True, "noise_std": 0.0, "init_scale": 1.0}}),
    # the oracle prior's error spec
    "error": ("kind", "zero", {
        "zero": {}, "gaussian": {"eps": REQUIRED, "seed": None},
        "lipschitz": {"eps": REQUIRED, "K": 1.0, "seed": None}}),
    "basis": ("method", None, {
        "qr": {"p": None, "scale": 1.0},
        **{m: {"scale": 1.0} for m in ("fourier", "toeplitz", "sr", "radon")}}),
    "denoiser": ("kind", "identity", {
        "identity": {}, "gaussian": {"sigma": 1.0}, "dct_soft": {"tau": 0.1},
        "tv": {"weight": 0.1, "iters": 20}, "median": {"window": 3}}),
    # the SolverConfig fields each kind reads (x_star is the run's own signal);
    # pnp_admm's alpha feeds only the theory report
    "solver": ("kind", "pnp_fista", {
        "pnp_fista": _solver_keys(*_FISTA_KEYS),
        "red_fista": _solver_keys(*_FISTA_KEYS, "lam"),
        "fista_sparsity": _solver_keys(*_FISTA_KEYS, "lam", "transform"),
        "pnp_admm": _solver_keys("alpha", "gamma", "iters", "rho", "cg_tol", "cg_maxiter",
                                 "peak")}),
    # an operator's kind is its problem; ct's angles are a count of
    # equispaced angles in [0, 180) or a list, and acquired a count or list
    "operator": (None, None, {
        "cs": {"n": REQUIRED, "m": REQUIRED, "dist": "gaussian", "normalize": False,
               "scale": 1.0},
        "mri": {"shape": REQUIRED, "transform": "dct", "mask": REQUIRED, "scale": 1.0},
        "blur": {"shape": REQUIRED, "kernel": REQUIRED, "anchor": "center", "scale": 1.0},
        "sr": {"shape": REQUIRED, "factor": REQUIRED, "kernel": {"kind": "bilinear"},
               "anchor": "center", "scale": 1.0},
        "ct": {"side": REQUIRED, "full_angles": REQUIRED, "acquired": REQUIRED}}),
    # an mri operator's mask spec (a list of indices is used as given)
    "mask": ("kind", None, {
        "lowpass": {"count": REQUIRED}, "random": {"count": REQUIRED, "seed": None}}),
    # a blur or sr operator's kernel spec (a list of taps is used as given)
    "kernel": ("kind", None, {
        "gaussian": {"sigma": REQUIRED, "radius": None}, "bilinear": {"factor": None}}),
    "noise": (None, None, {None: {"snr_db": None}}),
    "toy3d": (None, None, {None: {
        "count": 500, "radius": 1.0, "hidden": 50, "epochs": 4000, "lr": 5e-3,
        "grid_lo": 2.0, "grid_hi": 4.0, "grid_points": 5, "gamma": 1.0,
        "iters": 200, "init_scale": 0.1}}),
}

# the default signal kind and basis method of each problem; a complement
# basis fits only the problem it is the default of, qr fits any
_PROBLEM_KINDS = {"cs": ("sparse", "qr"), "mri": ("bumps", "fourier"),
                  "blur": ("bumps", "toeplitz"), "sr": ("bumps", "sr"),
                  "ct": ("shepp_logan", "radon")}


def resolve(where, section, kind=None):
    """A config section's values, with the defaults of its kind filled in.

    `kind` replaces the schema's default kind (signal and basis default by
    problem), and a key given as null takes its default.  Raises ConfigError
    for an unknown kind, an unknown key or a missing (or null) required key.
    """
    kind_key, default_kind, kinds = SCHEMA[where]
    section = {} if section is None else section
    if not isinstance(section, dict):
        raise ConfigError(f"{where} section must be a mapping")
    if kind_key is not None:
        kind = section.get(kind_key, kind or default_kind)
    if kind not in kinds:
        raise ConfigError(f"unknown {where} {kind_key or 'kind'} {kind!r}")
    defaults = kinds[kind]
    keys = f"{where} key(s)" + (f" for {kind_key} {kind!r}" if kind_key else "")
    unknown = set(section) - set(defaults) - {kind_key}
    if unknown:
        raise ConfigError(f"unknown {keys}: {sorted(unknown, key=str)}")
    missing = [key for key, value in defaults.items()
               if value is REQUIRED and section.get(key) is None]
    if missing:
        raise ConfigError(f"missing required {keys}: {missing}")
    values = {**defaults, **{key: v for key, v in section.items() if v is not None}}
    if kind_key is not None:
        values[kind_key] = kind
    return values


def load_config(path):
    with open(path) as fh:
        cfg = yaml.safe_load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    return validate_config(cfg)


def validate_config(cfg):
    """Check every section of cfg against SCHEMA; returns cfg itself."""
    _resolve_config(cfg)
    return cfg


def _resolve_config(cfg):
    """cfg with every section resolved against SCHEMA; cfg itself is unchanged."""
    top = resolve("top level", cfg)
    if top["problem"] == "toy3d":
        top["toy3d"] = resolve("toy3d", top["toy3d"])
        return top
    signal_kind, basis_method = _PROBLEM_KINDS[top["problem"]]
    top["signal"] = resolve("signal", top["signal"], signal_kind)
    prior = top["prior"] = resolve("prior", top["prior"])
    if prior["kind"] == "oracle":
        prior["error"] = resolve("error", prior["error"])
        _check_ranges("error", prior["error"])
    else:
        _check_choice("net prior activation", prior["activation"], ACTIVATIONS)
        _check_ranges("prior", prior)
        count = int(prior["train_count"])
        if round(float(prior["holdout"]) * count) >= count:  # `priors._train`'s split
            raise ConfigError(f"prior holdout {prior['holdout']!r} leaves none of the "
                              f"{count} training signals to train on")
    basis = top["basis"] = resolve("basis", top["basis"], basis_method)
    if basis["method"] not in ("qr", basis_method):
        raise ConfigError(f"basis method {basis['method']!r} does not fit problem "
                          f"{top['problem']!r}")
    denoiser = top["denoiser"] = resolve("denoiser", top["denoiser"])
    _check_ranges("denoiser", denoiser)
    top["noise"] = resolve("noise", top["noise"])
    solver = top["solver"] = resolve("solver", top["solver"])
    for key, choices in (("momentum", MOMENTA), ("restart", RESTARTS),
                         ("transform", SPARSITY_TRANSFORMS)):
        if key in solver:
            _check_choice(f"solver {key}", solver[key], choices)
    _check_ranges("solver", solver)
    if solver["alpha"] != "auto":
        _check_number("solver alpha", solver["alpha"], 0, strict=True)
    top["operator"] = _resolve_operator(top["problem"], top["operator"])
    # a qr or radon basis and joint training hold dense matrices of n columns:
    # past the cap they are refused before anything is built
    dense = {"a qr basis": basis["method"] == "qr", "a radon basis": basis["method"] == "radon",
             "joint training": prior["kind"] == "net" and (float(prior["lambda1"]) > 0
                                                           or float(prior["lambda2"]) > 0)}
    for what, needed in dense.items():
        if needed and (n := _signal_length(top["problem"], top["operator"])) > DENSE_CAP:
            raise ConfigError(f"{what} needs n <= {DENSE_CAP}, not n = {n}")
    return top


def _signal_length(problem, op):
    """n of the operator a resolved operator section builds."""
    if problem == "cs":
        return int(op["n"])
    if problem == "ct":
        return int(op["side"]) ** 2
    return int(np.prod(op["shape"]))


def _resolve_operator(problem, section):
    """The operator section of `problem`, its mask or kernel spec resolved too.

    Also rejects the values an operator would reject only once built, and
    a mask count outside [1, the number of frequencies it chooses from].
    """
    op = resolve("operator", section, problem)
    if problem == "cs":
        _check_choice("cs dist", op["dist"], CS_DISTS)
    elif problem == "mri":
        _check_choice("mri transform", op["transform"], TRANSFORMS)
        if isinstance(op["mask"], dict):
            op["mask"] = mask = resolve("mask", op["mask"])
            pool = len(mask_pool(op["shape"], op["transform"]))
            if not 1 <= int(mask["count"]) <= pool:
                raise ConfigError(f"mri mask count {mask['count']} is outside "
                                  f"[1, {pool}], the frequencies it chooses from")
    elif problem in ("blur", "sr"):
        _check_choice(f"{problem} anchor", op["anchor"], ANCHORS)
        if isinstance(op["kernel"], dict):
            op["kernel"] = kernel = resolve("kernel", op["kernel"])
            if kernel["kind"] == "bilinear" and kernel["factor"] is None:
                if problem == "blur":
                    raise ConfigError("a blur operator's bilinear kernel needs a factor")
                kernel["factor"] = op["factor"]
    return op


def _check_choice(what, value, choices):
    if value not in choices:
        raise ConfigError(f"unknown {what} {value!r} (choose from {choices})")


# the lowest value of each numeric key of the prior, error, solver and
# denoiser sections, as (low, cast, strict) for `_check_number`; a key its
# kind does not have and an unset batch are not checked
_RANGES = {
    "prior": {"epochs": (1, int), "lambda1": (0,), "lambda2": (0,), "train_count": (1, int),
              "holdout": (0,), "lr": (0, float, True), "hidden": (1, int), "batch": (1, int),
              "noise_std": (0,)},
    "error": {"eps": (0,), "K": (0, float, True)},
    "solver": {"gamma": (0,), "iters": (1, int), "rho": (0, float, True),
               "cg_tol": (0, float, True), "cg_maxiter": (1, int), "lam": (0,),
               "peak": (0, float, True)},
    "denoiser": {"sigma": (0,), "tau": (0,), "weight": (0, float, True), "iters": (1, int),
                 "window": (1, int)},
}


def _check_ranges(where, values):
    for key, value in values.items():
        if key in _RANGES[where] and value is not None:
            _check_number(f"{where} {key}", value, *_RANGES[where][key])


def _check_number(what, value, low, cast=float, strict=False):
    """ConfigError unless value, cast as its builder casts it, is >= low (> if strict)."""
    try:
        ok = cast(value) > low if strict else cast(value) >= low
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ConfigError(f"{what} must be {'>' if strict else '>='} {low}, not {value!r}")


def _seeds(seed, count):
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(count)]


# ---------------------------------------------------------------------------
# component builders
# ---------------------------------------------------------------------------

def make_operator(problem, params, seed=0):
    """Build the sensing operator of one of the five inverse problems.

    problem: "cs" | "mri" | "blur" | "sr" | "ct"; params is its `operator`
    config section (keys and defaults in SCHEMA).  A random mask without a
    seed and a cs matrix draw from `seed`.
    """
    op = _resolve_operator(problem, params)
    if problem == "cs":
        n, m = int(op["n"]), int(op["m"])
        if m > n:
            raise DimensionMismatchError(f"m={m} exceeds n={n}")
        rng = np.random.default_rng(seed)
        if op["dist"] == "binary":
            mat = rng.integers(0, 2, size=(m, n)).astype(float)
        else:
            mat = rng.standard_normal((m, n))
        if op["normalize"]:
            mat /= np.sqrt(n)
        return DenseOperator(float(op["scale"]) * mat)
    if problem == "ct":
        angles = op["acquired"]
        if np.isscalar(angles):  # a count: the first of the full angles
            angles = _full_angles(op["full_angles"])[: int(angles)]
        return RadonOperator(op["side"], angles)
    shape = op["shape"]
    if problem == "mri":
        mask = op["mask"]
        if isinstance(mask, dict) and mask["kind"] == "lowpass":
            mask = lowpass_mask(shape, int(mask["count"]), op["transform"])
        elif isinstance(mask, dict):
            mask_seed = seed if mask["seed"] is None else mask["seed"]
            mask = random_mask(shape, int(mask["count"]), mask_seed, op["transform"])
        base = MaskedFrequencyOperator(shape, mask, op["transform"])
    else:
        ndim = 1 if np.isscalar(shape) else len(shape)
        kernel = op["kernel"]
        if isinstance(kernel, dict) and kernel["kind"] == "gaussian":
            kernel = gaussian_kernel(float(kernel["sigma"]), kernel["radius"], ndim)
        elif isinstance(kernel, dict):
            kernel = bilinear_kernel(kernel["factor"], ndim)
        base = (CirculantConvOperator(shape, kernel, op["anchor"]) if problem == "blur"
                else DecimatedConvOperator(shape, kernel, op["factor"], op["anchor"]))
    scale = float(op["scale"])
    return base if scale == 1.0 else ScaledOperator(base, scale)


def _full_angles(full):
    """CT's full angle list: a count of equispaced angles in [0, 180), or the angles."""
    return ([180.0 * i / int(full) for i in range(int(full))]
            if np.isscalar(full) else [float(a) for a in full])


def _build_signal(spec, op, seed):
    """A signal of the resolved `signal` spec; an unset size is the operator's."""
    if "side" in spec:  # a 2-D phantom
        spec = dict(spec, side=op.shape_in[0] if spec["side"] is None else spec["side"])
        if op.shape_in != (spec["side"], spec["side"]):
            raise ConfigError("2-D phantom side must match the operator shape")
    else:
        spec = dict(spec, n=op.n if spec["n"] is None else spec["n"])
        if int(spec["n"]) != op.n:
            raise ConfigError("signal length must match the operator")
    return np.asarray(generate(spec, seed=seed), dtype=float).reshape(-1)


def _build_basis(basis_cfg, op_cfg, op, seed):
    method, scale = basis_cfg["method"], float(basis_cfg["scale"])
    if method == "qr":
        p = op.n - op.m_eff if basis_cfg["p"] is None else int(basis_cfg["p"])
        basis = qr_nullspace(op.to_dense(), p, seed=seed)
    elif method == "radon":
        basis = radon_complement(op, _full_angles(op_cfg["full_angles"]))
    else:  # the other complements are built from the operator alone
        basis = {"fourier": fourier_complement, "toeplitz": toeplitz_complement,
                 "sr": sr_complement}[method](op)
    return basis if scale == 1.0 else basis.scaled(scale)


def _build_denoiser(den_cfg):
    # a kind's keys, in SCHEMA order, are its class's arguments
    cls = {"identity": dn.Identity, "gaussian": dn.GaussianSmooth, "tv": dn.TVChambolle,
           "dct_soft": dn.TransformSoftThreshold, "median": dn.Median}[den_cfg["kind"]]
    return cls(*(value for key, value in den_cfg.items() if key != "kind"))


def _build_prior(prior_cfg, signal_cfg, op, basis, seed):
    """The prior of a problem; a jointly trained one also refines its basis."""
    if prior_cfg["kind"] == "oracle":  # an error without a seed takes the prior's
        return {"prior": OraclePrior(basis, realize_error(prior_cfg["error"], basis.p,
                                                          op.m_eff, seed=seed))}

    train_seed = seed + 1 if prior_cfg["train_seed"] is None else int(prior_cfg["train_seed"])
    xs = np.array([_build_signal(signal_cfg, op, s)
                   for s in _seeds(train_seed, int(prior_cfg["train_count"]))])
    net = TwoLayerNet(op.m_eff, basis.p, int(prior_cfg["hidden"]), prior_cfg["activation"],
                      seed=train_seed, init_scale=float(prior_cfg["init_scale"]))
    training = {"epochs": int(prior_cfg["epochs"]), "lr": float(prior_cfg["lr"]),
                "batch_size": prior_cfg["batch"], "seed": train_seed,
                "holdout_frac": float(prior_cfg["holdout"]),
                "normalize": bool(prior_cfg["normalize"]),
                "noise_std": float(prior_cfg["noise_std"])}
    lam1, lam2 = float(prior_cfg["lambda1"]), float(prior_cfg["lambda2"])
    if lam1 > 0 or lam2 > 0:
        net, basis, report = train_joint(net, basis, xs, op.to_dense(), lam1, lam2,
                                         **training)
        return {"prior": TrainedPrior(net, basis, report), "basis": basis}
    return {"prior": TrainedPrior(net, basis, train_mmse(net, xs, op, basis, **training))}


def _build_solver(solver_cfg, op, basis, x_star):
    """The solver stage: its kind, transform and SolverConfig.

    `alpha: auto` is resolved here (`default_alpha`) only for the
    `_STEPPED_KINDS`; for pnp_admm it stays None, and the theory report
    takes the step from the spectrum of P it forms anyway (`compute_rho`).
    """
    # each field's type also reads the strings PyYAML makes of 1e-8; a field
    # the kind does not read keeps SolverConfig's default
    values = {f.name: f.type(solver_cfg[f.name]) for f in fields(SolverConfig)
              if f.name in solver_cfg and f.name != "alpha"}
    alpha = solver_cfg["alpha"]
    if alpha != "auto":
        alpha = float(alpha)
    elif solver_cfg["kind"] in _STEPPED_KINDS:
        alpha = default_alpha(op, basis, gamma=values["gamma"])
    else:
        alpha = None
    return {"solver_kind": solver_cfg["kind"], "transform": solver_cfg.get("transform"),
            "solver_config": SolverConfig(alpha=alpha, x_star=x_star, **values)}


def _solve(pb, config, observer=None):
    op, y, basis = pb["op"], pb["y"], pb["basis"]
    prior = partial(pb["prior"].predict, x_star=pb["x_star"])
    if pb["solver_kind"] == "fista_sparsity":
        return solve_fista_sparsity(op, y, config, basis, prior,
                                    transform=pb["transform"], observer=observer)
    return _SOLVERS[pb["solver_kind"]](op, y, pb["denoiser"], config, basis, prior,
                                       observer=observer)


def add_measurement_noise(y, snr_db, seed):
    """Gaussian noise with variance ||y||^2 / (len(y) 10^(snr/10))."""
    y = np.asarray(y, dtype=float)
    if snr_db is None:
        return y.copy()
    sigma = np.sqrt(float(y @ y) / (y.size * 10.0 ** (snr_db / 10.0)))
    rng = np.random.default_rng(seed)
    return y + sigma * rng.standard_normal(y.size)


def build_problem(cfg, seed=None, reuse=None):
    """Instantiate every component a run needs; deterministic per seed.

    One chain of stages (operator, signal, measurement y, basis, prior,
    denoiser, solver), each built from its resolved section, its spawned
    seed and the stages before it.  `reuse`, an earlier build (a sweep's
    previous point), lends its stages up to the first whose section or seed
    differs; it is then emptied, so what it does not share is freed before
    the rest are rebuilt, and takes this build's stages as each is made: a
    failed build leaves the next the stages it finished.  The result equals
    a build without it.
    """
    cfg = _resolve_config(cfg)
    problem = cfg["problem"]
    if problem == "toy3d":
        raise ConfigError("toy3d has its own runner: use run_toy3d (CLI subcommand `toy3d`)")
    seed = int(cfg["seed"]) if seed is None else int(seed)
    op_seed, sig_seed, basis_seed, prior_seed, noise_seed = _seeds(seed, 5)
    pb = {"problem": problem, "seed": seed, "snr_db": cfg["noise"]["snr_db"], "stages": {}}
    chain = (  # (stage, what it reads besides earlier stages, its builder)
        ("operator", (problem, cfg["operator"], op_seed),
         lambda: {"op": make_operator(problem, cfg["operator"], op_seed)}),
        ("signal", (cfg["signal"], sig_seed),
         lambda: {"x_star": _build_signal(cfg["signal"], pb["op"], sig_seed)}),
        ("measurement", (pb["snr_db"], noise_seed),
         lambda: {"y": add_measurement_noise(pb["op"].forward(pb["x_star"]),
                                             pb["snr_db"], noise_seed)}),
        ("basis", (cfg["basis"], basis_seed),
         lambda: {"basis": _build_basis(cfg["basis"], cfg["operator"], pb["op"], basis_seed)}),
        ("prior", (cfg["prior"], prior_seed),
         lambda: _build_prior(cfg["prior"], cfg["signal"], pb["op"], pb["basis"], prior_seed)),
        ("denoiser", cfg["denoiser"], lambda: {"denoiser": _build_denoiser(cfg["denoiser"])}),
        ("solver", cfg["solver"],
         lambda: _build_solver(cfg["solver"], pb["op"], pb["basis"], pb["x_star"])),
    )
    built = reuse["stages"] if reuse else {}
    key = ()
    for stage, reads, build in chain:
        key += (reads,)  # a stage is kept only if every stage before it is
        if stage in built and _same(built[stage][0], key):
            parts = built[stage][1]
        else:  # what the earlier build does not share is freed before this stage is made
            if built:
                reuse.clear()
                reuse["stages"] = pb["stages"]
                built = {}
            parts = build()
        pb["stages"][stage] = (key, parts)
        pb.update(parts)
    return pb


def _same(a, b):
    try:  # a stage key that holds an array (a mask or kernel given as one) never is
        return bool(a == b)
    except ValueError:
        return False


def _gamma_eff(config):
    """The weight of S'S in the theory report: gamma, or 1 at gamma = 0.

    The penalty weights S by sqrt(gamma), so ric_s and ||sqrt(gamma) S||
    are measured on sqrt(gamma) S.
    """
    return config.gamma if config.gamma > 0 else 1.0


def _penalized_solve(pb):
    """The penalized solve of `pb` on its y; returns (x, trace, CloudConstants).

    The theory constants are measured on the iterates as the solve makes
    them (`diagnostics.CloudConstants`), so no iterate is stored.
    """
    op, x_star, denoiser, config = (pb[k] for k in ("op", "x_star", "denoiser", "solver_config"))
    # D(x*) serves the report's fixed-point check and the x* pairs of delta
    cloud = CloudConstants(op, pb["basis"], _gamma_eff(config), denoiser, x_star,
                           dn.denoise(denoiser, x_star, op.shape_in))
    x, trace = _solve(pb, config, observer=cloud.observe)
    return x, trace, cloud


def _theory_report(pb, trace, cloud):
    """Every theory constant of the penalized solve that made `trace`.

    `cloud` holds the constants measured on that solve's iterates
    (`_penalized_solve`).
    """
    op, basis, config, x_star = (pb[k] for k in ("op", "basis", "solver_config", "x_star"))
    notes = []  # one per assumption the report cannot certify
    gamma_eff = _gamma_eff(config)
    ric_s, ric_h = cloud.ric
    delta_hat = cloud.delta_hat
    dx = cloud.x_star_image
    err_norm = pb["prior"].error_norm(pb["y"], x_star)
    K = pb["prior"].lipschitz
    xn = float(np.linalg.norm(x_star))
    if ric_s >= 1.0:
        notes.append("isometry constant of S reached 1 on the iterate cloud")
    if np.isnan(K):
        notes.append("no declared Lipschitz constant for a trained prior")
    elif K > 0 and err_norm > K * (1.0 + ric_h) * xn:
        notes.append("realized prior error exceeds K (1 + ric_h) ||x*||")
    elif K == 0.0 and err_norm > 0.0:
        notes.append("nonzero prior error with K = 0 cannot be certified")
    # the contraction argument treats the truth as a fixed point of the full
    # map, which requires the denoiser to leave it unchanged
    if np.linalg.norm(dx - x_star) > 1e-9 * (1.0 + xn):
        notes.append("ground truth is not a fixed point of the denoiser")
    # a pnp_admm step left auto (None) is resolved from P's spectrum here
    est = compute_rho(delta_hat, config.alpha, op, basis, gamma_eff, ric_s)
    # a prior that declares no K (nan) leaves the C1 that read it nan
    C1, C2 = decay_constants(est.alpha, K, ric_s, ric_h, xn)
    C1v, C2v = decay_constants_statement_variant(est.alpha, K, ric_s, ric_h, xn)
    ciz = detect_ciz(trace.proj_err_sq, err_norm)
    ciz_rip = detect_ciz_rip_variant(trace.err_sq, ric_s, err_norm)
    return TheoryReport(delta_hat, ric_s, ric_h, K, err_norm, est.rho,
                        est.rho_squared_form, est.gradient_op_norm,
                        est.s_spectral_norm, C1, C2, C1v, C2v, est.alpha,
                        config.gamma, xn, ciz, ciz_rip, not notes, notes)


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


def _baseline_key(pb):
    """What the baseline solve of `pb` reads.

    Every stage through the denoiser, the solver section but gamma and
    alpha, and the resolved step for the kinds that step by it: the baseline
    is the penalized solve's config at gamma = 0, step included.
    """
    *stages, section = pb["stages"]["solver"][0]
    section = {k: v for k, v in section.items() if k not in ("gamma", "alpha")}
    step = pb["solver_config"].alpha if pb["solver_kind"] in _STEPPED_KINDS else None
    return tuple(stages), section, step


def run(cfg, out_dir=None, seed=None, reuse=None):
    """Paired baseline / penalized solve; writes traces, theory report, summary.

    `reuse` is an earlier problem the build may take stages from
    (`build_problem`), and its baseline solve, kept under "baseline" with
    what it read (`_baseline_key`): a point that reads the same takes it
    unsolved.  In a gamma sweep that is every point of a pnp_admm solver,
    which never reads its step, and for the stepped kinds each point whose
    step equals the last one's (with an exact complement, every gamma up to
    lambda_max(H'H) when alpha is auto).  The result holds this run's
    problem, its baseline included, under "problem".
    """
    held = reuse.pop("baseline", None) if reuse else None  # build_problem empties reuse
    pb = build_problem(cfg, seed=seed, reuse=reuse)
    out_dir = resolve_output_dir(cfg, out_dir)
    x_star, config_npn = pb["x_star"], pb["solver_config"]
    key = _baseline_key(pb)
    if held is None or not _same(held[0], key):
        held = None  # freed before the new baseline is solved
        held = key, _solve(pb, replace(config_npn, gamma=0.0))
    pb["baseline"] = held
    if reuse is not None:  # a point that fails from here on passes it on
        reuse["baseline"] = held
    x_base, tr_base = held[1]
    x_npn, tr_npn, cloud = _penalized_solve(pb)

    report = _theory_report(pb, tr_npn, cloud)
    tr_base.set_ciz(detect_ciz(tr_base.proj_err_sq, report.error_norm))
    tr_npn.set_ciz(report.ciz)
    tr_base.to_csv(os.path.join(out_dir, "trace_baseline.csv"))
    tr_npn.to_csv(os.path.join(out_dir, "trace_npn.csv"))
    report.save(os.path.join(out_dir, "theory.txt"))
    training = pb["prior"].report
    if training is not None:
        training.save_history_csv(os.path.join(out_dir, "training_history.csv"))

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
        "holdout_error": np.nan if training is None else training.holdout_projection_error,
    }
    write_summary_csv(os.path.join(out_dir, "summary.csv"), [summary])
    return {"x_baseline": x_base, "x_npn": x_npn, "trace_baseline": tr_base,
            "trace_npn": tr_npn, "theory": report, "summary": summary, "problem": pb}


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
        error = dict(prior.get("error") or {}, eps=float(value))
        if error.get("kind") in (None, "zero"):  # eps makes a zero error gaussian
            error["kind"] = "gaussian"
        prior["error"] = error
    elif param == "af":
        op = cfg["operator"]
        mask = op.get("mask")
        if cfg["problem"] != "mri" or not isinstance(mask, dict):
            raise ConfigError("sweep parameter 'af' needs an mri problem with a mask spec")
        if float(value) <= 0:
            raise ConfigError("sweep parameter 'af' must be positive")
        mri = resolve("operator", op, "mri")  # a DFT mask counts representatives, not n
        pool = len(mask_pool(mri["shape"], mri["transform"]))
        op["mask"] = dict(mask, count=max(1, int(round(pool / float(value)))))
    elif param == "sigma_blur":
        # an sr operator without a kernel is bilinear, which has no sigma
        kernel = cfg["operator"].get("kernel")
        if cfg["problem"] not in ("blur", "sr") or not (
                isinstance(kernel, dict) and kernel.get("kind") == "gaussian"):
            raise ConfigError("sweep parameter 'sigma_blur' needs a blur or sr "
                              "problem with a gaussian kernel")
        cfg["operator"]["kernel"] = dict(kernel, sigma=float(value))
    else:
        raise ConfigError(f"unknown sweep parameter {param!r} "
                          f"(choose from {SWEEP_PARAMS})")
    return cfg


def sweep(cfg, param, grid, out_dir=None, seed=None):
    """One run per grid point with a shared seed; partial failures recorded.

    Every point's config is checked before any point runs, so a parameter
    that does not apply raises ConfigError and writes nothing.  Points run
    one after another, in grid order, and each keeps the stages of the last
    built problem that its value leaves unchanged (`build_problem`): a
    gamma sweep trains a net prior once.  It also keeps the last baseline
    solve, which a point takes when it reads the same (`run`): a gamma
    sweep of pnp_admm solves its baseline once.  Threads were slower on the
    limited-angle CT sweep: the points contend for the interpreter lock and
    for the cores BLAS already uses.
    """
    cfg = validate_config(cfg)
    grid = list(grid)
    if not grid:
        raise ConfigError("sweep grid is empty")
    point_cfgs = [validate_config(apply_sweep_value(cfg, param, value)) for value in grid]
    out_dir = resolve_output_dir(cfg, out_dir)
    fields = (param,) + SUMMARY_FIELDS + ("error",)

    rows, pb = [], None
    for i, (value, point_cfg) in enumerate(zip(grid, point_cfgs)):
        point_dir = os.path.join(out_dir, f"point_{i:03d}")
        row = {param: value, "error": ""}
        try:
            os.makedirs(point_dir, exist_ok=True)
            result = run(point_cfg, out_dir=point_dir, seed=seed, reuse=pb)
            row.update(result["summary"])
            pb = result["problem"]
            # only the summary and the problem are kept: a point's traces and
            # reconstructions are freed before the next point runs
            del result
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
    cfg = _resolve_config(cfg)
    if cfg["problem"] == "toy3d":
        raise ConfigError("theory check does not apply to toy3d")
    if cfg["prior"]["kind"] != "oracle":
        raise ConfigError("theory check requires an oracle prior")
    if cfg["basis"]["method"] not in ("qr", "fourier"):
        raise ConfigError("theory check requires an exact (qr/fourier) basis")
    if (kind := cfg["solver"]["kind"]) in ("pnp_admm", "red_fista"):
        raise ConfigError(f"theory check does not apply to solver {kind!r}: its bounds "
                          "govern the proximal-gradient map, which it does not iterate")
    cfg["solver"] = dict(cfg["solver"], momentum="none")

    pb = build_problem(cfg, seed=seed)
    _, trace, cloud = _penalized_solve(pb)
    report = _theory_report(pb, trace, cloud)
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
    cfg = _resolve_config(cfg)
    if cfg["problem"] != "toy3d":
        raise ConfigError("run_toy3d needs problem: toy3d")
    toy = cfg["toy3d"]
    seed = int(cfg["seed"]) if seed is None else int(seed)
    hidden, epochs, lr = int(toy["hidden"]), int(toy["epochs"]), float(toy["lr"])
    gamma, init_scale = float(toy["gamma"]), float(toy["init_scale"])

    op_seed, data_seed, net_seed = _seeds(seed, 3)
    rng = np.random.default_rng(op_seed)
    H = rng.standard_normal((2, 3))
    basis = qr_nullspace(H, p=1, seed=op_seed)
    op = DenseOperator(H)
    points, plane = toy_plane_disk(int(toy["count"]), float(toy["radius"]), seed=data_seed)

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

    axis = np.linspace(float(toy["grid_lo"]), float(toy["grid_hi"]), int(toy["grid_points"]))
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
    config = SolverConfig(alpha=alpha, gamma=gamma, iters=int(toy["iters"]), x_star=x_star,
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
