"""Config-driven experiment runner.

A YAML config names a problem, an operator, a projection basis, a prior, a
denoiser, and a solver; `run` executes the baseline (gamma = 0) and the
penalized solve on the same noise realization, writes both traces as CSV,
and appends a measured theory report.  `sweep` repeats a run over a
parameter grid, `theory_check` verifies the contraction and penalty-decay
bounds on an assumption-certified configuration of a proximal-gradient
solver, and `run_toy3d` reproduces the three-dimensional geometry experiment.

Configs are strict: `SCHEMA` declares each key of each section's kinds
once, with its default and its admissible values and their type, the
operator's (one kind per problem) and its mask and kernel specs included.
A config is resolved against it once, before anything is built: an
unknown kind or key, a missing required key or a value its key does not
admit raises ConfigError, as do the few rules that span keys
(`_resolve_config`), a key given as null takes its default, and every
other value comes back as its key's type, which the builders take as is.
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
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np
import yaml

from . import denoisers as dn
from .diagnostics import (
    CloudConstants,
    TheoryReport,
    compute_rho,
    decay_constants,
    detect_ciz,
    estimate_ric,  # unread here; bench/tracer.py wraps it under this name
    penalty_decay_bound,
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
    SolverConfig,
    default_alpha,
    solve_fista_sparsity,  # unread here; bench/tracer.py wraps it under this name
    solve_pnp_admm,
    solve_pnp_fista,
    solve_red_fista,
)

OUTPUT_ENV_VAR = "NULLPRIOR_OUT"

CS_DISTS = ("gaussian", "binary")  # the entries of a cs operator's random matrix

# fista_sparsity is PnP-FISTA whose denoiser, made by `_build_solver`, is its prox
_SOLVERS = {"pnp_fista": solve_pnp_fista, "red_fista": solve_red_fista,
            "pnp_admm": solve_pnp_admm, "fista_sparsity": solve_pnp_fista}
# the kinds whose iteration steps by alpha; pnp_admm's x-update is a CG solve
# of H'H + gamma S'S + rho I, so its alpha feeds only the theory report, and
# an auto one is left for the report to take from P's spectrum
_STEPPED_KINDS = ("pnp_fista", "red_fista", "fista_sparsity")
# the kinds whose iteration without momentum is the map the theory report's
# rho bounds: a step of alpha on the penalized fit, then a proximal map
_PG_KINDS = ("pnp_fista", "fista_sparsity")

# marks a key that has no default; a default of None means no value, which
# the builders read as "from the operator or the seed" where one is needed
REQUIRED = object()


@dataclass(frozen=True)
class _Low:
    """A key's admissible numbers, of type `cast` (int or float), >= low (> if strict).

    Called on a number or a string of one, returns it as that type (an int
    only from an integral number); `also` is admitted besides them and
    returned as given: a literal, or a value of the types it names.  Raises
    ValueError or TypeError on any other value, as `_OneOrList` does.
    """

    low: float
    cast: type = float
    strict: bool = False
    also: object = ()

    def __call__(self, value):
        if value == self.also if isinstance(self.also, str) else isinstance(value, self.also):
            return value
        number = float(value) if isinstance(value, str) else value
        if self.cast is int and int(number) != number:
            raise ValueError(f"{value!r} is not an integer")
        number = self.cast(number)
        if not (number > self.low if self.strict else number >= self.low):
            raise ValueError(f"{value!r} is out of range")
        return number

    def __str__(self):
        kind = "an integer" if self.cast is int else "a number"
        return kind if self.low == -np.inf else f"{kind} {'>' if self.strict else '>='} {self.low}"


@dataclass(frozen=True)
class _OneOrList:
    """A key's admissible values: one value `item` admits, or a non-empty list of them."""

    item: object

    def __call__(self, value):
        if isinstance(value, (list, tuple, np.ndarray)) and len(value) > 0:
            return [self.item(v) for v in value]
        return self.item(value)

    def __str__(self):
        return f"{self.item}, or a list of values {self.item}"


def _admit(admits, value):
    """value as `admits` declares it: the choice it equals (1 is True), or what admits makes."""
    return admits[admits.index(value)] if isinstance(admits, tuple) else admits(value)


_COUNT, _SEED = _Low(1, int), _Low(0, int)  # an integer >= 1, an integer >= 0
_NONNEG, _POSITIVE = _Low(0), _Low(0, strict=True)
_BOOL = (False, True)
# ct's angles: a count of equispaced angles in [0, 180), or a list of them
_ANGLES = _Low(1, int, also=(list, tuple, np.ndarray))
_SHAPE = _OneOrList(_COUNT)  # a signal's side, or its sides

_COMPONENTS = {"seed": (0, _SEED), "output": (None, None), "signal": (None, None),
               "operator": (REQUIRED, None), "basis": (None, None), "prior": (None, None),
               "denoiser": (None, None), "solver": (REQUIRED, None), "noise": (None, None)}

# the admissible values of each solver key
_SOLVER_ADMITS = {"alpha": _Low(0, strict=True, also="auto"), "gamma": _NONNEG,
                  "lam": _NONNEG, "iters": _COUNT, "momentum": MOMENTA, "restart": RESTARTS,
                  "transform": dn.SPARSITY_TRANSFORMS, "rho": _POSITIVE, "cg_tol": _POSITIVE,
                  "cg_maxiter": _COUNT}


def _solver_keys(*keys):
    """Keys of a solver kind, defaulting as SolverConfig's fields (alpha to auto)."""
    defaults = {f.name: f.default for f in fields(SolverConfig)}
    defaults.update(alpha="auto", transform="dct")
    return {key: (defaults[key], _SOLVER_ADMITS[key]) for key in keys}


# the solver keys every one of the _STEPPED_KINDS reads
_FISTA_KEYS = ("alpha", "gamma", "iters", "momentum", "restart")

# section: (the key naming its kind, the default kind, {kind: {key: (default,
# admissible values)}}); a key admits its tuple of choices, the values its
# `_Low` or `_OneOrList` converts to its type (`_admit`), or any value if None
SCHEMA = {
    "top level": ("problem", None, {
        **dict.fromkeys(("cs", "mri", "blur", "sr", "ct"), _COMPONENTS),
        "toy3d": {"seed": _COMPONENTS["seed"], "output": (None, None), "toy3d": (None, None)}}),
    "signal": ("kind", None, {
        "sparse": {"n": (None, _COUNT), "k": (8, _COUNT)},
        "piecewise": {"n": (None, _COUNT), "segments": (REQUIRED, _COUNT)},
        "shepp_logan": {"side": (None, _COUNT)},
        "bumps": {"side": (None, _COUNT), "count": (5, _COUNT)}}),
    "prior": ("kind", "oracle", {
        "oracle": {"error": (None, None)},
        "net": {"hidden": (64, _COUNT), "epochs": (300, _COUNT), "lr": (1e-3, _POSITIVE),
                "batch": (None, _COUNT), "lambda1": (0.0, _NONNEG), "lambda2": (0.0, _NONNEG),
                "activation": ("tanh", ACTIVATIONS), "train_count": (300, _COUNT),
                "holdout": (0.2, _NONNEG), "normalize": (True, _BOOL),
                "noise_std": (0.0, _NONNEG)}}),
    # the oracle prior's error spec
    "error": ("kind", "zero", {
        "zero": {}, "gaussian": {"eps": (REQUIRED, _NONNEG), "seed": (None, _SEED)},
        "lipschitz": {"eps": (REQUIRED, _NONNEG), "K": (1.0, _POSITIVE),
                      "seed": (None, _SEED)}}),
    "basis": ("method", None, {
        "qr": {"p": (None, _COUNT), "scale": (1.0, _POSITIVE)},
        **{m: {"scale": (1.0, _POSITIVE)} for m in ("fourier", "toeplitz", "sr", "radon")}}),
    "denoiser": ("kind", "identity", {
        "identity": {}, "gaussian": {"sigma": (1.0, _NONNEG)},
        "dct_soft": {"tau": (0.1, _NONNEG)},
        "tv": {"weight": (0.1, _POSITIVE), "iters": (20, _COUNT)},
        "median": {"window": (3, _COUNT)}}),
    # the SolverConfig fields each kind reads (x_star is the run's own signal);
    # pnp_admm's alpha feeds only the theory report
    "solver": ("kind", "pnp_fista", {
        "pnp_fista": _solver_keys(*_FISTA_KEYS),
        "red_fista": _solver_keys(*_FISTA_KEYS, "lam"),
        "fista_sparsity": _solver_keys(*_FISTA_KEYS, "lam", "transform"),
        "pnp_admm": _solver_keys("alpha", "gamma", "iters", "rho", "cg_tol", "cg_maxiter")}),
    # an operator's kind is its problem
    "operator": (None, None, {
        "cs": {"n": (REQUIRED, _COUNT), "m": (REQUIRED, _COUNT),
               "dist": ("gaussian", CS_DISTS), "normalize": (False, _BOOL),
               "scale": (1.0, _POSITIVE)},
        "mri": {"shape": (REQUIRED, _SHAPE), "transform": ("dct", TRANSFORMS),
                "mask": (REQUIRED, None), "scale": (1.0, _POSITIVE)},
        "blur": {"shape": (REQUIRED, _SHAPE), "kernel": (REQUIRED, None),
                 "anchor": ("center", ANCHORS), "scale": (1.0, _POSITIVE)},
        "sr": {"shape": (REQUIRED, _SHAPE), "factor": (REQUIRED, _COUNT),
               "kernel": ({"kind": "bilinear"}, None), "anchor": ("center", ANCHORS),
               "scale": (1.0, _POSITIVE)},
        "ct": {"side": (REQUIRED, _COUNT), "full_angles": (REQUIRED, _ANGLES),
               "acquired": (REQUIRED, _ANGLES)}}),
    # an mri operator's mask spec (a list of indices is used as given)
    "mask": ("kind", None, {
        "lowpass": {"count": (REQUIRED, _COUNT)},
        "random": {"count": (REQUIRED, _COUNT), "seed": (None, _SEED)}}),
    # a blur or sr operator's kernel spec (a list of taps is used as given)
    "kernel": ("kind", None, {
        "gaussian": {"sigma": (REQUIRED, _POSITIVE), "radius": (None, _SEED)},
        "bilinear": {"factor": (None, _COUNT)}}),
    "noise": (None, None, {None: {"snr_db": (None, _Low(-np.inf))}}),
    "toy3d": (None, None, {None: {"epochs": (4000, _COUNT)}}),
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
    for an unknown kind, an unknown key, a missing (or null) required key or
    a value its key does not admit: the one check each key has.
    """
    kind_key, default_kind, kinds = SCHEMA[where]
    section = {} if section is None else section
    if not isinstance(section, dict):
        raise ConfigError(f"{where} section must be a mapping")
    if kind_key is not None:
        kind = section.get(kind_key, kind or default_kind)
    if kind not in kinds:
        raise ConfigError(f"unknown {where} {kind_key or 'kind'} {kind!r}")
    declared = kinds[kind]
    keys = f"{where} key(s)" + (f" for {kind_key} {kind!r}" if kind_key else "")
    unknown = set(section) - set(declared) - {kind_key}
    if unknown:
        raise ConfigError(f"unknown {keys}: {sorted(unknown, key=str)}")
    missing = [key for key, (default, _) in declared.items()
               if default is REQUIRED and section.get(key) is None]
    if missing:
        raise ConfigError(f"missing required {keys}: {missing}")
    values = {}
    for key, (default, admits) in declared.items():
        value = section.get(key)
        if value is None:
            value = default
        elif admits is not None:
            try:
                value = _admit(admits, value)
            except (TypeError, ValueError, OverflowError):
                raise ConfigError(f"unknown {where} {key} {value!r} (choose from {admits})"
                                  if isinstance(admits, tuple)
                                  else f"{where} {key} must be {admits}, not {value!r}") from None
        values[key] = value
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
    """cfg with every section resolved and the rules that span keys checked; cfg is unchanged."""
    top = resolve("top level", cfg)
    if top["problem"] == "toy3d":
        top["toy3d"] = resolve("toy3d", top["toy3d"])
        return top
    signal_kind, basis_method = _PROBLEM_KINDS[top["problem"]]
    top["signal"] = resolve("signal", top["signal"], signal_kind)
    prior = top["prior"] = resolve("prior", top["prior"])
    if prior["kind"] == "oracle":
        prior["error"] = resolve("error", prior["error"])
    elif round(prior["holdout"] * prior["train_count"]) >= prior["train_count"]:
        # `priors._train`'s split
        raise ConfigError(f"prior holdout {prior['holdout']!r} leaves none of the "
                          f"{prior['train_count']} training signals to train on")
    basis = top["basis"] = resolve("basis", top["basis"], basis_method)
    if basis["method"] not in ("qr", basis_method):
        raise ConfigError(f"basis method {basis['method']!r} does not fit problem "
                          f"{top['problem']!r}")
    top["noise"] = resolve("noise", top["noise"])
    top["solver"] = resolve("solver", top["solver"])
    if top["solver"]["kind"] != "fista_sparsity":
        top["denoiser"] = resolve("denoiser", top["denoiser"])
    elif top["denoiser"] is not None:
        raise ConfigError("solver kind 'fista_sparsity' reads no denoiser section: "
                          "its denoiser is its prox")
    top["operator"] = _resolve_operator(top["problem"], top["operator"])
    # a qr or radon basis holds a dense matrix of n columns, and so does a net
    # prior's training, which densifies its basis: past the cap they are
    # refused before anything is built
    dense = {"a qr basis": basis["method"] == "qr", "a radon basis": basis["method"] == "radon",
             "a net prior": prior["kind"] == "net"}
    for what, needed in dense.items():
        if needed and (n := _signal_length(top["problem"], top["operator"])) > DENSE_CAP:
            raise ConfigError(f"{what} needs n <= {DENSE_CAP}, not n = {n}")
    return top


def _signal_length(problem, op):
    """n of the operator a resolved operator section builds."""
    return (op["n"] if problem == "cs" else op["side"] ** 2 if problem == "ct"
            else np.prod(op["shape"]))


def _resolve_operator(problem, section):
    """The operator section of `problem`, its mask or kernel spec resolved too.

    Also rejects a mask count above the number of frequencies it chooses
    from, and a blur operator's bilinear kernel without a factor.
    """
    op = resolve("operator", section, problem)
    if problem == "mri" and isinstance(op["mask"], dict):
        op["mask"] = mask = resolve("mask", op["mask"])
        pool = len(mask_pool(op["shape"], op["transform"]))
        if mask["count"] > pool:
            raise ConfigError(f"mri mask count {mask['count']} is outside "
                              f"[1, {pool}], the frequencies it chooses from")
    elif problem in ("blur", "sr") and isinstance(op["kernel"], dict):
        op["kernel"] = kernel = resolve("kernel", op["kernel"])
        if kernel["kind"] == "bilinear" and kernel["factor"] is None:
            if problem == "blur":
                raise ConfigError("a blur operator's bilinear kernel needs a factor")
            kernel["factor"] = op["factor"]
    return op


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
        n, m = op["n"], op["m"]
        if m > n:
            raise DimensionMismatchError(f"m={m} exceeds n={n}")
        rng = np.random.default_rng(seed)
        if op["dist"] == "binary":
            mat = rng.integers(0, 2, size=(m, n)).astype(float)
        else:
            mat = rng.standard_normal((m, n))
        if op["normalize"]:
            mat /= np.sqrt(n)
        return DenseOperator(op["scale"] * mat)
    if problem == "ct":
        angles = op["acquired"]
        if np.isscalar(angles):  # a count: the first of the full angles
            angles = _full_angles(op["full_angles"])[:angles]
        return RadonOperator(op["side"], angles)
    shape = op["shape"]
    if problem == "mri":
        mask = op["mask"]
        if isinstance(mask, dict) and mask["kind"] == "lowpass":
            mask = lowpass_mask(shape, mask["count"], op["transform"])
        elif isinstance(mask, dict):
            mask_seed = seed if mask["seed"] is None else mask["seed"]
            mask = random_mask(shape, mask["count"], mask_seed, op["transform"])
        base = MaskedFrequencyOperator(shape, mask, op["transform"])
    else:
        ndim = 1 if np.isscalar(shape) else len(shape)
        kernel = op["kernel"]
        if isinstance(kernel, dict) and kernel["kind"] == "gaussian":
            kernel = gaussian_kernel(kernel["sigma"], kernel["radius"], ndim)
        elif isinstance(kernel, dict):
            kernel = bilinear_kernel(kernel["factor"], ndim)
        base = (CirculantConvOperator(shape, kernel, op["anchor"]) if problem == "blur"
                else DecimatedConvOperator(shape, kernel, op["factor"], op["anchor"]))
    return base if op["scale"] == 1.0 else ScaledOperator(base, op["scale"])


def _full_angles(full):
    """CT's full angle list: a count of equispaced angles in [0, 180), or the angles."""
    return [180.0 * i / full for i in range(full)] if np.isscalar(full) else full


def _build_signal(spec, op, seed):
    """A signal of the resolved `signal` spec; an unset size is the operator's."""
    if "side" in spec:  # a 2-D phantom
        spec = dict(spec, side=op.shape_in[0] if spec["side"] is None else spec["side"])
        if op.shape_in != (spec["side"], spec["side"]):
            raise ConfigError("2-D phantom side must match the operator shape")
    else:
        spec = dict(spec, n=op.n if spec["n"] is None else spec["n"])
        if spec["n"] != op.n:
            raise ConfigError("signal length must match the operator")
    return np.asarray(generate(spec, seed=seed), dtype=float).reshape(-1)


def _build_basis(basis_cfg, op_cfg, op, seed):
    method, scale = basis_cfg["method"], basis_cfg["scale"]
    if method == "qr":
        p = op.n - op.m_eff if basis_cfg["p"] is None else basis_cfg["p"]
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

    train_seed = seed + 1
    xs = np.array([_build_signal(signal_cfg, op, s)
                   for s in _seeds(train_seed, prior_cfg["train_count"])])
    net = TwoLayerNet(op.m_eff, basis.p, prior_cfg["hidden"], prior_cfg["activation"],
                      seed=train_seed)
    training = {"epochs": prior_cfg["epochs"], "lr": prior_cfg["lr"],
                "batch_size": prior_cfg["batch"], "seed": train_seed,
                "holdout_frac": prior_cfg["holdout"], "normalize": prior_cfg["normalize"],
                "noise_std": prior_cfg["noise_std"]}
    lam1, lam2 = prior_cfg["lambda1"], prior_cfg["lambda2"]
    if lam1 > 0 or lam2 > 0:
        net, basis, report = train_joint(net, basis, xs, op.to_dense(), lam1, lam2,
                                         **training)
        return {"prior": TrainedPrior(net, basis, report), "basis": basis}
    return {"prior": TrainedPrior(net, basis, train_mmse(net, xs, op, basis, **training))}


def _build_solver(solver_cfg, op, basis, x_star):
    """The solver stage: its kind, SolverConfig, and fista_sparsity's denoiser (its prox).

    `alpha: auto` is resolved here (`default_alpha`) only for the
    `_STEPPED_KINDS`; for pnp_admm it stays None, and the theory report
    takes the step from the spectrum of P it forms anyway (`compute_rho`).
    """
    # a field the kind does not read keeps SolverConfig's default
    values = {key: value for key, value in solver_cfg.items()
              if key not in ("kind", "alpha", "transform")}
    alpha = solver_cfg["alpha"]
    if alpha == "auto":
        alpha = (default_alpha(op, basis, gamma=values["gamma"])
                 if solver_cfg["kind"] in _STEPPED_KINDS else None)
    built = {"solver_kind": solver_cfg["kind"],
             "solver_config": SolverConfig(alpha=alpha, x_star=x_star, **values)}
    if solver_cfg["kind"] == "fista_sparsity":
        built["denoiser"] = dn.TransformSoftThreshold(alpha * values["lam"],
                                                      solver_cfg["transform"])
    return built


def _solve(pb, config, observer=None):
    prior = partial(pb["prior"].predict, x_star=pb["x_star"])
    return _SOLVERS[pb["solver_kind"]](pb["op"], pb["y"], pb["denoiser"], config,
                                       pb["basis"], prior, observer=observer)


def add_measurement_noise(y, snr_db, seed):
    """Gaussian noise with variance ||y||^2 / (len(y) 10^(snr/10))."""
    y = np.asarray(y, dtype=float)
    if snr_db is None:
        return y.copy()
    sigma = np.sqrt(float(y @ y) / (y.size * 10.0 ** (float(snr_db) / 10.0)))
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
    cfg = _resolve_config(cfg if seed is None else dict(cfg, seed=seed))
    problem = cfg["problem"]
    if problem == "toy3d":
        raise ConfigError("toy3d has its own runner: use run_toy3d (CLI subcommand `toy3d`)")
    seed = cfg["seed"]
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
        ("denoiser", cfg["denoiser"],  # none for fista_sparsity: its solver stage makes it
         lambda: {} if cfg["denoiser"] is None else {"denoiser": _build_denoiser(cfg["denoiser"])}),
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
    iterated = pb["solver_kind"]
    if iterated in _PG_KINDS and config.momentum != "none":
        iterated += f" with {config.momentum} momentum"
    if iterated not in _PG_KINDS:
        notes.append("rho bounds the proximal-gradient map without momentum (a step of "
                     f"alpha, then the denoiser), not the map of {iterated}")
    # a pnp_admm step left auto (None) is resolved from P's spectrum here
    est = compute_rho(delta_hat, config.alpha, op, basis, gamma_eff, ric_s)
    # a prior that declares no K (nan) leaves the C1 that read it nan
    C1, C2 = decay_constants(est.alpha, K, ric_s, ric_h, xn)
    ciz = detect_ciz(trace.proj_err_sq, err_norm)
    return TheoryReport(delta_hat, ric_s, ric_h, K, err_norm, est.rho,
                        est.gradient_op_norm, est.s_spectral_norm, C1, C2,
                        est.alpha, config.gamma, xn, ciz, not notes, notes)


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
    config_npn = pb["solver_config"]
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

    # each solve returns the iterate of its trace's last row
    summary = {
        "problem": pb["problem"], "seed": pb["seed"], "gamma": config_npn.gamma,
        "snr_db": pb["snr_db"] if pb["snr_db"] is not None else np.nan,
        "psnr_baseline": tr_base.psnr[-1], "psnr_npn": tr_npn.psnr[-1],
        "err_baseline": np.sqrt(tr_base.err_sq[-1]), "err_npn": np.sqrt(tr_npn.err_sq[-1]),
        "improvement_db": tr_npn.psnr[-1] - tr_base.psnr[-1],
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
        cfg.setdefault("solver", {})["gamma"] = value
    elif param == "p":
        cfg.setdefault("basis", {})["p"] = value
    elif param == "eps":
        prior = cfg.setdefault("prior", {"kind": "oracle"})
        error = dict(prior.get("error") or {}, eps=value)
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
        cfg["operator"]["kernel"] = dict(kernel, sigma=value)
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
    cfg = validate_config(cfg if seed is None else dict(cfg, seed=seed))
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
            result = run(point_cfg, out_dir=point_dir, reuse=pb)
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
    if (kind := cfg["solver"]["kind"]) not in _PG_KINDS:
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
        # the trace's ratio is of squared errors, rho bounds the unsquared one
        checks["contraction"] = bool(np.all(np.sqrt(ratios[keep]) <= report.rho + RATIO_TOL))
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

# the toy experiment's fixed settings: the disk's point count and radius, the
# nets' hidden width, first-layer scale and learning rate, the grid off the
# disk (low, high, points per axis), and the inverse solve's gamma and iters
_TOY_COUNT, _TOY_RADIUS, _TOY_HIDDEN, _TOY_INIT_SCALE, _TOY_LR = 500, 1.0, 50, 0.1, 5e-3
_TOY_GRID = (2.0, 4.0, 5)
_TOY_GAMMA, _TOY_ITERS = 1.0, 200


def run_toy3d(cfg, out_dir=None, seed=None):
    """Disk-supported data in a 2-plane of R^3: subspace prior vs direct net.

    Trains a small net to predict the 1-D projection from 2 measurements and
    a same-size net to reconstruct the full signal, then compares their
    projection errors on the training disk and on an out-of-distribution
    grid; finally solves the inverse problem with the trained prior.
    """
    cfg = _resolve_config(cfg if seed is None else dict(cfg, seed=seed))
    if cfg["problem"] != "toy3d":
        raise ConfigError("run_toy3d needs problem: toy3d")
    seed, epochs = cfg["seed"], cfg["toy3d"]["epochs"]

    op_seed, data_seed, net_seed = _seeds(seed, 3)
    rng = np.random.default_rng(op_seed)
    H = rng.standard_normal((2, 3))
    basis = qr_nullspace(H, p=1, seed=op_seed)
    op = DenseOperator(H)
    points, plane = toy_plane_disk(_TOY_COUNT, _TOY_RADIUS, seed=data_seed)

    proj_net = TwoLayerNet(2, 1, _TOY_HIDDEN, "tanh", seed=net_seed,
                           init_scale=_TOY_INIT_SCALE)
    rep_proj = train_mmse(proj_net, points, op, basis, epochs=epochs, lr=_TOY_LR,
                          seed=net_seed, holdout_frac=0.2, normalize=False)

    direct_net = TwoLayerNet(2, 3, _TOY_HIDDEN, "tanh", seed=net_seed + 1,
                             init_scale=_TOY_INIT_SCALE)
    identity_basis = NullSpaceBasis(np.eye(3), "learned", np.nan, 0.0)
    rep_direct = train_mmse(direct_net, points, op, identity_basis,
                            epochs=epochs, lr=_TOY_LR, seed=net_seed + 1,
                            holdout_frac=0.2, normalize=False)

    axis = np.linspace(*_TOY_GRID)
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
    alpha = default_alpha(op, basis, gamma=_TOY_GAMMA)
    config = SolverConfig(alpha=alpha, gamma=_TOY_GAMMA, iters=_TOY_ITERS, x_star=x_star,
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
