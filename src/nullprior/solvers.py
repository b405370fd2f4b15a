"""Iterative solvers with an optional null-space subspace penalty.

Three solves share one accelerated loop: plug-and-play FISTA (gradient step
then denoiser), FISTA with a sparsity prox (PnP-FISTA whose denoiser is that
soft-threshold) and RED-FISTA (denoiser residual added to the gradient).
Plug-and-play ADMM solves its data subproblem by conjugate gradient.

With a projection basis S, a prior estimate g = G(y), and a weight gamma > 0,
every gradient step gains the term gamma * S'(S z - g), pulling the iterate's
null-space projection toward the learned estimate.  With gamma = 0 (or no
prior) the extra term is skipped entirely, so baseline runs are bit-identical
to the dedicated no-penalty path.

Each solve records a full per-iteration trace (squared errors, projected
errors, penalty value, data residual, PSNR, per-step contraction ratio,
squared step).  It stores no iterates: the recorder keeps only the previous
one, for the step, and hands each recorded iterate, with the differences
its row forms, to an optional per-solve observer, called as
observer(x, d, d_sq, images, step, step_sq): d = x - x*, d_sq = ||d||^2,
images = (H d, S d), step = x - x_prev and step_sq = ||step||^2, both
None for the first iterate.  `experiments` passes
`diagnostics.CloudConstants.observe`, which measures the theory report's
constants on the iterates as they arrive, so a solve holds O(n) memory
whatever its iteration count.

The FISTA loop applies H and S once to each new iterate x and shares H x
and S x with the trace.  The momentum point z = x + beta (x - x_prev) is
affine in the iterates, so H z and S z are carried the same way instead of
applied.  A penalized iteration needs H x, S x, H'(H z - y) + gamma
S'(S z - g) and S (x - x*) for the projected error; a baseline iteration
the same without S', or only H x and H'(H z - y) without a basis.  H and S
go through one `nullspace.OperatorPair`: for a masked DCT or DFT with its
Fourier complement, [H; S] is the full transform, so H x and S x come from
one transform and the gradient from one inverse, and a penalized or a
baseline iteration costs three transforms.  Other pairs apply each
operator separately: five applications per penalized iteration, four per
baseline one.  S (x - x*) stays its own application, because near
convergence S x - S x* would cancel.  With an observer, S d comes from
one pair application of d that also gives the observer H d: a masked
pair still costs three transforms per penalized iteration, any other
pair six applications.  `CloudConstants` takes its (x, x*) pair from d
and its images, and adds one pair application per consecutive-iterate
difference above the resolution floor (one transform, or H and S), so a
masked-pair penalized iteration it observes costs at most four
transforms.  ADMM applies H and S inside conjugate gradient and once more
to each iterate for its trace.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .denoisers import TransformSoftThreshold, denoise
from .diagnostics import default_step, lambda_max, psnr_from_err_sq
from .errors import ConfigError, NullPriorError
from .nullspace import as_basis

DIVERGENCE_GUARD = 1e12
MOMENTA = ("fista", "none")  # FISTA, or plain proximal gradient
RESTARTS = ("none", "fista-momentum")  # no restart, or adaptive restart


@dataclass
class SolverConfig:
    """Iteration hyperparameters; x_star is for diagnostics only.

    alpha is the step of the FISTA solvers.  PnP-ADMM never takes one, so
    for it alpha may be None: its theory report then takes 0.9 /
    lambda_max(P) from the spectrum it forms (`diagnostics.compute_rho`).
    A stepped solver given None raises NullPriorError.
    """

    alpha: float | None
    gamma: float = 0.0
    lam: float = 0.0
    iters: int = 100
    momentum: str = "fista"        # "fista" | "none" (plain proximal gradient)
    restart: str = "none"          # "none" | "fista-momentum"
    rho: float = 1.0               # ADMM penalty
    cg_tol: float = 1e-8
    cg_maxiter: int = 200
    x_star: np.ndarray = None

    def __post_init__(self):
        if self.x_star is not None:
            self.x_star = np.asarray(self.x_star, dtype=float).reshape(-1)
        if self.alpha is not None and self.alpha <= 0:
            raise NullPriorError("alpha must be positive")
        if self.gamma < 0:
            raise NullPriorError("gamma must be nonnegative")
        if self.lam < 0:
            raise NullPriorError("lam must be nonnegative")
        if self.iters < 1:
            raise NullPriorError("iters must be >= 1")
        if self.momentum not in MOMENTA:
            raise ConfigError(f"unknown momentum {self.momentum!r}")
        if self.restart not in RESTARTS:
            raise ConfigError(f"unknown restart {self.restart!r}")


@dataclass
class SolverTrace:
    """Per-iteration record; row 0 is the zero initialization."""

    iters: np.ndarray
    err_sq: np.ndarray
    proj_err_sq: np.ndarray
    phi: np.ndarray
    data_res_sq: np.ndarray
    psnr: np.ndarray
    ratio: np.ndarray
    in_ciz: np.ndarray
    step_sq: np.ndarray = None          # ||x^l - x^{l+1}||^2, nan on last row
    diverged: bool = False
    flags: list = field(default_factory=list)

    def set_ciz(self, index_set):
        mask = np.zeros(len(self.iters), dtype=int)
        idx = [i for i in index_set if 0 <= i < len(mask)]
        mask[idx] = 1
        self.in_ciz = mask

    CSV_HEADER = "iter,err_sq,proj_err_sq,phi,data_res_sq,psnr,ratio,in_ciz"

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write(self.CSV_HEADER + "\n")
            for i in range(len(self.iters)):
                cells = [f"{int(self.iters[i])}"]
                cells += [f"{v:.17g}" for v in (self.err_sq[i], self.proj_err_sq[i],
                                                self.phi[i], self.data_res_sq[i],
                                                self.psnr[i], self.ratio[i])]
                cells.append(f"{int(self.in_ciz[i])}")
                fh.write(",".join(cells) + "\n")


class _Recorder:
    """Trace rows for one solve; the solver hands it H x and S x.

    `products` applies H, and S when phi is recorded (a basis and g are
    present), once per iterate; the loops reuse both.  H and S go through
    one `OperatorPair`, built here once per solve, which takes both from
    one transform for a masked frequency operator and its complement.
    `add` keeps only the previous iterate, for the squared step, and hands
    each iterate to `observer` when one is given, with what its row forms
    (the call is in the module docstring; without x* or a basis the
    missing parts are None, and d_sq is nan).  The loops make a new array
    for every iterate, so neither copies it.  `add` also decides when the
    solve stops: once an iterate leaves the divergence guard it flags the
    iteration and returns True.  The loops append their own flags (CG
    convergence) to `flags`.
    """

    def __init__(self, op, y, config, basis, g, observer=None):
        self.op = op
        self.y = y
        self.config = config
        self.basis = basis
        self.g = g
        self.pair = None if basis is None else basis.pair(op)
        self.observer = observer
        self.rows = []
        self.steps = []
        self.prev = None
        self.flags = []
        self.diverged = False

    def products(self, x):
        """H x, and S x or None."""
        if self.g is None:
            return self.op.forward(x), None
        return self.pair.forward(x)

    def start(self):
        """Record the zero initialization; H 0 = 0 and S 0 = 0 need no application."""
        x = np.zeros(self.op.n)
        h = np.zeros(self.op.m_eff)
        s = None if self.g is None else np.zeros(self.basis.p)
        self.add(0, x, h, s)
        return x, h, s

    def add(self, ell, x, h, s):
        x_star = self.config.x_star
        n = self.op.n
        diff = images = None
        if x_star is not None:
            diff = x - x_star
            err_sq = float(diff @ diff)
            psnr = psnr_from_err_sq(err_sq, n)
        else:
            err_sq = np.nan
            psnr = np.nan
        if self.basis is not None and diff is not None:
            if self.observer is None:
                pe = self.basis.project(diff)
            else:
                images = self.pair.forward(diff)
                pe = images[1]
            proj_err_sq = float(pe @ pe)
        else:
            proj_err_sq = np.nan
        if s is not None:
            r = self.g - s
            phi = float(r @ r)
        else:
            phi = np.nan
        res = h - self.y
        self.rows.append((ell, err_sq, proj_err_sq, phi, float(res @ res), psnr))
        step = step_sq = None
        if self.prev is not None:
            step = x - self.prev
            step_sq = float(step @ step)
            self.steps.append(step_sq)
        self.prev = x
        if self.observer is not None:
            self.observer(x, diff, err_sq, images, step, step_sq)
        if not np.all(np.isfinite(x)) or np.linalg.norm(x) > DIVERGENCE_GUARD:
            self.diverged = True
            self.flags.append(f"diverged at iteration {ell}")
        return self.diverged

    def finish(self):
        rows = np.array(self.rows)
        count = rows.shape[0]
        ratio = np.full(count, np.nan)
        for i in range(count - 1):
            if rows[i, 1] > 0:
                ratio[i] = rows[i + 1, 1] / rows[i, 1]
        step_sq = np.append(self.steps, np.nan)
        return SolverTrace(rows[:, 0].astype(int), rows[:, 1], rows[:, 2],
                           rows[:, 3], rows[:, 4], rows[:, 5], ratio,
                           np.zeros(count, dtype=int), step_sq,
                           self.diverged, self.flags)


def _prepare_prior(basis, prior, y, gamma):
    """Evaluate G(y) once; returns (basis, g, active) where active gates the penalty.

    A plain matrix S is wrapped as a basis here, once per solve.
    """
    if basis is not None:
        basis = as_basis(basis)
    if basis is None or prior is None or gamma <= 0:
        g = None
        if basis is not None and prior is not None:
            g = np.asarray(prior(y), dtype=float)
        return basis, g, False
    g = np.asarray(prior(y), dtype=float)
    if g.shape[0] != basis.p:
        raise NullPriorError("prior output length does not match basis rows")
    return basis, g, True


def _step(config):
    """The step alpha of a stepped solve; None is refused."""
    if config.alpha is None:
        raise NullPriorError("this solver steps by alpha; alpha is None")
    return config.alpha


def _fista_solve(op, y, config, basis, prior, update, observer):
    """Shared accelerated loop.

    update(v, z) maps the post-gradient point v of the momentum point z to
    the next iterate: the denoiser of v, or v plus the denoiser residual at z.
    """
    alpha = _step(config)
    y = np.asarray(y, dtype=float).reshape(-1)
    basis, g, active = _prepare_prior(basis, prior, y, config.gamma)
    rec = _Recorder(op, y, config, basis, g, observer)
    x_prev, h_prev, s_prev = rec.start()
    # z, H z and S z; the momentum point is affine in the iterates, so
    # H z and S z follow from the H x and S x the trace records
    z, hz, sz = x_prev, h_prev, s_prev
    t = 1.0
    for ell in range(1, config.iters + 1):
        if active:
            grad = rec.pair.adjoint(hz - y, sz - g, config.gamma)
        else:
            grad = op.adjoint(hz - y)
        x = update(z - alpha * grad, z)
        h, s = rec.products(x)
        t_prime = t
        t = (1.0 + np.sqrt(1.0 + 4.0 * t_prime * t_prime)) / 2.0
        if config.momentum == "fista":
            beta = (t_prime - 1.0) / t
            z_new = x + beta * (x - x_prev)
            hz_new = h + beta * (h - h_prev)
            sz_new = None if s is None else s + beta * (s - s_prev)
        else:
            z_new, hz_new, sz_new = x, h, s
        if config.restart == "fista-momentum" and ell > 1:
            if float((z - x) @ (x - x_prev)) > 0.0:
                t = 1.0
                z_new, hz_new, sz_new = x, h, s
        z, hz, sz = z_new, hz_new, sz_new
        x_prev, h_prev, s_prev = x, h, s
        if rec.add(ell, x, h, s):
            break
    return x_prev, rec.finish()


def solve_pnp_fista(op, y, denoiser, config, basis=None, prior=None, observer=None):
    """Gradient step on the fit (plus the subspace penalty), then the denoiser."""
    def update(v, z):
        return denoise(denoiser, v, op.shape_in)

    return _fista_solve(op, y, config, basis, prior, update, observer)


def solve_red_fista(op, y, denoiser, config, basis=None, prior=None, observer=None):
    """Gradient step plus the denoiser-residual term lam * (z - D(z)); no prox."""
    lam = config.lam

    def update(v, z):
        if lam == 0.0:
            return v
        return v - lam * (z - denoise(denoiser, z, op.shape_in))

    return _fista_solve(op, y, config, basis, prior, update, observer)


def solve_fista_sparsity(op, y, config, basis=None, prior=None, transform="dct",
                         observer=None):
    """FISTA with soft-thresholding in an orthonormal transform domain.

    With tau = config.lam, transform="dct" penalizes tau * ||DCT x||_1 and
    transform="identity" penalizes tau * ||x||_1: PnP-FISTA whose denoiser is
    the exact proximal step at step size alpha, a soft-threshold by alpha * tau.
    """
    prox = TransformSoftThreshold(_step(config) * config.lam, transform)
    return solve_pnp_fista(op, y, prox, config, basis, prior, observer)


def _conjugate_gradient(apply_A, b, x0, tol, maxiter):
    """CG for s.p.d. apply_A; returns (x, converged)."""
    x = x0.copy()
    r = b - apply_A(x)
    p = r.copy()
    rs = float(r @ r)
    b_norm = max(np.linalg.norm(b), 1e-300)
    for _ in range(maxiter):
        if np.sqrt(rs) <= tol * b_norm:
            return x, True
        Ap = apply_A(p)
        alpha = rs / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, np.sqrt(rs) <= tol * b_norm


def solve_pnp_admm(op, y, denoiser, config, basis=None, prior=None, observer=None):
    """ADMM splitting with the denoiser as the prior proximal surrogate.

    The x-subproblem (H'H + gamma S'S + rho I) x = H'y + gamma S'g + rho (v - u)
    is solved by conjugate gradient, warm-started from the previous iterate.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    basis, g, active = _prepare_prior(basis, prior, y, config.gamma)
    rec = _Recorder(op, y, config, basis, g, observer)
    shape = op.shape_in
    rho = config.rho

    def apply_A(x):
        out = op.adjoint(op.forward(x)) + rho * x
        if active:
            out = out + config.gamma * basis.backproject(basis.project(x))
        return out

    rhs_fixed = op.adjoint(y)
    if active:
        rhs_fixed = rhs_fixed + config.gamma * basis.backproject(g)

    x = rec.start()[0]
    v = np.zeros(op.n)
    u = np.zeros(op.n)
    for ell in range(1, config.iters + 1):
        x, ok = _conjugate_gradient(apply_A, rhs_fixed + rho * (v - u), x,
                                    config.cg_tol, config.cg_maxiter)
        if not ok:
            rec.flags.append(f"CG did not converge at iteration {ell}")
            warnings.warn(rec.flags[-1], RuntimeWarning)
        v = denoise(denoiser, x + u, shape)
        u = u + x - v
        if rec.add(ell, x, *rec.products(x)):
            break
    return x, rec.finish()


def default_alpha(op, basis=None, gamma=0.0):
    """0.9 over the largest eigenvalue of H'H + gamma S'S (`diagnostics.lambda_max`).

    The top of the pair's structural spectrum (an exact complement's too),
    else one Lanczos run; at gamma = 0 the basis is left out, as the
    solvers leave out the penalty.
    """
    return default_step(lambda_max(op, basis if gamma > 0 else None, gamma))
