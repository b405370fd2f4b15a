"""Iterative solvers with an optional null-space subspace penalty.

Four families share one accelerated loop: plug-and-play FISTA (gradient step
then denoiser), RED-FISTA (denoiser residual added to the gradient),
plug-and-play ADMM (conjugate-gradient data subproblem, denoiser as the
prior proximal surrogate), and FISTA with a transform-domain sparsity prox.

With a projection basis S, a prior estimate g = G(y), and a weight gamma > 0,
every gradient step gains the term gamma * S'(S z - g), pulling the iterate's
null-space projection toward the learned estimate.  With gamma = 0 (or no
prior) the extra term is skipped entirely, so baseline runs are bit-identical
to the dedicated no-penalty path.

Each solve records a full per-iteration trace (squared errors, projected
errors, penalty value, data residual, PSNR, per-step contraction ratio).
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .denoisers import denoise
from .diagnostics import psnr_from_err_sq
from .errors import NullPriorError

DIVERGENCE_GUARD = 1e12


@dataclass
class SolverConfig:
    """Iteration hyperparameters; x_star is for diagnostics only."""

    alpha: float
    gamma: float = 0.0
    lam: float = 0.0
    iters: int = 100
    momentum: str = "fista"        # "fista" | "none" (plain proximal gradient)
    restart: str = "none"          # "none" | "fista-momentum"
    rho: float = 1.0               # ADMM penalty
    cg_tol: float = 1e-8
    cg_maxiter: int = 200
    x_star: np.ndarray = None
    peak: float = 1.0

    def __post_init__(self):
        if self.x_star is not None:
            self.x_star = np.asarray(self.x_star, dtype=float).reshape(-1)
        if self.alpha <= 0:
            raise NullPriorError("alpha must be positive")
        if self.gamma < 0:
            raise NullPriorError("gamma must be nonnegative")
        if self.iters < 1:
            raise NullPriorError("iters must be >= 1")
        if self.momentum not in ("fista", "none"):
            raise NullPriorError(f"unknown momentum {self.momentum!r}")
        if self.restart not in ("none", "fista-momentum"):
            raise NullPriorError(f"unknown restart {self.restart!r}")


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
    iterates: list = field(default_factory=list, repr=False)
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


def grad_fidelity(op, x, y):
    """Gradient direction of the data fit: H'(H x - y)."""
    return op.adjoint(op.forward(x) - y)


def subspace_grad(S, x, g):
    """Gradient direction of the projection penalty: S'(S x - g)."""
    S = getattr(S, "matrix", S)
    return S.T @ (S @ np.asarray(x, dtype=float).reshape(-1) - g)


class _Recorder:
    def __init__(self, op, y, config, S, g):
        self.op = op
        self.y = y
        self.config = config
        self.S = getattr(S, "matrix", S) if S is not None else None
        self.g = g
        self.rows = []
        self.iterates = []

    def add(self, ell, x):
        x_star = self.config.x_star
        n = self.op.n
        if x_star is not None:
            diff = x - x_star
            err_sq = float(diff @ diff)
            psnr = psnr_from_err_sq(err_sq, n, self.config.peak)
        else:
            diff = None
            err_sq = np.nan
            psnr = np.nan
        if self.S is not None and diff is not None:
            pe = self.S @ diff
            proj_err_sq = float(pe @ pe)
        else:
            proj_err_sq = np.nan
        if self.S is not None and self.g is not None:
            r = self.g - self.S @ x
            phi = float(r @ r)
        else:
            phi = np.nan
        res = self.op.forward(x) - self.y
        self.rows.append((ell, err_sq, proj_err_sq, phi, float(res @ res), psnr))
        self.iterates.append(x.copy())

    def finish(self, diverged, flags):
        rows = np.array(self.rows)
        count = rows.shape[0]
        ratio = np.full(count, np.nan)
        step_sq = np.full(count, np.nan)
        for i in range(count - 1):
            if rows[i, 1] > 0:
                ratio[i] = rows[i + 1, 1] / rows[i, 1]
            d = self.iterates[i + 1] - self.iterates[i]
            step_sq[i] = float(d @ d)
        return SolverTrace(rows[:, 0].astype(int), rows[:, 1], rows[:, 2],
                           rows[:, 3], rows[:, 4], rows[:, 5], ratio,
                           np.zeros(count, dtype=int), step_sq,
                           self.iterates, diverged, flags)


def _prepare_prior(basis, prior, y, gamma):
    """Evaluate G(y) once; returns (S, g, active) where active gates the penalty."""
    if basis is None or prior is None or gamma <= 0:
        g = None
        if basis is not None and prior is not None:
            g = np.asarray(prior(y), dtype=float)
        return basis, g, False
    g = np.asarray(prior(y), dtype=float)
    S = getattr(basis, "matrix", basis)
    if g.shape[0] != S.shape[0]:
        raise NullPriorError("prior output length does not match basis rows")
    return basis, g, True


def _fista_solve(op, y, config, basis, prior, gradient_extra, prox):
    """Shared accelerated loop.

    gradient_extra(v, z) may add further update terms to the post-gradient
    point v (e.g. the denoiser residual); prox(v) maps it to the next iterate.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    S, g, active = _prepare_prior(basis, prior, y, config.gamma)
    Smat = getattr(S, "matrix", S) if S is not None else None
    rec = _Recorder(op, y, config, S, g)
    n = op.n
    x_prev = np.zeros(n)
    z = np.zeros(n)
    t = 1.0
    rec.add(0, x_prev)
    diverged = False
    flags = []
    for ell in range(1, config.iters + 1):
        grad = grad_fidelity(op, z, y)
        if active:
            grad = grad + config.gamma * (Smat.T @ (Smat @ z - g))
        v = z - config.alpha * grad
        v = gradient_extra(v, z)
        x = prox(v)
        t_prime = t
        t = (1.0 + np.sqrt(1.0 + 4.0 * t_prime * t_prime)) / 2.0
        if config.momentum == "fista":
            z_new = x + ((t_prime - 1.0) / t) * (x - x_prev)
        else:
            z_new = x
        if config.restart == "fista-momentum" and ell > 1:
            if float((z - x) @ (x - x_prev)) > 0.0:
                t = 1.0
                z_new = x.copy()
        z = z_new
        x_prev = x
        rec.add(ell, x)
        if not np.all(np.isfinite(x)) or np.linalg.norm(x) > DIVERGENCE_GUARD:
            diverged = True
            flags.append(f"diverged at iteration {ell}")
            break
    return x_prev, rec.finish(diverged, flags)


def solve_pnp_fista(op, y, denoiser, config, basis=None, prior=None):
    """Gradient step on the fit (plus the subspace penalty), then the denoiser."""
    shape = op.shape_in

    def extra(v, z):
        return v

    def prox(v):
        return denoise(denoiser, v, shape)

    return _fista_solve(op, y, config, basis, prior, extra, prox)


def solve_red_fista(op, y, denoiser, config, basis=None, prior=None):
    """Gradient step plus the denoiser-residual term lam * (z - D(z)); no prox."""
    shape = op.shape_in
    lam = config.lam

    def extra(v, z):
        if lam == 0.0:
            return v
        return v - lam * (z - denoise(denoiser, z, shape))

    def prox(v):
        return v

    return _fista_solve(op, y, config, basis, prior, extra, prox)


def solve_fista_sparsity(op, y, config, basis=None, prior=None, tau=None,
                         transform="dct"):
    """FISTA with soft-thresholding in an orthonormal transform domain.

    transform="dct" penalizes tau * ||DCT x||_1; transform="identity"
    penalizes tau * ||x||_1.  The threshold is alpha * tau, the exact
    proximal step at step size alpha; tau defaults to config.lam.
    """
    shape = op.shape_in
    tau = config.lam if tau is None else tau
    thresh = config.alpha * tau
    if transform not in ("dct", "identity"):
        raise NullPriorError(f"unknown transform {transform!r}")

    def extra(v, z):
        return v

    def prox(v):
        if thresh == 0.0:
            return v
        if transform == "identity":
            return np.sign(v) * np.maximum(np.abs(v) - thresh, 0.0)
        c = scipy.fft.dctn(v.reshape(shape), type=2, norm="ortho")
        c = np.sign(c) * np.maximum(np.abs(c) - thresh, 0.0)
        return scipy.fft.idctn(c, type=2, norm="ortho").reshape(-1)

    return _fista_solve(op, y, config, basis, prior, extra, prox)


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


def solve_pnp_admm(op, y, denoiser, config, basis=None, prior=None):
    """ADMM splitting with the denoiser as the prior proximal surrogate.

    The x-subproblem (H'H + gamma S'S + rho I) x = H'y + gamma S'g + rho (v - u)
    is solved by conjugate gradient, warm-started from the previous iterate.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    S, g, active = _prepare_prior(basis, prior, y, config.gamma)
    Smat = getattr(S, "matrix", S) if S is not None else None
    rec = _Recorder(op, y, config, S, g)
    n = op.n
    shape = op.shape_in
    rho = config.rho

    def apply_A(x):
        out = op.adjoint(op.forward(x)) + rho * x
        if active:
            out = out + config.gamma * (Smat.T @ (Smat @ x))
        return out

    rhs_fixed = op.adjoint(y)
    if active:
        rhs_fixed = rhs_fixed + config.gamma * (Smat.T @ g)

    x = np.zeros(n)
    v = np.zeros(n)
    u = np.zeros(n)
    rec.add(0, x)
    diverged = False
    flags = []
    for ell in range(1, config.iters + 1):
        x, ok = _conjugate_gradient(apply_A, rhs_fixed + rho * (v - u), x,
                                    config.cg_tol, config.cg_maxiter)
        if not ok:
            flags.append(f"CG did not converge at iteration {ell}")
            warnings.warn(flags[-1], RuntimeWarning)
        v = denoise(denoiser, x + u, shape)
        u = u + x - v
        rec.add(ell, x)
        if not np.all(np.isfinite(x)) or np.linalg.norm(x) > DIVERGENCE_GUARD:
            diverged = True
            flags.append(f"diverged at iteration {ell}")
            break
    return x, rec.finish(diverged, flags)


def default_alpha(op, basis=None, gamma=0.0, safety=0.9, seed=0):
    """0.9 over the spectral norm of H'H + gamma S'S, by power iteration."""
    S = getattr(basis, "matrix", basis) if basis is not None else None
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(op.n)
    vec /= np.linalg.norm(vec)
    lam = 0.0
    for _ in range(300):
        w = op.adjoint(op.forward(vec))
        if S is not None and gamma > 0:
            w = w + gamma * (S.T @ (S @ vec))
        lam_new = float(np.linalg.norm(w))
        if lam_new == 0.0:
            raise NullPriorError("operator is zero; cannot pick a step size")
        vec = w / lam_new
        if abs(lam_new - lam) <= 1e-12 * lam_new:
            lam = lam_new
            break
        lam = lam_new
    return safety / lam


def stacked_pinv_solution(H_dense, S, y, g):
    """Least-squares oracle for the noiseless complete system [H; S] x = [y; g]."""
    S = getattr(S, "matrix", S)
    A = np.vstack([np.asarray(H_dense, dtype=float), S])
    rhs = np.concatenate([np.asarray(y, dtype=float).reshape(-1),
                          np.asarray(g, dtype=float).reshape(-1)])
    return np.linalg.pinv(A, rcond=1e-12) @ rhs
