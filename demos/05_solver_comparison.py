"""Paired baseline / penalized runs across all four solver families.

Deblurring of a smooth image at 15 dB SNR with a near-exact oracle prior:
every solver gains from the subspace penalty, and setting the weight to
zero reproduces the baseline bit for bit.
"""

import numpy as np

from nullprior import denoisers as dn
from nullprior.diagnostics import psnr
from nullprior.experiments import add_measurement_noise
from nullprior.nullspace import toeplitz_complement
from nullprior.operators import CirculantConvOperator, gaussian_kernel
from nullprior.phantoms import bumps
from nullprior.priors import GaussianError, OraclePrior
from nullprior.solvers import (
    SolverConfig,
    default_alpha,
    solve_fista_sparsity,
    solve_pnp_admm,
    solve_pnp_fista,
    solve_red_fista,
)

side = 16
kernel = gaussian_kernel(2.0, radius=5, ndim=2)
op = CirculantConvOperator((side, side), kernel, "center")
basis = toeplitz_complement(op)
x_star = bumps(side, 5, seed=11).reshape(-1)
y = add_measurement_noise(op.forward(x_star), 15.0, seed=12)
s_norm = np.linalg.norm(basis.project(x_star))
prior = OraclePrior(basis, GaussianError(basis.p, 0.01 * s_norm / np.sqrt(basis.p),
                                         seed=13))
prior_fn = lambda yy: prior.predict(yy, x_star)
gamma = 1.0
alpha = default_alpha(op, basis, gamma=gamma)

runs = {
    "pnp_fista (gaussian smooth)": (
        solve_pnp_fista, dict(denoiser=dn.GaussianSmooth(0.4)), {}),
    "red_fista (tv residual)": (
        solve_red_fista, dict(denoiser=dn.TVChambolle(0.01, 20)), dict(lam=0.3)),
    "pnp_admm (dct soft-threshold)": (
        solve_pnp_admm, dict(denoiser=dn.TransformSoftThreshold(0.002)),
        dict(alpha_override=0.5)),
    "fista_sparsity (dct domain)": (
        solve_fista_sparsity, dict(), dict(lam=0.002)),
}

print(f"{'solver':32s} {'baseline':>9s} {'penalized':>10s} {'gain':>7s}")
for name, (fn, kwargs, extra) in runs.items():
    a = extra.pop("alpha_override", alpha)
    cfg_n = SolverConfig(alpha=a, gamma=gamma, iters=120, x_star=x_star,
                         restart="fista-momentum", **extra)
    cfg_b = SolverConfig(alpha=a, gamma=0.0, iters=120, x_star=x_star,
                         restart="fista-momentum", **extra)
    if "denoiser" in kwargs:
        x_n, _ = fn(op, y, kwargs["denoiser"], cfg_n, basis, prior_fn)
        x_b, _ = fn(op, y, kwargs["denoiser"], cfg_b)
    else:
        x_n, _ = fn(op, y, cfg_n, basis, prior_fn)
        x_b, _ = fn(op, y, cfg_b)
    pn, pb = psnr(x_n, x_star), psnr(x_b, x_star)
    print(f"{name:32s} {pb:9.2f} {pn:10.2f} {pn - pb:+7.2f}")

print("\ngamma = 0 with a prior attached is bit-identical to the plain baseline:")
cfg0 = SolverConfig(alpha=alpha, gamma=0.0, iters=40, x_star=x_star)
xa, _ = solve_pnp_fista(op, y, dn.GaussianSmooth(0.4), cfg0, basis, prior_fn)
xb, _ = solve_pnp_fista(op, y, dn.GaussianSmooth(0.4), cfg0)
print("  max |difference| =", np.max(np.abs(xa - xb)))
