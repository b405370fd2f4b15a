"""Measuring the convergence theory on a constructed configuration.

A scaled orthonormal-row operator plus its scaled exact complement makes the
penalized gradient map contract uniformly, so the rate bound, the
improvement zone, and the penalty-decay bound can all be certified
empirically.  The constants are measured while the solve runs: a
`CloudConstants` observer sees each iterate once, so no iterate is stored.
"""

import numpy as np

from nullprior import denoisers as dn
from nullprior.diagnostics import (
    CloudConstants,
    compute_rho,
    detect_ciz,
    penalty_decay_bound,
)
from nullprior.experiments import theory_check
from nullprior.nullspace import fourier_complement
from nullprior.operators import MaskedFrequencyOperator, ScaledOperator, lowpass_mask
from nullprior.phantoms import bumps
from nullprior.priors import LipschitzError, OraclePrior
from nullprior.solvers import SolverConfig, solve_pnp_fista

side, kept, scale = 8, 16, 0.1
base = MaskedFrequencyOperator((side, side), lowpass_mask((side, side), kept), "dct")
op = ScaledOperator(base, scale)
basis = fourier_complement(base).scaled(scale)
x_star = bumps(side, 4, seed=5).reshape(-1)
y = op.forward(x_star)
err = LipschitzError(basis.p, op.m_eff, eps=1e-3, K=0.05, seed=5)
prior = OraclePrior(basis, err)
alpha = 50.0

config = SolverConfig(alpha=alpha, gamma=1.0, iters=40, x_star=x_star,
                      momentum="none")
denoiser = dn.Identity()
# the isometry constants of S (weighted by sqrt(gamma) = 1) and H, and the
# denoiser expansion, on each iterate against the last one and against x*
cloud = CloudConstants(op, basis, 1.0, denoiser, x_star,
                       dn.denoise(denoiser, x_star, op.shape_in))
_, trace = solve_pnp_fista(op, y, denoiser, config, basis,
                           lambda yy: prior.predict(yy, x_star), observer=cloud.observe)

ric_s, ric_h = cloud.ric
delta = cloud.delta_hat
est = compute_rho(delta, alpha, op, basis, 1.0, ric_s)
ciz = detect_ciz(trace.proj_err_sq, prior.error_norm(y))
xn = np.linalg.norm(x_star)

print(f"measured constants: delta = {delta:.2e}, RIC(S) = {ric_s:.4f}, "
      f"RIC(H) = {ric_h:.4f}")
print(f"contraction rate rho = {est.rho:.4f} "
      f"(gradient-map norm {est.gradient_op_norm:.3f} + "
      f"(1 + RIC) ||S|| = {(1 + ric_s) * est.s_spectral_norm:.3f})")
print(f"improvement zone: iterations 0..{ciz[-1]} of {len(trace.iters) - 1}")

print(f"\n{'iter':>4} {'sq ratio':>9} {'penalty':>10} {'decay bound':>12}")
for ell in range(0, min(len(trace.iters) - 1, 12), 2):
    bound = penalty_decay_bound(np.sqrt(trace.err_sq[ell]),
                           np.sqrt(trace.step_sq[ell]), alpha, err.K,
                           ric_s, ric_h, xn)
    print(f"{ell:4d} {trace.ratio[ell]:9.4f} {np.sqrt(trace.phi[ell + 1]):10.2e} "
          f"{bound:12.4f}")

print("\nfull certification via theory_check:")
cfg = {
    "problem": "mri", "seed": 5,
    "operator": {"shape": [8, 8], "transform": "dct",
                 "mask": {"kind": "lowpass", "count": 16}, "scale": 0.1},
    "signal": {"kind": "bumps", "count": 4},
    "basis": {"method": "fourier", "scale": 0.1},
    "prior": {"kind": "oracle", "error": {"kind": "lipschitz", "eps": 1e-3,
                                          "K": 0.05}},
    "denoiser": {"kind": "identity"},
    "solver": {"kind": "pnp_fista", "alpha": 50.0, "gamma": 1.0, "iters": 40},
    "noise": {"snr_db": None},
}
status, details = theory_check(cfg)
print(f"  status: {status}; checks: {details['checks']}")
