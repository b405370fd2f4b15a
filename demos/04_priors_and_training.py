"""Prior maps: oracle error models and trainable two-layer networks.

Shows the controlled error terms used by the theory experiments, MMSE
training of the measurement-to-projection map, and the joint objective that
also refines the projection matrix (fit + invertibility + orthogonality).
"""

import numpy as np

from nullprior import make_operator
from nullprior.nullspace import qr_nullspace
from nullprior.priors import (
    GaussianError,
    LipschitzError,
    OraclePrior,
    TwoLayerNet,
    train_joint,
    train_mmse,
)

rng = np.random.default_rng(3)
op = make_operator("cs", {"n": 60, "m": 12, "normalize": True}, seed=3)
H = op.to_dense()
basis = qr_nullspace(H, p=12, seed=3)
x_star = rng.standard_normal(60)
y = op.forward(x_star)

print("== oracle priors with controlled error")
exact = OraclePrior(basis)
print("  zero error:       ||G(y) - Sx*|| =",
      np.linalg.norm(exact.predict(y, x_star) - basis.project(x_star)))
noisy = OraclePrior(basis, GaussianError(basis.p, eps=0.05, seed=4))
print("  gaussian eps=.05: ||G(y) - Sx*|| =",
      f"{np.linalg.norm(noisy.predict(y, x_star) - basis.project(x_star)):.4f}")
lip = LipschitzError(basis.p, op.m_eff, eps=0.05, K=0.5, seed=5)
print(f"  lipschitz K=0.5:  certified constant = {lip.certify():.4f}")

print("\n== MMSE training of V phi(W y) on signals from a linear 6-dim family")
A = rng.standard_normal((60, 6)) / np.sqrt(6)
xs = np.tanh(rng.standard_normal((400, 6))) @ A.T
net = TwoLayerNet(op.m_eff, basis.p, hidden=48, seed=6)
report = train_mmse(net, xs, op, basis, epochs=800, lr=3e-3, seed=7)
print(f"  fit loss {report.fit_loss:.4e}, held-out relative projection error "
      f"{report.holdout_projection_error:.4f}")

print("\n== joint training also refines S (fit + invertibility + orthogonality)")
S0 = rng.standard_normal((12, 60)) / np.sqrt(60)
net2 = TwoLayerNet(op.m_eff, 12, hidden=48, seed=8)
_, learned, rep2 = train_joint(net2, S0, xs, H, lam1=0.001, lam2=0.01,
                               epochs=800, lr=3e-3, seed=9)
print(f"  initial ||S H'||_F = {np.linalg.norm(S0 @ H.T):.4f}")
print(f"  learned ||S H'||_F = {learned.ortho_to_H_residual:.4f}")
print(f"  penalty terms: invertibility {rep2.invertibility_loss:.4e}, "
      f"gram {rep2.gram_loss:.4e}")
