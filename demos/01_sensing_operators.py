"""Tour of the five sensing operators.

Builds one operator per inverse problem, checks the forward/adjoint pairing
on random probes, materializes the dense matrix, and prints its spectral
norm.
"""

import numpy as np

from nullprior import make_operator
from nullprior.operators import (
    CirculantConvOperator,
    DecimatedConvOperator,
    MaskedFrequencyOperator,
    RadonOperator,
    bilinear_kernel,
    dot_test,
    gaussian_kernel,
    random_mask,
)

side = 16

operators = {
    "compressed sensing (dense 20x100)":
        make_operator("cs", {"n": 100, "m": 20, "normalize": True}, seed=0),
    "masked DFT, real-stacked rows":
        MaskedFrequencyOperator((side, side),
                                random_mask((side, side), 40, 1, "dft"), "dft"),
    "masked DCT (all-real)":
        MaskedFrequencyOperator((side, side),
                                random_mask((side, side), 40, 1, "dct"), "dct"),
    "circular Gaussian blur":
        CirculantConvOperator((side, side), gaussian_kernel(2.0, radius=5, ndim=2),
                              "center"),
    "4x decimated convolution":
        DecimatedConvOperator((side, side), bilinear_kernel(4, ndim=2), 4),
    "parallel-beam Radon, 5 angles":
        RadonOperator(side, [0.0, 36.0, 72.0, 108.0, 144.0]),
}

print(f"{'operator':38s} {'n':>5s} {'m_eff':>6s} {'dot-test':>10s} "
      f"{'densify':>10s} {'spec norm':>10s}")
rng = np.random.default_rng(7)
for name, op in operators.items():
    H = op.to_dense()
    x = rng.standard_normal(op.n)
    dense_gap = np.linalg.norm(op.forward(x) - H @ x)
    print(f"{name:38s} {op.n:5d} {op.m_eff:6d} {dot_test(op, seed=3):10.2e} "
          f"{dense_gap:10.2e} {np.linalg.norm(H, 2):10.4f}")

print("\nMasked transforms have orthonormal rows: forward o adjoint = identity")
op = operators["masked DFT, real-stacked rows"]
u = rng.standard_normal(op.m_eff)
print("  round-trip residual:", np.linalg.norm(op.forward(op.adjoint(u)) - u))
