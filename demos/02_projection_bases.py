"""Constructing projection bases aligned with an operator's null space.

QR orthogonalization and frequency complements are exact (residuals at
machine precision); the Radon and convolution complements are structured
approximations whose residuals are recorded, not forced to zero.
"""

import os
import tempfile

import numpy as np

from nullprior import make_operator
from nullprior.nullspace import (
    fourier_complement,
    load_basis,
    orthogonality_report,
    qr_nullspace,
    radon_complement,
    save_basis,
    toeplitz_complement,
)
from nullprior.operators import (
    CirculantConvOperator,
    MaskedFrequencyOperator,
    RadonOperator,
    gaussian_kernel,
    lowpass_mask,
)

rng = np.random.default_rng(0)

print("== QR null-space rows for a dense 8x40 matrix")
op = make_operator("cs", {"n": 40, "m": 8, "normalize": True}, seed=2)
H = op.to_dense()
basis = qr_nullspace(H, p=16, seed=5)
print(f"   p={basis.p}  ||S H'||_F = {basis.ortho_to_H_residual:.2e}  "
      f"||S S' - I||_F = {basis.row_gram_residual:.2e}")

print("== frequency complement of a low-pass DCT mask (16x16, keep 64)")
mask_op = MaskedFrequencyOperator((16, 16), lowpass_mask((16, 16), 64), "dct")
fc = fourier_complement(mask_op)
print(f"   p={fc.p}  ||S H'||_F = {fc.ortho_to_H_residual:.2e}")

print("== Radon complement: 15 angles total, 5 acquired (approximate)")
full = [180.0 * i / 15 for i in range(15)]
rc = radon_complement(RadonOperator(16, full[:5]), full)
print(f"   p={rc.p}  ||S H'||_F = {rc.ortho_to_H_residual:.3f}  (nonzero, recorded)")

print("== circulant complement of a Gaussian blur (response 1 - K at each bin)")
blur = CirculantConvOperator(64, gaussian_kernel(2.0, radius=5, ndim=1), "center")
tc = toeplitz_complement(blur)
resp_s = np.fft.fft(tc.matrix[0])
resp_h = blur.response
print(f"   max |FFT(row) - (1 - FFT(kernel))| = "
      f"{np.max(np.abs(resp_s - (1 - resp_h))):.2e}")

print("== orthogonality report for the stacked system [H; S]")
rep = orthogonality_report(basis, H, rng.standard_normal((200, 40)))
print(f"   rank {rep.rank_of_stack} of {basis.n}, invertibility loss "
      f"{rep.invertibility_loss:.4f} (drops to ~0 when p = n - m)")
complete = qr_nullspace(H, p=32, seed=5)
rep2 = orthogonality_report(complete, H, rng.standard_normal((200, 40)))
print(f"   with p = n - m: rank {rep2.rank_of_stack}, loss "
      f"{rep2.invertibility_loss:.2e}")

print("== bases round-trip through a CSV dump with a header line")
with tempfile.TemporaryDirectory() as td:
    path = os.path.join(td, "basis.csv")
    save_basis(basis, path)
    loaded = load_basis(path)
    print(f"   reloaded method={loaded.method!r}, matrix equal: "
          f"{np.allclose(loaded.matrix, basis.matrix)}")
