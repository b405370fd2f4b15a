"""Empirical measurement of the convergence-theory quantities.

The contraction rate of the penalized iteration is
rho = (1 + delta) * (||I - alpha (H'H + S'S)|| + (1 + Delta_S) ||S||),
with unsquared spectral norms (the form the fixed-point argument actually
uses); the squared-norm variant is recorded alongside for comparison.  For an
exact complement (QR or Fourier; `nullspace.EXACT_METHODS`) the two spectral
norms have a closed form in the singular values of H and the penalty weight,
widened by a Weyl bound on the basis's recorded residuals so it stays an
upper bound (`compute_rho_exact`); approximate, rescaled and learned bases
take both norms from dense n x n matrices (`compute_rho`).  The
restricted-isometry constants Delta are measured on a supplied sample cloud,
the denoiser expansion delta on sample pairs, and the improvement zone is the
set of iterations whose projected error still dominates the prior's error
norm.  Two constant pairs are in circulation for the penalty-decay bound;
both are computed, with the first as the primary.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NullPriorError
from .nullspace import EXACT_METHODS
from .operators import MaskedFrequencyOperator, ScaledOperator


def psnr_from_err_sq(err_sq, n, peak):
    """10 log10(peak^2 n / err_sq), capped at 200 dB (and 200 dB at zero error)."""
    if err_sq <= 0:
        return 200.0
    return min(10.0 * np.log10(peak * peak * n / err_sq), 200.0)


def psnr(x_hat, x_star, peak=1.0):
    """10 log10(peak^2 n / ||x_hat - x_star||^2), capped at 200 dB."""
    x_hat = np.asarray(x_hat, dtype=float).reshape(-1)
    x_star = np.asarray(x_star, dtype=float).reshape(-1)
    if x_hat.shape != x_star.shape:
        raise NullPriorError("inputs must have the same size")
    if peak <= 0:
        raise NullPriorError("peak must be positive")
    err_sq = float(np.sum((x_hat - x_star) ** 2))
    return psnr_from_err_sq(err_sq, x_hat.size, peak)


def estimate_ric(M, pairs):
    """Restricted-isometry constant of M on the given sample pairs.

    Returns max over pairs of | ||M(x-z)||^2 / ||x-z||^2 - 1 |, skipping
    coincident pairs.  M may be a matrix or a callable.
    """
    apply_M = M if callable(M) else (lambda v, _M=np.asarray(M, float): _M @ v)
    worst = 0.0
    used = 0
    for x, z in pairs:
        d = np.asarray(x, dtype=float).reshape(-1) - np.asarray(z, dtype=float).reshape(-1)
        dd = float(d @ d)
        if dd == 0.0:
            continue
        md = apply_M(d)
        worst = max(worst, abs(float(md @ md) / dd - 1.0))
        used += 1
    if used == 0:
        raise NullPriorError("all sample pairs coincident")
    return worst


def iterate_cloud_pairs(iterates, x_star=None):
    """Consecutive-iterate pairs plus each iterate against the ground truth.

    These are exactly the differences the contraction and penalty-decay
    arguments take norms of, so constants measured on them certify the runs.
    """
    pairs = []
    for a, b in zip(iterates[:-1], iterates[1:]):
        pairs.append((a, b))
    if x_star is not None:
        for a in iterates:
            pairs.append((a, x_star))
    return pairs


def _spectral_norm_dense(M):
    return float(np.linalg.norm(M, 2))


@dataclass
class RhoEstimate:
    rho: float
    rho_squared_form: float
    gradient_op_norm: float
    s_spectral_norm: float


def _rho_estimate(delta, op_norm, s_norm, ric_s):
    rho = (1.0 + delta) * (op_norm + (1.0 + ric_s) * s_norm)
    rho_sq = (1.0 + delta) * (op_norm ** 2 + (1.0 + ric_s) * s_norm ** 2)
    return RhoEstimate(rho, rho_sq, op_norm, s_norm)


def compute_rho(delta, alpha, H_dense, S_eff, ric_s):
    """Contraction rate of the penalized gradient map, unsquared-norm form.

    S_eff should already include the penalty weight (sqrt(gamma) * S).  A
    squared-norm variant of the same rate is returned alongside so runs can
    record both forms.
    """
    H = np.asarray(H_dense, dtype=float)
    S = np.asarray(getattr(S_eff, "matrix", S_eff), dtype=float)
    n = H.shape[1]
    P = H.T @ H + S.T @ S
    op_norm = _spectral_norm_dense(np.eye(n) - alpha * P)
    s_norm = _spectral_norm_dense(S)
    return _rho_estimate(delta, op_norm, s_norm, ric_s)


def _sensing_spectrum(op, basis):
    """Squared singular values of H, and ||S H'||_F measured against the same H."""
    base, scale = (op.base, abs(op.scale)) if isinstance(op, ScaledOperator) else (op, 1.0)
    ortho = basis.ortho_to_H_residual
    if isinstance(base, MaskedFrequencyOperator):
        # orthonormal transform rows: every singular value is the scale
        if basis.method == "fourier-complement":
            ortho *= scale  # recorded against the unscaled transform
        return np.array([scale * scale]), ortho
    return np.linalg.svd(op.to_dense(), compute_uv=False) ** 2, ortho


def compute_rho_exact(delta, alpha, op, basis, gamma, ric_s):
    """Closed-form contraction rate for an exact complement S of H.

    With A = [H; sqrt(gamma) S], the nonzero eigenvalues of
    P = H'H + gamma S'S are those of A A', whose block-diagonal part has
    eigenvalues sigma_i(H)^2 and gamma when S S' = I; P is also singular when
    m_eff + p < n.  Weyl's inequality bounds what the off-diagonal block
    sqrt(gamma) S H' and the row-Gram error S S' - I add, through the basis's
    recorded Frobenius residuals o and g, so
    ||I - alpha P|| <= max |1 - alpha lambda| + alpha (gamma g + sqrt(gamma) o)
    and ||sqrt(gamma) S|| <= sqrt(gamma (1 + g)): the result upper-bounds
    `compute_rho` on the dense matrices without forming them.
    """
    if basis.method not in EXACT_METHODS:
        raise NullPriorError(f"{basis.method!r} is not an exact complement")
    h_sq, ortho = _sensing_spectrum(op, basis)
    gram = basis.row_gram_residual
    eig = np.append(h_sq, gamma)
    if op.m_eff + basis.p < op.n:
        eig = np.append(eig, 0.0)
    op_norm = float(np.max(np.abs(1.0 - alpha * eig))
                    + alpha * (gamma * gram + np.sqrt(gamma) * ortho))
    s_norm = float(np.sqrt(gamma * (1.0 + gram)))
    return _rho_estimate(delta, op_norm, s_norm, ric_s)


def decay_constants(alpha, K, ric_s, ric_h, xstar_norm):
    """Primary constant pair (C1, C2) of the penalty-decay bound."""
    C1 = 1.0 / (2.0 * alpha) + (1.0 + ric_s) ** 2 \
        + K * (1.0 + ric_h) * (1.0 + ric_s) * xstar_norm
    C2 = (1.0 + ric_s) + 1.0 / np.sqrt(2.0 * alpha)
    return C1, C2


def decay_constants_statement_variant(alpha, K, ric_s, ric_h, xstar_norm):
    """Alternative constant pair for the same bound; recorded for comparison."""
    C1 = (1.0 / (2.0 * alpha) + K * (1.0 + ric_h) * xstar_norm ** 2) * (1.0 + ric_s)
    C2 = (1.0 + ric_s) ** 2 * (1.0 + 1.0 / (2.0 * alpha))
    return C1, C2


def penalty_decay_bound(err_norm, step_norm, alpha, K, ric_s, ric_h, xstar_norm):
    """Upper bound on the next penalty value ||g - S x^{l+1}||.

    err_norm is ||x* - x^l||, step_norm is ||x^l - x^{l+1}||; all norms
    unsquared, matching the bound's derivation.
    """
    C1, C2 = decay_constants(alpha, K, ric_s, ric_h, xstar_norm)
    return C1 * err_norm + K * xstar_norm * (1.0 + ric_h) + C2 * step_norm


def detect_ciz(proj_err_sq, error_norm):
    """Iterations whose projected error still dominates the prior error.

    proj_err_sq holds ||S(x^l - x*)||^2 per trace row; returns the indices l
    with error_norm^2 <= ||S(x^l - x*)||^2 (strictly positive projected error
    when error_norm is zero).
    """
    proj = np.asarray(proj_err_sq, dtype=float)
    thr = float(error_norm) ** 2
    if thr == 0.0:
        return np.flatnonzero(proj > 0.0)
    return np.flatnonzero(thr <= proj)


def detect_ciz_rip_variant(err_sq, ric_s, error_norm):
    """Alternative gate via the isometry upper bound (1 + Delta_S) ||x^l - x*||^2."""
    err = np.asarray(err_sq, dtype=float)
    thr = float(error_norm) ** 2
    bound = (1.0 + ric_s) * err
    if thr == 0.0:
        return np.flatnonzero(bound > 0.0)
    return np.flatnonzero(thr <= bound)


@dataclass
class TheoryReport:
    """Measured constants for one solve, plus the detected improvement zone."""

    delta_hat: float
    ric_s: float
    ric_h: float
    K: float
    error_norm: float
    rho: float
    rho_squared_form: float
    gradient_op_norm: float
    s_spectral_norm: float
    C1: float
    C2: float
    C1_statement_variant: float
    C2_statement_variant: float
    alpha: float
    gamma: float
    xstar_norm: float
    ciz: np.ndarray = field(default=None, repr=False)
    ciz_rip_variant: np.ndarray = field(default=None, repr=False)
    certified: bool = True
    notes: list = field(default_factory=list)

    def to_text(self):
        lines = []
        for name in ("delta_hat", "ric_s", "ric_h", "K", "error_norm", "rho",
                     "rho_squared_form", "gradient_op_norm", "s_spectral_norm",
                     "C1", "C2", "C1_statement_variant", "C2_statement_variant",
                     "alpha", "gamma", "xstar_norm"):
            lines.append(f"{name} = {getattr(self, name):.17g}")
        for name in ("ciz", "ciz_rip_variant"):
            val = getattr(self, name)
            if val is None or len(val) == 0:
                lines.append(f"{name} = (empty)")
            else:
                lines.append(f"{name} = {int(val[0])}..{int(val[-1])} "
                             f"(size {len(val)})")
        lines.append(f"certified = {self.certified}")
        for note in self.notes:
            lines.append(f"note = {note}")
        return "\n".join(lines) + "\n"

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_text())
