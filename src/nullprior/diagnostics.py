"""Empirical measurement of the convergence-theory quantities.

The contraction rate of the penalized iteration is
rho = (1 + delta) * (||I - alpha (H'H + S'S)|| + (1 + Delta_S) ||S||),
with unsquared spectral norms, the form the fixed-point argument uses.  It
bounds one map: a gradient step of size alpha on the penalized fit, then
the denoiser, with no momentum (the PnP proximal-gradient map of Sun,
Wohlberg & Kamilov, IEEE TCI 2019).  This module owns the spectrum of
P = H'H + gamma S'S: `compute_rho` gives the rate and `lambda_max` the
largest eigenvalue behind the default step; for PnP-ADMM, which takes no
step, `compute_rho` reads the step's lambda_max off the spectrum it forms
for the rate.  Both read P's spectrum from the pair's structure where it
has one (`normal_spectrum`: a shared transform, a dense H, or an exact
complement of H); every other pair takes ||I - alpha P|| from a dense P
and lambda_max from one Lanczos run.  ||S|| comes from the basis
(`NullSpaceBasis.norm_sq`).  The restricted-isometry constants Delta
are measured on a supplied sample cloud, the denoiser expansion delta on
sample pairs; `CloudConstants` measures both on a solve's iterates while it
runs, so no iterate is stored.  The improvement zone is the set of
iterations whose projected error still dominates the prior's error norm,
and `decay_constants` gives the constant pair of the penalty-decay bound.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NullPriorError
from .nullspace import _probe_residuals, as_basis
from .operators import (
    CirculantConvOperator,
    DecimatedConvOperator,
    DenseOperator,
    MaskedFrequencyOperator,
    ScaledOperator,
    _check_dense_cap,
    split_scale,
)


def psnr_from_err_sq(err_sq, n):
    """10 log10(n / err_sq), a unit-peak PSNR capped at 200 dB (and 200 dB at zero error)."""
    if err_sq <= 0:
        return 200.0
    return min(10.0 * np.log10(n / err_sq), 200.0)


def psnr(x_hat, x_star):
    """10 log10(n / ||x_hat - x_star||^2) for a unit-peak x_star, capped at 200 dB."""
    x_hat = np.asarray(x_hat, dtype=float).reshape(-1)
    x_star = np.asarray(x_star, dtype=float).reshape(-1)
    if x_hat.shape != x_star.shape:
        raise NullPriorError("inputs must have the same size")
    err_sq = float(np.sum((x_hat - x_star) ** 2))
    return psnr_from_err_sq(err_sq, x_hat.size)


def resolution_floor(*norms):
    """Smallest difference that float64 vectors of these norms resolve.

    100 eps max(norms, 1): a converged solve's consecutive iterates, or an
    iterate at the truth, differ by about this much, and a ratio taken over
    such a difference measures rounding, not the map.
    """
    return 100.0 * np.finfo(float).eps * max(*norms, 1.0)


class _RicMax:
    """Running max of | ||M d||^2 / ||d||^2 - 1 | over pairs (x, z), d = x - z.

    The per-pair step of `estimate_ric` and `CloudConstants`, called as
    `add(dd, floor, images)` with dd = ||d||^2 and floor the pair's
    `resolution_floor`: a pair with ||d|| <= floor is skipped, and only
    for a used pair does `images()` make M d, or a tuple of images (one
    constant each).  The maximum starts at 0, so a nan ratio never enters
    it, and it does not depend on the order of the pairs.
    """

    def __init__(self):
        self.worst = None
        self.several = False

    def add(self, dd, floor, images):
        if np.sqrt(dd) <= floor:
            return
        md = images()
        self.several = isinstance(md, tuple)
        md = md if self.several else (md,)
        if self.worst is None:
            self.worst = [0.0] * len(md)
        self.worst = [max(w, abs(float(v @ v) / dd - 1.0)) for w, v in zip(self.worst, md)]

    def value(self):
        if self.worst is None:
            raise NullPriorError("all sample pairs coincide to float resolution")
        return tuple(self.worst) if self.several else self.worst[0]


class _DeltaMax:
    """Running max of ||D(x) - D(z)||^2 / ||x - z||^2 - 1 over pairs (x, z).

    The per-pair step of `denoisers.estimate_delta` and `CloudConstants`,
    called as `_RicMax.add` is, with `images()` giving (D(x), D(z)).
    """

    def __init__(self):
        self.worst = 0.0
        self.seen = self.used = 0

    def add(self, dd, floor, images):
        self.seen += 1
        dist = np.sqrt(dd)
        if dist <= floor:
            return
        dx, dz = images()
        dd_image = np.linalg.norm(np.asarray(dx) - np.asarray(dz)) ** 2
        self.worst = max(self.worst, dd_image / dist ** 2 - 1.0)
        self.used += 1

    def value(self):
        if self.seen == 0:
            raise NullPriorError("need at least one pair")
        if self.used == 0:
            raise NullPriorError("all pairs coincide to float resolution")
        return max(self.worst, 0.0)


def _pair_norms(x, z):
    """(x - z, ||x - z||^2, resolution floor) of a sample pair, flat."""
    d = (x - z).reshape(-1)
    return d, float(d @ d), resolution_floor(np.linalg.norm(x), np.linalg.norm(z))


def estimate_ric(M, pairs):
    """Restricted-isometry constant of M on the given sample pairs.

    Returns max over pairs of | ||M(x-z)||^2 / ||x-z||^2 - 1 |, skipping
    pairs that coincide to float resolution (`resolution_floor`).  M may be
    a matrix or a callable.  A callable that returns a tuple of images
    (say (S d, H d) from one `OperatorPair` application) measures one
    constant per element, on the same pairs, and a tuple of them is
    returned.
    """
    apply_M = M if callable(M) else (lambda v, _M=np.asarray(M, float): _M @ v)
    worst = _RicMax()
    for x, z in pairs:
        d, dd, floor = _pair_norms(np.asarray(x, dtype=float).reshape(-1),
                                   np.asarray(z, dtype=float).reshape(-1))
        worst.add(dd, floor, lambda: apply_M(d))
    return worst.value()


class CloudConstants:
    """ric_s, ric_h and delta_hat on a solve's iterate cloud, measured as it runs.

    `observe` is a solve's observer (`solvers`): with each iterate x it
    takes d = x - x*, ||d||^2, (H d, S d), the step x - x_prev and its
    squared norm from the solve's trace, and measures the pairs the
    contraction and penalty-decay arguments take norms of, each iterate
    against the one before it, then against x*.  ric_s and ric_h take
    sqrt(gamma) S d and H d, for a step from one `OperatorPair` application
    of its own (S x - S x_prev would cancel near convergence).  delta_hat
    denoises each iterate once; `x_star_image` is D(x*), flat.  Only the
    previous iterate's norm and image are kept.  `cloud(x)` measures a
    plain iterate, forming d, its images and the step itself.  The maxima
    are those of `estimate_ric` and `denoisers.estimate_delta` on the
    stored cloud, bit for bit.
    """

    def __init__(self, op, basis, gamma, denoiser, x_star, x_star_image):
        self._pair = basis.pair(op)
        self._weight = np.sqrt(gamma)
        self._ric = _RicMax()
        self._delta = _DeltaMax()
        self._denoiser = denoiser
        self._shape = op.shape_in
        self._x_star = np.asarray(x_star, dtype=float).reshape(-1)
        self._star_norm = np.linalg.norm(self._x_star)
        self.x_star_image = x_star_image
        self._star_image = np.asarray(x_star_image).reshape(self._shape)
        self._last = self._prev_norm = self._prev_image = None

    def __call__(self, x):
        """Measure iterate x on its own."""
        d = x - self._x_star
        step = None if self._last is None else x - self._last
        self.observe(x, d, float(d @ d), self._pair.forward(d),
                     step, None if step is None else float(step @ step))
        self._last = x

    def observe(self, x, d, d_sq, images, step, step_sq):
        """The observer call; step and step_sq are None for a solve's first iterate."""
        x_norm = np.linalg.norm(x)
        image = np.asarray(self._denoiser(x.reshape(self._shape)))
        if step is not None:
            floor = resolution_floor(self._prev_norm, x_norm)
            self._ric.add(step_sq, floor, lambda: self._weighted(self._pair.forward(step)))
            self._delta.add(step_sq, floor, lambda: (self._prev_image, image))
        floor = resolution_floor(x_norm, self._star_norm)
        self._ric.add(d_sq, floor, lambda: self._weighted(images))
        self._delta.add(d_sq, floor, lambda: (image, self._star_image))
        self._prev_norm, self._prev_image = x_norm, image

    def _weighted(self, images):
        """(sqrt(gamma) S v, H v) from a pair's (H v, S v)."""
        h, s = images
        return self._weight * s, h

    @property
    def ric(self):
        """(ric_s, ric_h)."""
        return self._ric.value()

    @property
    def delta_hat(self):
        return self._delta.value()


@dataclass
class RhoEstimate:
    rho: float
    gradient_op_norm: float
    s_spectral_norm: float
    alpha: float  # the step the rate is for


def gram_lower(A, weight=1.0, out=None, beta=0.0):
    """weight A'A + beta out in the lower triangle of a Fortran-ordered array.

    One BLAS syrk; with `out` given the result is written into it and
    returned.  The upper triangle is not written, so read the result with
    `lower_eigvalsh`.
    """
    # imported here: only dense pairs need it, and loading scipy.linalg adds
    # about 6 MB to the peak memory of every process that imports nullprior
    from scipy.linalg.blas import dsyrk

    # BLAS reads a Fortran-ordered array uncopied: A' of a C-ordered A, or
    # an F-ordered A itself (a sparse or dense operator's transpose applied
    # to a stack of vectors), which syrk transposes
    A = np.asarray(A, dtype=float)
    a, trans = (A, 1) if A.flags.f_contiguous and not A.flags.c_contiguous else (A.T, 0)
    if out is None:
        return dsyrk(weight, a, trans=trans, lower=1)
    return dsyrk(weight, a, trans=trans, beta=beta, c=out, overwrite_c=1, lower=1)


def add_gram(op, weight=1.0, out=None):
    """out + weight A'A for the operator A, in the lower triangle of an n x n buffer.

    Without `out` a new Fortran-ordered buffer holds weight A'A.  A scaled
    operator c B adds B with weight c^2 (`split_scale`).  A dense operator's
    matrix is read uncopied by one syrk.  Any other operator (n <= 4096) is
    added in blocks of 64 rows (`LinearOperator.row_blocks`), so its m x n
    matrix is never formed: each block, the transpose applied to unit
    measurement vectors or a Radon operator's densified sparse rows, is
    added by syrk with beta = 1.
    """
    op, scale = split_scale(op)
    weight = weight * scale * scale
    if isinstance(op, DenseOperator):
        return gram_lower(op.matrix, weight, out, beta=1.0)
    _check_dense_cap(op.n)
    for rows in op.row_blocks():
        out = gram_lower(rows, weight, out, beta=1.0)
    return out


def lower_eigvalsh(M):
    """Ascending eigenvalues of the symmetric matrix in M's lower triangle.

    LAPACK syevd, the routine `np.linalg.eigvalsh` calls, run on M itself:
    M is overwritten, and no copy is made when M is Fortran-ordered.
    """
    import scipy.linalg  # imported here, as in `gram_lower`

    return scipy.linalg.eigvalsh(M, lower=True, overwrite_a=True,
                                 check_finite=False, driver="evd")


def normal_spectrum(op, basis=None, gamma=0.0):
    """Eigenvalues of P = H'H + gamma S'S from the pair's structure, or None.

    H alone gets the spectrum its structure gives, and a pair one of three:
    - H and S diagonal in one orthonormal transform F (masked DCT or DFT
      rows, circulant convolutions, scaled wrappers of these): P =
      F' diag(d_H + gamma d_S) F, where d is scale^2 on the kept
      frequencies of a mask and |K^|^2 per DFT bin for a convolution with
      response K^.  A masked DCT/DFT with its Fourier complement gives
      scale^2 on the kept and gamma on the missing frequencies; a blur
      with its Toeplitz complement |K^|^2 + gamma |S^|^2.
    - H a decimated convolution (factor f on each of d axes) and S diagonal
      in the DFT: the decimation couples each DFT bin only with its f^d
      aliases, so P splits into n / f^d blocks of size f^d, one per alias
      class, each (scale^2 / f^d) k k* + gamma diag(|S^|^2) with k the
      class's K^ (the polyphase split of Zhao et al., IEEE TIP 2016).  One
      batched `eigvalsh` solves them.
    - S an exact complement (S H' = 0, S S' = I) of an H with a spectrum:
      P is H'H plus gamma on S's p directions in Null(H), so its spectrum
      is H's with the p smallest eigenvalues replaced by gamma.  By Weyl,
      on AA' with A = [H; sqrt(gamma) S], the residuals move each one by
      at most 2 sqrt(gamma) ||S H'||_F + gamma ||S S' - I||_F.  An unscaled
      basis with m + p <= n is admitted when that margin, from probe
      bounds on this pair (`nullspace._probe_residuals`), is at most
      10 n eps max(lambda_max(H'H), gamma); QR rows reach about n eps
      lambda.  Recorded residuals are never read: a dump carries its own.
    A dense H (scaled or not) has the eigenvalues of its smaller Gram
    matrix, padded with zeros to n.  Any other pair, and a Radon H, gives
    None: `compute_rho` then works from dense matrices, `lambda_max` from
    Lanczos.
    """
    eig = _transform_spectrum(op, basis, gamma)
    S = None if basis is None else basis.operator
    if eig is not None or S is None or isinstance(S, ScaledOperator) or S.n != op.n \
            or op.m_eff + S.m_eff > op.n or (h := normal_spectrum(op)) is None:
        return eig
    ortho, gram = _probe_residuals(S, op)
    bound = 10.0 * op.n * np.finfo(float).eps * max(float(np.max(h)), gamma)
    if 2.0 * np.sqrt(gamma) * ortho + gamma * gram <= bound:  # False for nan
        eig = np.concatenate((np.full(S.m_eff, float(gamma)), np.sort(h)[S.m_eff:]))
    return eig


def _transform_spectrum(op, basis, gamma):
    """The spectrum of P from a shared transform, or of a dense H alone, or None."""
    s_term = s_frame = None
    if basis is not None:
        s_gram = _diagonal_gram(basis.operator)
        if s_gram is None:
            return None
        s_frame, s_diag = s_gram
        s_term = gamma * s_diag
    h_gram = _diagonal_gram(op)
    if h_gram is not None:
        h_frame, h_diag = h_gram
        if s_term is None:
            return h_diag
        return h_diag + s_term if h_frame == s_frame else None
    base, scale = split_scale(op)
    if isinstance(base, DenseOperator) and s_term is None:
        H = base.matrix
        eig = np.linalg.eigvalsh(H @ H.T if H.shape[0] < H.shape[1] else H.T @ H)
        return scale * scale * np.concatenate((np.zeros(op.n - eig.size), eig))
    if not isinstance(base, DecimatedConvOperator):
        return None
    if s_term is not None and s_frame != ("dft", base.shape_in):
        return None
    return _alias_spectrum(base, scale * scale, s_term)


def _diagonal_gram(op):
    """((transform, shape), d) with A'A = F' diag(d) F, or None.

    F is the orthonormal DCT or DFT on `shape`, d holds one value per flat
    frequency bin; a scaled operator's d is its base's times scale^2.
    """
    base, scale = split_scale(op)
    if isinstance(base, MaskedFrequencyOperator):
        frame, d = (base.transform, base.shape_in), base.support().astype(float)
    elif isinstance(base, CirculantConvOperator):
        frame, d = ("dft", base.shape_in), np.abs(base.response.reshape(-1)) ** 2
    else:
        return None
    return frame, scale * scale * d


def norm_sq(op):
    """||A||^2, the largest eigenvalue of A'A, for an operator A.

    max d of a diagonal A'A (`_diagonal_gram`), else the top syevd
    eigenvalue of one n x n A'A from `add_gram`, clipped at 0.
    """
    gram = _diagonal_gram(op)
    if gram is not None:
        return float(np.max(gram[1]))
    return float(max(lower_eigvalsh(add_gram(op))[-1], 0.0))


def _alias_spectrum(op, scale_sq, s_term):
    """Eigenvalues of scale_sq H'H + diag(s_term) for a decimated convolution H."""
    f, shape = op.factor, op.shape_in
    d = len(shape)
    size = f ** d

    def by_class(a):
        # bin w = j (s / f) + r on each axis: rows are classes r, columns aliases j
        a = a.reshape(tuple(v for s in shape for v in (f, s // f)))
        a = a.transpose(tuple(range(1, 2 * d, 2)) + tuple(range(0, 2 * d, 2)))
        return a.reshape(-1, size)

    k = by_class(op.conv.response)
    blocks = (scale_sq / size) * (k[:, :, None] * k[:, None, :].conj())
    if s_term is not None:
        diag = np.arange(size)
        blocks[:, diag, diag] += by_class(s_term)
    return np.linalg.eigvalsh(blocks).reshape(-1)


def lambda_max(op, basis=None, gamma=0.0):
    """Largest eigenvalue of P = H'H + gamma S'S (of H'H without a basis).

    Exact from the structural spectrum (`normal_spectrum`), else one
    Lanczos run (ARPACK `eigsh`) to machine precision from a fixed start,
    a few ulps low (Kuczynski & Wozniakowski, SIAM J. Matrix Anal. Appl.
    1992), on H'H without a basis or at gamma = 0, else on P.  An exact
    complement's step at gamma <= lambda_max(H'H) is the gamma = 0 step
    bit for bit.  `basis` may be a plain matrix.
    """
    basis = None if basis is None or gamma == 0.0 else as_basis(basis)
    eig = normal_spectrum(op, basis, gamma)
    if eig is not None:
        return float(np.max(eig))
    if basis is None:
        return _lanczos_max(op.n, lambda v: op.adjoint(op.forward(v)))
    pair = basis.pair(op)
    return _lanczos_max(op.n, lambda v: pair.adjoint(*pair.forward(v), gamma))


def _lanczos_max(n, matvec):
    """Largest eigenvalue of the symmetric n x n matrix applied by `matvec`."""
    if n == 1:  # ARPACK needs n > 1
        return float(matvec(np.ones(1))[0])
    # its own seed: drawn from a basis's stream, a start can miss the basis
    rng = np.random.default_rng(1992)
    start = rng.uniform(-1.0, 1.0, n)
    if not np.any(matvec(start)):  # ARPACK rejects a start vector in the null space
        return 0.0
    # imported here: ARPACK adds 2 MB to the peak memory of every process
    from scipy.sparse.linalg import LinearOperator, eigsh
    P = LinearOperator((n, n), matvec=matvec, dtype=float)
    return float(eigsh(P, k=1, which="LA", tol=0, v0=start, rng=rng,
                       return_eigenvectors=False)[0])


def compute_rho(delta, alpha, op, basis, gamma, ric_s):
    """Contraction rate of the penalized gradient map, in unsquared norms.

    The penalty weights S by sqrt(gamma): the rate takes ||I - alpha P|| with
    P = H'H + gamma S'S and ||sqrt(gamma) S|| = sqrt(gamma ||S||^2).
    `basis` may be a plain matrix.  ||S||^2 is the basis's own `norm_sq`,
    measured on its first read and kept with the basis, so the points of a
    sweep that share a basis measure it once.  With a structural spectrum
    (`normal_spectrum`, a QR pair's too) ||I - alpha P|| is max |1 - alpha
    lambda| over it.  Any other pair (n <= 4096) reads it from symmetric
    eigenvalues of one n x n buffer: P = gamma S'S + H'H by `add_gram` (a
    dense operator's matrix read uncopied, any other operator added in row
    blocks), shifted in place to I - alpha P for LAPACK's syevd.  A first
    read of ||S||^2 fills and frees its own n x n S'S before that buffer is
    made, so beyond the operators' own arrays one n x n buffer (8 n^2
    bytes) and one row block are held: a Radon H is never densified.

    alpha None takes the step 0.9 / lambda_max(P) from the same spectrum:
    a structural one gives `default_alpha`'s value bit for bit, and a dense
    pair reads syevd of P itself, unshifted, and ||I - alpha P|| as max
    |1 - alpha lambda| over its ends.  This is the step of a solver that
    never takes one (PnP-ADMM), so no Lanczos runs for it.  A zero P raises
    NullPriorError, as `default_alpha` does.  The estimate carries its alpha.
    """
    basis = as_basis(basis)
    s_norm = float(np.sqrt(gamma * basis.norm_sq))
    eig = normal_spectrum(op, basis, gamma)
    if eig is None:
        M = add_gram(op, 1.0, add_gram(basis.operator, gamma))
    if alpha is None:
        if eig is None:
            eig = lower_eigvalsh(M)[[0, -1]]  # the ends of P's spectrum
        alpha = default_step(float(np.max(eig)))
    if eig is not None:
        op_norm = float(np.max(np.abs(1.0 - alpha * eig)))
    else:
        M *= -alpha
        M.flat[::op.n + 1] += 1.0
        eig = lower_eigvalsh(M)
        op_norm = float(max(abs(eig[0]), abs(eig[-1])))
    rho = (1.0 + delta) * (op_norm + (1.0 + ric_s) * s_norm)
    return RhoEstimate(rho, op_norm, s_norm, alpha)


def default_step(lam):
    """0.9 / lam, the default step for P's largest eigenvalue lam."""
    if lam <= 0.0:
        raise NullPriorError("operator is zero; cannot pick a step size")
    return 0.9 / lam


def decay_constants(alpha, K, ric_s, ric_h, xstar_norm):
    """Constant pair (C1, C2) of the penalty-decay bound."""
    C1 = 1.0 / (2.0 * alpha) + (1.0 + ric_s) ** 2 \
        + K * (1.0 + ric_h) * (1.0 + ric_s) * xstar_norm
    C2 = (1.0 + ric_s) + 1.0 / np.sqrt(2.0 * alpha)
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


@dataclass
class TheoryReport:
    """Measured constants for one solve, plus the detected improvement zone."""

    delta_hat: float
    ric_s: float
    ric_h: float
    K: float
    error_norm: float
    rho: float
    gradient_op_norm: float
    s_spectral_norm: float
    C1: float
    C2: float
    alpha: float
    gamma: float
    xstar_norm: float
    ciz: np.ndarray = field(default=None, repr=False)
    certified: bool = True
    notes: list = field(default_factory=list)

    def to_text(self):
        lines = []
        for name in ("delta_hat", "ric_s", "ric_h", "K", "error_norm", "rho",
                     "gradient_op_norm", "s_spectral_norm", "C1", "C2",
                     "alpha", "gamma", "xstar_norm"):
            lines.append(f"{name} = {getattr(self, name):.17g}")
        ciz = self.ciz
        if ciz is None or len(ciz) == 0:
            lines.append("ciz = (empty)")
        else:
            lines.append(f"ciz = {int(ciz[0])}..{int(ciz[-1])} (size {len(ciz)})")
        lines.append(f"certified = {self.certified}")
        for note in self.notes:
            lines.append(f"note = {note}")
        return "\n".join(lines) + "\n"

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_text())
