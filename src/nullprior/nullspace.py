"""Construction of projection bases aligned with the sensing operator's null space.

A basis holds its rows S as a linear operator: `project` applies S and
`backproject` its transpose.  Each complement is built from the sensing
operator it complements, unscaled.  Exact Fourier complements are the
unsampled rows of an orthonormal transform, held as a masked frequency
operator over the missing frequencies.  Toeplitz and SR complements are
circulant convolutions with frequency response 1 - K, K that of the
operator's convolution, held as such.  Applying either costs one DCT or FFT
round trip and forms no p x n array.  QR complements (of a dense H),
learned bases and Radon complements hold a dense matrix.  A scaled basis
wraps the operator of the basis it scales, so it keeps that basis's
structure.  The Radon and convolution rows are not exactly in Null(H), so
their orthogonality residuals are recorded rather than forced to zero: in
closed form over the FFT bins for the convolutions, from the dense rows for
Radon.  Residuals that need no more than the basis and a matrix-free
operator (Fourier and Radon complements, scaled bases) are measured the
first time either is read; QR and learned bases measure theirs from the
dense H at build, so that nothing keeps H alive.  `.matrix` densifies an
operator-backed basis on request, within the dense cap.
"""

import io
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyComplementError,
    InfeasibleDimensionError,
    NullPriorError,
    RankDeficientError,
)
from .operators import (
    CirculantConvOperator,
    DecimatedConvOperator,
    DenseOperator,
    LinearOperator,
    MaskedFrequencyOperator,
    RadonOperator,
    ScaledOperator,
    _as_flat,
    _check_dense_cap,
    all_representatives,
    split_scale,
)

RANK_RTOL = 1e-10  # singular values below RANK_RTOL * sigma_max count as zero

# Gaussian probes behind the Fourier-complement residual bounds: the count,
# and the probability that one bound falls below the residual it bounds
RESIDUAL_PROBES = 128
RESIDUAL_FAILURE = 1e-6
_PROBE_BLOCK = 16  # probes per transform round trip
_RESIDUAL_ROWS = 128  # rows of a dense basis per residual block


@dataclass(frozen=True, init=False)
class NullSpaceBasis:
    """Projection rows S (p x n) as a linear operator, with provenance and residuals.

    A plain matrix passed as `operator` is wrapped in a DenseOperator.  The
    residuals are given as numbers, or as `measure`, a function returning
    both that runs the first time either is read and is then dropped: a
    run that never reads them never measures them.  Equality and repr read
    them like any field.
    """

    operator: LinearOperator
    method: str
    ortho_to_H_residual: float
    row_gram_residual: float

    def __init__(self, operator, method, ortho_to_H_residual=None, row_gram_residual=None,
                 *, measure=None):
        if measure is None and (ortho_to_H_residual is None or row_gram_residual is None):
            raise TypeError("NullSpaceBasis needs both residuals or a measure")
        if not isinstance(operator, LinearOperator):
            operator = DenseOperator(operator)
        object.__setattr__(self, "operator", operator)
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "_measure", measure)
        if measure is None:
            object.__setattr__(self, "ortho_to_H_residual", ortho_to_H_residual)
            object.__setattr__(self, "row_gram_residual", row_gram_residual)

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks: the residuals
        # of a basis given `measure`, until their first read
        measure = self.__dict__.get("_measure")
        if measure is None or name not in ("ortho_to_H_residual", "row_gram_residual"):
            raise AttributeError(name)
        ortho, gram = measure()
        object.__setattr__(self, "ortho_to_H_residual", ortho)
        object.__setattr__(self, "row_gram_residual", gram)
        object.__setattr__(self, "_measure", None)
        return self.__dict__[name]

    @cached_property
    def norm_sq(self):
        """||S||^2, the largest eigenvalue of S'S, measured on first read.

        Exact from a diagonal S'S (a Fourier, Toeplitz or SR complement,
        scaled or not),
        else from one dense n x n S'S (n <= 4096): `diagnostics.norm_sq`.
        """
        from . import diagnostics  # imported here: diagnostics imports this module
        return diagnostics.norm_sq(self.operator)

    @property
    def p(self):
        return self.operator.m_eff

    @property
    def n(self):
        return self.operator.n

    @property
    def matrix(self):
        """S as a dense array: a dense basis's own matrix, else densified (n <= 4096)."""
        if isinstance(self.operator, DenseOperator):
            return self.operator.matrix
        return self.operator.to_dense()

    # S is applied through the operator's own methods rather than its public
    # forward/adjoint, so sensing-operator call counts exclude the basis

    def project(self, x):
        return self.operator._apply(_as_flat(x, self.n, "signal"))

    def backproject(self, coeffs):
        return self.operator._apply_adjoint(_as_flat(coeffs, self.p, "coefficients"))

    def pair(self, op):
        """The stacked pair [H; S] for sensing operator `op` (an `OperatorPair`)."""
        return OperatorPair(op, self)

    def scaled(self, factor):
        """Rows factor * S, this basis's operator wrapped, not copied (theory configs).

        Residuals are measured on first read: |factor| times this basis's
        `ortho_to_H_residual`, and the row-gram residual of the dense rows.
        """
        factor = float(factor)
        op = ScaledOperator(self.operator, factor)
        return NullSpaceBasis(op, f"{self.method}-scaled",
                              measure=lambda: (abs(factor) * self.ortho_to_H_residual,
                                               _residuals(op.to_dense())[1]))


class OperatorPair:
    """A sensing operator H and a basis S applied together.

    `forward(x)` gives (H x, S x) and `adjoint(u, w, gamma)` gives
    H'u + gamma S'w.  When H and S (or scaled wrappers around them) are
    masks of one transform on one shape with disjoint supports, as for a
    Fourier complement, [H; S] are rows of one orthonormal transform
    (the masked-Fourier model of Lustig, Donoho & Pauly, "Sparse MRI",
    MRM 2007): H x and S x come from one spectrum, bit-equal to applying
    each, and both transposes scatter into one spectrum for one inverse
    transform.  Any other pair applies H and S separately, as `op.forward`
    and `basis.project` do.  Which way is chosen once, here, so a solve
    builds its pair once and makes every product through it.
    """

    def __init__(self, op, basis):
        self.op = op
        self.basis = basis
        self._shared = _shared_masks(op, basis.operator)

    def forward(self, x):
        """(H x, S x)."""
        if self._shared is None:
            return self.op.forward(x), self.basis.project(x)
        H, h_scale, S, s_scale = self._shared
        spec = H._spectrum(_as_flat(x, H.n, "signal"))
        return h_scale * H._gather(spec), s_scale * S._gather(spec)

    def adjoint(self, u, w, gamma):
        """H'u + gamma S'w."""
        if self._shared is None:
            return self.op.adjoint(u) + gamma * self.basis.backproject(w)
        H, h_scale, S, s_scale = self._shared
        spec = H._scatter(h_scale * _as_flat(u, H.m_eff, "measurement"))
        S._scatter((gamma * s_scale) * _as_flat(w, S.m_eff, "coefficients"), spec)
        return H._inverse(spec)


def _shared_masks(op, S_op):
    """(H, its scale, S, its scale) of disjoint masks of one transform (`split_scale`), or None."""
    (H, h_scale), (S, s_scale) = split_scale(op), split_scale(S_op)
    if not (isinstance(H, MaskedFrequencyOperator) and isinstance(S, MaskedFrequencyOperator)):
        return None
    if (H.transform, H.shape_in) != (S.transform, S.shape_in):
        return None
    if np.any(H.support() & S.support()):
        return None
    return H, h_scale, S, s_scale


def _unscaled(op, cls, name):
    """op's base (`split_scale`), checked to be a `cls`."""
    base, _ = split_scale(op)
    if not isinstance(base, cls):
        raise NullPriorError(f"{name} requires a {cls.__name__}")
    return base


def as_basis(S):
    """A NullSpaceBasis as is; a plain matrix wrapped with unmeasured residuals."""
    if isinstance(S, NullSpaceBasis):
        return S
    return NullSpaceBasis(S, "given", float("nan"), float("nan"))


@dataclass(frozen=True)
class OrthogonalityReport:
    ortho_residual: float
    row_gram_residual: float
    rank_of_stack: int
    invertibility_loss: float


def _residuals(S, op=None, H_dense=None):
    """(||S H'||_F, ||S S' - I||_F) of a dense p x n basis S.

    H is a sensing operator `op`, applied to a stack of rows, or a dense
    matrix `H_dense`; with neither, ||S H'||_F is nan.  Both squared norms
    are summed over blocks of _RESIDUAL_ROWS rows of S, so at most a
    block x max(p, m) array is formed, never S S' or S H'.  S S' - I is
    formed directly rather than from ||S'S||^2 - 2 ||S||^2 + p, which
    cancels to rounding error for orthonormal rows.
    """
    has_h = op is not None or H_dense is not None
    ortho_sq, gram_sq = (0.0 if has_h else np.nan), 0.0
    for start in range(0, S.shape[0], _RESIDUAL_ROWS):
        rows = S[start:start + _RESIDUAL_ROWS]
        if has_h:
            sh = rows @ H_dense.T if H_dense is not None else op._apply(rows)
            ortho_sq += float(np.vdot(sh, sh))
        gram = rows @ S.T
        k = np.arange(len(rows))
        gram[k, start + k] -= 1.0
        gram_sq += float(np.vdot(gram, gram))
    return float(np.sqrt(ortho_sq)), float(np.sqrt(gram_sq))


def qr_nullspace(H_dense, p, seed=0):
    """Orthonormal rows spanning a random p-dimensional subspace of Null(H).

    A full QR factorization of H^T yields an orthonormal null-space basis N;
    a seeded Gaussian matrix, orthonormalized by a second QR, selects the
    subspace.  Requires rank(H) = m and p <= n - m.
    """
    # imported here: only dense bases need it, and loading scipy.linalg adds
    # about 6 MB to the peak memory of every process that imports nullprior
    import scipy.linalg

    H = np.asarray(H_dense, dtype=float)
    m, n = H.shape
    _check_dense_cap(n)
    Q, R = scipy.linalg.qr(H.T, mode="full", check_finite=False)
    # H' = Q R: H's singular values are those of R's top m rows
    svals = np.linalg.svd(R[:m], compute_uv=False)
    del R  # n x m: kept, it raised the peak by 33 MB at n = 4096, m = 1024
    rank = int(np.sum(svals > RANK_RTOL * svals[0])) if svals.size else 0
    if rank < m:
        raise RankDeficientError(f"H has numerical rank {rank} < m={m}")
    if p < 1 or p > n - m:
        raise InfeasibleDimensionError(f"p={p} not in [1, n-m={n - m}]")
    N = Q[:, m:]
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((n - m, p))
    U, _ = scipy.linalg.qr(P, mode="economic")
    S = (N @ U).T
    ortho, gram = _residuals(S, H_dense=H)
    return NullSpaceBasis(S, "qr-random", ortho, gram)


def fourier_complement(op):
    """Rows of the transform at the frequencies the mask left out.

    Works on a MaskedFrequencyOperator (or a scaled wrapper around one) and
    returns a basis held as the masked operator over the missing
    frequencies: flat indices for the DCT, conjugate-pair representatives
    for the DFT (rows as in `dft_real_rows`), both ascending.  The rows are
    orthonormal and exactly orthogonal to the kept rows.  Both residuals
    are probabilistic upper bounds measured through the operators from
    128 seeded Gaussian probes, without forming S: each holds with
    probability >= 1 - 1e-6, both together with probability >= 1 - 2e-6
    (`_probe_residuals`).  They are measured the first time either is
    read, which no run, sweep or theory check does: the pair's spectrum
    gives lambda_max and rho without them.
    """
    base = _unscaled(op, MaskedFrequencyOperator, "fourier_complement")
    pool = np.arange(base.n) if base.transform == "dct" else all_representatives(base.shape_in)
    missing = np.setdiff1d(pool, base.kept, assume_unique=True)
    if missing.size == 0:
        raise EmptyComplementError("mask keeps every frequency")
    S_op = MaskedFrequencyOperator(base.shape_in, missing, base.transform)
    return NullSpaceBasis(S_op, "fourier-complement",
                          measure=lambda: _probe_residuals(S_op, base))


def _probe_residuals(S_op, H_op):
    """Upper bounds on ||S H'||_F and ||S S' - I||_F for any two operators.

    For a fixed p-column matrix E and k independent standard Gaussian
    probes z in R^p, ||E Z||_F^2 is a weighted chi-square whose lower tail
    (Laurent & Massart, Ann. Statist. 2000, Lemma 1) gives
    P(||E Z||_F^2 <= ||E||_F^2 k (1 - 2 sqrt(ln(1/delta) / k))) <= delta.
    So ||E Z||_F / c with c = sqrt(k (1 - 2 sqrt(ln(1/delta) / k))) bounds
    ||E||_F from above with probability >= 1 - delta over the probes, at
    k = RESIDUAL_PROBES = 128 and delta = RESIDUAL_FAILURE = 1e-6; both
    bounds hold together with probability >= 1 - 2e-6.  Each bound is
    1.71 times the plain estimate sqrt(||E Z||_F^2 / k).

    The probes come from a fixed seed, 16 at a time, and H and S are
    applied to S'Z.  Two masks of one transform (`_shared_masks`) read both
    from one transform, so a Fourier complement costs eight round trips
    whatever p is; small blocks keep the transient small (tracemalloc,
    n = 4096 and p = 3072: 2.0 MB, against 7.9 MB for blocks of 64).
    """
    shared = _shared_masks(H_op, S_op)
    rng = np.random.default_rng(0)
    ortho_sq = gram_sq = 0.0
    for _ in range(RESIDUAL_PROBES // _PROBE_BLOCK):
        Z = rng.standard_normal((_PROBE_BLOCK, S_op.m_eff))
        V = S_op._apply_adjoint(Z)
        if shared is None:
            hv, sv = H_op._apply(V), S_op._apply(V)
        else:  # H, its scale, S, its scale
            spec = shared[2]._spectrum(V)
            hv, sv = shared[1] * shared[0]._gather(spec), shared[3] * shared[2]._gather(spec)
        ortho_sq += float(np.sum(hv ** 2))
        gram_sq += float(np.sum((sv - Z) ** 2))
    k = RESIDUAL_PROBES
    c = np.sqrt(k * (1.0 - 2.0 * np.sqrt(np.log(1.0 / RESIDUAL_FAILURE) / k)))
    return float(np.sqrt(ortho_sq) / c), float(np.sqrt(gram_sq) / c)


def radon_complement(op, full_angles):
    """Radon rows at the angles of `full_angles` that the Radon operator op lacks.

    An approximate complement; its residuals come from the dense rows and op,
    measured the first time either is read.  `save_basis` and
    `inspect-basis` read them, and so does the first read of a `scaled()`
    copy's; no run does.  The dense cap is checked before the missing-angle operator
    is built, and that operator is only densified, so it never builds the
    transpose an adjoint would need.
    """
    radon = _unscaled(op, RadonOperator, "radon_complement")
    _check_dense_cap(radon.n)
    full = [float(a) for a in full_angles]
    acq = set(radon.angles_deg)
    if not acq <= set(full):
        raise NullPriorError("acquired angles must be a subset of the full set")
    missing = [a for a in full if a not in acq]
    if not missing:
        raise EmptyComplementError("all angles acquired")
    S = RadonOperator(radon.side, missing).to_dense()
    return NullSpaceBasis(S, "radon-complement", measure=lambda: _residuals(S, op=radon))


def _complement_circulant(H, conv, method):
    """Circulant complement of H's convolution `conv`, with residuals in closed form.

    S and the blur share the DFT: S has response S^ = 1 - K^, and H is the
    convolution with response K^, decimated for SR.  Over the FFT bins
    ||S H'||_F^2 = (m / n) sum |S^ K^|^2 and ||S S' - I||_F^2 =
    sum (|S^|^2 - 1)^2: every column of a circulant has the same norm, and
    a decimation keeps m / n of the columns of S H'.
    """
    kernel = conv.kernel_full
    if np.any(kernel < 0) or not np.isclose(kernel.sum(), 1.0):
        raise NullPriorError("kernel must be nonnegative and sum to 1")
    gen = -kernel
    gen.reshape(-1)[0] += 1.0  # complement response 1 - K(w) at every bin
    S_op = CirculantConvOperator(conv.shape_in, gen)
    s_sq = np.abs(S_op.response) ** 2
    ortho = np.sqrt(H.m_eff / H.n * np.sum(s_sq * np.abs(conv.response) ** 2))
    gram = np.sqrt(np.sum((s_sq - 1.0) ** 2))
    return NullSpaceBasis(S_op, method, float(ortho), float(gram))


def toeplitz_complement(op):
    """Circulant complement of a blur op: frequency response 1 - K at every bin.

    Rows follow the blur's shift structure but pass what the kernel attenuates,
    so they concentrate on the high frequencies the measurements lose.
    """
    blur = _unscaled(op, CirculantConvOperator, "toeplitz_complement")
    return _complement_circulant(blur, blur, "toeplitz-complement")


def sr_complement(op):
    """Complement of a decimated convolution op, built from its low-pass kernel alone."""
    sr = _unscaled(op, DecimatedConvOperator, "sr_complement")
    return _complement_circulant(sr, sr.conv, "sr-complement")


def pseudoinverse(A):
    """SVD pseudoinverse with the package-wide relative rank cutoff."""
    return np.linalg.pinv(A, rcond=RANK_RTOL)


def orthogonality_report(S, H_dense, sample_signals):
    """Residuals, stacked rank, and the data-driven invertibility loss.

    invertibility_loss is the mean of ||x - A^+ A x||^2 over the samples,
    where A stacks the sensing rows over the projection rows.
    """
    S = as_basis(S).matrix
    H = np.asarray(H_dense, dtype=float)
    if S.shape[1] != H.shape[1]:
        raise DimensionMismatchError("S and H must share the signal dimension")
    A = np.vstack([H, S])
    svals = np.linalg.svd(A, compute_uv=False)
    rank = int(np.sum(svals > RANK_RTOL * svals[0])) if svals.size and svals[0] > 0 else 0
    proj = pseudoinverse(A) @ A
    samples = np.atleast_2d(np.asarray(sample_signals, dtype=float))
    residual = samples - samples @ proj.T
    loss = float(np.mean(np.sum(residual ** 2, axis=1)))
    ortho, gram = _residuals(S, H_dense=H)
    return OrthogonalityReport(ortho, gram, rank, loss)


# ---------------------------------------------------------------------------
# serialization: commented header line + CSV rows
# ---------------------------------------------------------------------------

def save_basis(basis, path):
    with open(path, "w") as fh:
        fh.write(f"# method={basis.method} p={basis.p} n={basis.n} "
                 f"ortho_to_H_residual={basis.ortho_to_H_residual:.17g} "
                 f"row_gram_residual={basis.row_gram_residual:.17g}\n")
        np.savetxt(fh, basis.matrix, delimiter=",", fmt="%.17g")


def load_basis(path):
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("# method="):
            raise NullPriorError(f"{path} is not a basis dump")
        fields = dict(item.split("=", 1) for item in header[2:].split())
        matrix = np.loadtxt(io.StringIO(fh.read()), delimiter=",", ndmin=2)
    basis = NullSpaceBasis(matrix, fields["method"],
                           float(fields["ortho_to_H_residual"]),
                           float(fields["row_gram_residual"]))
    if basis.p != int(fields["p"]) or basis.n != int(fields["n"]):
        raise NullPriorError("basis dump header disagrees with matrix shape")
    return basis
