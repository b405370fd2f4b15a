"""Linear sensing operators with a uniform forward/adjoint interface.

Five measurement models are provided: dense random matrices (compressed
sensing), masked frequency transforms (MRI-style, DCT or real-stacked DFT),
circular convolution (deblurring), decimated convolution (super-resolution),
and a parallel-beam Radon subset (limited-angle CT).  Every operator maps a
flat real vector of length n to a flat real measurement vector and exposes
an exact adjoint and a dense materialization (n <= 4096).  Spectral
quantities of an operator and its basis live in `diagnostics`.  The classes
take built values (index lists, kernel taps, angles); the config layer,
`experiments.make_operator`, builds them from an `operator` config section.

All operators are immutable after construction; forward/adjoint are pure.
"""

import math
from functools import cached_property

import numpy as np
import scipy.fft

from .errors import DimensionMismatchError, NullPriorError, SizeCapError

DENSE_CAP = 4096


def _check_dense_cap(n):
    if n > DENSE_CAP:
        raise SizeCapError(f"n={n} exceeds dense cap {DENSE_CAP}")


def identity_chunks(size, chunk=64):
    """The size x size identity as (start, rows) blocks of at most `chunk` rows.

    Batched transforms of unit vectors go block by block: a block of 64
    rows at n = 4096 stays in cache, where larger ones ran slower.
    """
    for start in range(0, size, chunk):
        count = min(chunk, size - start)
        rows = np.zeros((count, size))
        rows[np.arange(count), start + np.arange(count)] = 1.0
        yield start, rows


def _as_flat(x, n, what="input"):
    x = np.asarray(x, dtype=float)
    if x.size != n:
        raise DimensionMismatchError(f"{what} has size {x.size}, expected {n}")
    return x.reshape(-1)


class LinearOperator:
    """Base class: subclasses set .shape_in, .m_eff and implement _apply/_apply_adjoint.

    Both take one flat vector or a stack of them as the rows of a 2-D
    array, and apply the operator to every vector in one call.
    """

    shape_in = None  # (n,) or (h, w)
    m_eff = None     # length of the real measurement vector

    @property
    def n(self):
        return math.prod(self.shape_in)

    def forward(self, x):
        """Apply the operator to a signal (flat or shaped); returns a flat measurement."""
        return self._apply(_as_flat(x, self.n, "signal"))

    def adjoint(self, u):
        """Apply the transpose to a measurement vector; returns a flat signal."""
        return self._apply_adjoint(_as_flat(u, self.m_eff, "measurement"))

    def to_dense(self):
        """Materialize the (m_eff, n) matrix by applying the operator to blocks of unit vectors."""
        _check_dense_cap(self.n)
        out = np.empty((self.m_eff, self.n))
        for start, rows in identity_chunks(self.n):
            out[:, start:start + len(rows)] = self._apply(rows).T
        return out


class DenseOperator(LinearOperator):
    """Explicit (m, n) matrix, used for compressed sensing."""

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise DimensionMismatchError("matrix must be 2-D")
        self.matrix = matrix
        self.shape_in = (matrix.shape[1],)
        self.m_eff = matrix.shape[0]

    # transposes make a stack of row vectors columns of one product; for a
    # single vector they do nothing

    def _apply(self, x):
        return (self.matrix @ x.T).T

    def _apply_adjoint(self, u):
        return (self.matrix.T @ u.T).T

    def to_dense(self):
        return self.matrix.copy()


# ---------------------------------------------------------------------------
# masked frequency transforms
# ---------------------------------------------------------------------------

def _as_shape(shape):
    return (int(shape),) if np.isscalar(shape) else tuple(int(s) for s in shape)


def conjugate_partners(indices, shape):
    """Flat indices of the mirrored (negated) frequencies of a real-input DFT, elementwise."""
    shape = _as_shape(shape)
    idx = np.unravel_index(np.asarray(indices, dtype=np.intp), shape)
    return np.ravel_multi_index(tuple((-k) % s for k, s in zip(idx, shape)), shape)


def conjugate_partner(flat_index, shape):
    """Flat index of the mirrored (negated) frequency for a real-input DFT."""
    return int(conjugate_partners(flat_index, shape))


def canonical_representatives(indices, shape):
    """Map DFT frequency indices to conjugate-pair representatives, deduped and sorted."""
    k = np.asarray(indices, dtype=np.intp).reshape(-1)
    return np.unique(np.minimum(k, conjugate_partners(k, shape))).tolist()


def all_representatives(shape):
    """Every conjugate-pair representative of a real-input DFT, ascending."""
    return canonical_representatives(np.arange(math.prod(_as_shape(shape))), shape)


def dft_real_rows(shape, representatives):
    """Real orthonormal rows for the given DFT representatives.

    Each non-self-conjugate frequency contributes two rows (sqrt(2) x real
    part, sqrt(2) x imaginary part of the unitary DFT row); self-conjugate
    frequencies (DC / Nyquist) contribute their single real row.
    """
    shape = tuple(shape)
    n = int(np.prod(shape))
    rows = []
    grids = np.meshgrid(*[np.arange(s) for s in shape], indexing="ij")
    for k in representatives:
        idx = np.unravel_index(k, shape)
        phase = sum(g * (ki / s) for g, ki, s in zip(grids, idx, shape))
        row = np.exp(-2j * np.pi * phase).reshape(-1) / np.sqrt(n)
        if conjugate_partner(k, shape) == k:
            rows.append(row.real)
        else:
            rows.append(np.sqrt(2.0) * row.real)
            rows.append(np.sqrt(2.0) * row.imag)
    return np.array(rows)


TRANSFORMS = ("dct", "dft")  # the orthonormal transforms a frequency mask selects from


class MaskedFrequencyOperator(LinearOperator):
    """Rows of an orthonormal transform restricted to a kept frequency set.

    transform="dct": orthonormal DCT-II coefficients at the kept flat indices
    (all-real, m_eff = m).  transform="dft": unitary DFT coefficients at the
    kept conjugate-pair representatives, stacked into real rows (real and
    imaginary parts scaled by sqrt(2), self-conjugate rows kept once), so the
    resulting real matrix still has orthonormal rows.
    """

    def __init__(self, shape, kept, transform="dct"):
        self.shape_in = _as_shape(shape)
        n = self.n
        kept = [int(k) for k in kept]
        if len(kept) == 0:
            raise DimensionMismatchError("mask must keep at least one frequency")
        if any(k < 0 or k >= n for k in kept):
            raise DimensionMismatchError("mask index out of range")
        if transform not in TRANSFORMS:
            raise NullPriorError(f"unknown transform {transform!r}")
        self.transform = transform
        if transform == "dct":
            if len(set(kept)) != len(kept):
                raise DimensionMismatchError("mask indices must be distinct")
            self.kept = sorted(kept)
            self._kept = np.array(self.kept)  # indexing by a list converts it per call
            self.m_eff = len(self.kept)
        else:
            self.kept = canonical_representatives(kept, self.shape_in)
            reps = np.array(self.kept)
            partners = conjugate_partners(reps, self.shape_in)
            selfconj = partners == reps
            # output slot of each kept frequency: one row if self-conjugate, else two
            slots = np.concatenate(([0], np.cumsum(np.where(selfconj, 1, 2))[:-1]))
            self._sc_kept, self._sc_slots = reps[selfconj], slots[selfconj]
            self._pair_kept, self._pair_slots = reps[~selfconj], slots[~selfconj]
            self._pair_partners = partners[~selfconj]
            self.m_eff = len(self._sc_kept) + 2 * len(self._pair_kept)

    def _apply(self, x):
        return self._gather(self._spectrum(x))

    def _spectrum(self, x):
        """The full transform of x (or of each vector of a stack), flattened."""
        batch = x.shape[:-1]
        xs = x.reshape(batch + self.shape_in)
        axes = tuple(range(-len(self.shape_in), 0))
        if self.transform == "dct":
            spec = scipy.fft.dctn(xs, type=2, norm="ortho", axes=axes)
        else:
            spec = scipy.fft.fftn(xs, norm="ortho", axes=axes)
        return spec.reshape(batch + (self.n,))

    def _gather(self, spec):
        """The real measurement vector at the kept frequencies of a full transform."""
        if self.transform == "dct":
            return spec[..., self._kept]
        out = np.empty(spec.shape[:-1] + (self.m_eff,))
        out[..., self._sc_slots] = spec[..., self._sc_kept].real
        pairs = spec[..., self._pair_kept]
        out[..., self._pair_slots] = np.sqrt(2.0) * pairs.real
        out[..., self._pair_slots + 1] = np.sqrt(2.0) * pairs.imag
        return out

    def _apply_adjoint(self, u):
        return self._inverse(self._scatter(u))

    def _scatter(self, u, spec=None):
        """Write the coefficients u into a full spectrum, zero elsewhere.

        For the DFT each pair's value also goes to its conjugate partner.
        Writes into `spec` when given, where another mask's coefficients
        may sit in other bins, and returns it.
        """
        if spec is None:
            spec = np.zeros(u.shape[:-1] + (self.n,),
                            dtype=float if self.transform == "dct" else complex)
        if self.transform == "dct":
            spec[..., self._kept] = u
            return spec
        spec[..., self._sc_kept] = u[..., self._sc_slots]
        w = (u[..., self._pair_slots] + 1j * u[..., self._pair_slots + 1]) / np.sqrt(2.0)
        spec[..., self._pair_kept] = w
        spec[..., self._pair_partners] = np.conj(w)
        return spec

    def _inverse(self, spec):
        """The inverse transform of a full spectrum (or of each of a stack), real and flat."""
        batch = spec.shape[:-1]
        specs = spec.reshape(batch + self.shape_in)
        axes = tuple(range(-len(self.shape_in), 0))
        if self.transform == "dct":
            x = scipy.fft.idctn(specs, type=2, norm="ortho", axes=axes)
        else:
            x = scipy.fft.ifftn(specs, norm="ortho", axes=axes).real
        return x.reshape(batch + (self.n,))

    def support(self):
        """Boolean mask over the full transform's flat bins that these rows span.

        The kept DCT indices; for the DFT, each kept representative and its
        conjugate partner, whose two bins the representative's real rows span.
        """
        mask = np.zeros(self.n, dtype=bool)
        if self.transform == "dct":
            mask[self._kept] = True
        else:
            mask[self._sc_kept] = mask[self._pair_kept] = mask[self._pair_partners] = True
        return mask


# ---------------------------------------------------------------------------
# convolution operators
# ---------------------------------------------------------------------------

ANCHORS = ("start", "center")  # where a convolution kernel's taps start


def embed_kernel(kernel, shape, anchor="start"):
    """Place a (possibly short) kernel into a full-size circular array.

    anchor="start" puts kernel tap j at offset j, matching row structure
    H[i, i+j] = h[j]; anchor="center" wraps the kernel so its central tap
    sits at offset 0 (symmetric blurs).
    """
    kernel = np.asarray(kernel, dtype=float)
    shape = _as_shape(shape)
    if kernel.ndim != len(shape):
        raise DimensionMismatchError("kernel dimensionality must match signal shape")
    if any(ks > s for ks, s in zip(kernel.shape, shape)):
        raise DimensionMismatchError("kernel longer than signal")
    full = np.zeros(shape)
    full[tuple(slice(0, ks) for ks in kernel.shape)] = kernel
    if anchor == "center":
        full = np.roll(full, [-(ks // 2) for ks in kernel.shape],
                       axis=tuple(range(len(shape))))
    elif anchor not in ANCHORS:
        raise NullPriorError(f"unknown anchor {anchor!r}")
    return full


class CirculantConvOperator(LinearOperator):
    """Circular correlation y[i] = sum_j h[j] x[(i+j) mod n], i.e. H[i, i+j] = h[j].

    Circulant, hence diagonalized by the DFT; forward multiplies the spectrum
    by conj(K), the adjoint by K, where K (`response`) is the FFT of the
    embedded kernel.  H'H has eigenvalues |K|^2, one per DFT bin.
    """

    def __init__(self, shape, kernel, anchor="start"):
        self.shape_in = _as_shape(shape)
        self.kernel_full = embed_kernel(kernel, self.shape_in, anchor)
        self.response = scipy.fft.fftn(self.kernel_full)
        self.m_eff = self.n

    def _apply(self, x):
        return self._filter(x, np.conj(self.response))

    def _apply_adjoint(self, u):
        return self._filter(u, self.response)

    def _filter(self, x, response):
        batch = x.shape[:-1]
        axes = tuple(range(-len(self.shape_in), 0))
        spec = scipy.fft.fftn(x.reshape(batch + self.shape_in), axes=axes)
        out = scipy.fft.ifftn(spec * response, axes=axes)
        return out.real.reshape(batch + (self.n,))


class DecimatedConvOperator(LinearOperator):
    """Low-pass circular convolution `conv` followed by factor-d decimation on every axis."""

    def __init__(self, shape, kernel, factor, anchor="center"):
        shape = _as_shape(shape)
        factor = int(factor)
        if factor < 1 or any(s % factor for s in shape):
            raise DimensionMismatchError(f"decimation factor {factor} must divide every axis of {shape}")
        self.conv = CirculantConvOperator(shape, kernel, anchor)
        self.shape_in = shape
        self.factor = factor
        self.shape_out = tuple(s // factor for s in shape)
        self.m_eff = int(np.prod(self.shape_out))
        self._grid = (Ellipsis,) + tuple(slice(None, None, factor) for _ in shape)

    def _apply(self, x):
        batch = x.shape[:-1]
        blurred = self.conv._apply(x).reshape(batch + self.shape_in)
        return blurred[self._grid].reshape(batch + (self.m_eff,))

    def _apply_adjoint(self, u):
        batch = u.shape[:-1]
        up = np.zeros(batch + self.shape_in)
        up[self._grid] = u.reshape(batch + self.shape_out)
        return self.conv._apply_adjoint(up.reshape(batch + (self.n,)))


# ---------------------------------------------------------------------------
# parallel-beam Radon subset
# ---------------------------------------------------------------------------

class RadonOperator(LinearOperator):
    """Discrete parallel-beam Radon transform at a fixed angle set.

    Line integrals are taken by bilinear interpolation at unit steps along
    each ray; the detector count equals the image side.  Angle 0 integrates
    along image rows, so each detector reads one column sum.

    The transform is held as a precomputed sparse matrix and its transpose,
    both in scatter order: each row keeps its interpolation weights in the
    order in which a per-angle scatter of the sample points would add them,
    duplicates included, so forward, adjoint and the dense matrix are
    bit-identical to that scatter.  The transpose is built from the same
    samples the first time an adjoint is applied, so an operator that is
    only applied forward or densified never holds it.
    """

    def __init__(self, side, angles_deg):
        side = int(side)
        angles = [float(a) for a in angles_deg]
        if len(angles) == 0:
            raise DimensionMismatchError("need at least one angle")
        if len(set(angles)) != len(angles):
            raise DimensionMismatchError("angles must be distinct")
        self.side = side
        self.angles_deg = tuple(angles)
        self.shape_in = (side, side)
        self.m_eff = side * len(angles)
        rows, cols, wts = self._triplets()
        self._A = _csr_in_order(rows, cols, wts, (self.m_eff, self.n))

    @cached_property
    def _At(self):
        # the samples are drawn again rather than kept: holding them until a
        # first adjoint would cost more memory than the transpose itself
        rows, cols, wts = self._triplets()
        return _csr_in_order(cols, rows, wts, (self.n, self.m_eff))

    def _triplets(self):
        """(row, column, weight) of every sample, angle by angle in scatter order."""
        index = _index_type(max(self.m_eff, self.n))
        rows, cols, wts = [], [], []
        for a, angle in enumerate(self.angles_deg):
            pix, w, dets = _radon_samples(self.side, angle, index)
            rows.append(a * self.side + dets)
            cols.append(pix)
            wts.append(w)
        return tuple(np.concatenate(v) for v in (rows, cols, wts))

    def _apply(self, x):
        return (self._A @ x.T).T

    def _apply_adjoint(self, u):
        return (self._At @ u.T).T

    def to_dense(self):
        _check_dense_cap(self.n)
        return self._A.toarray()


def _radon_samples(side, angle_deg, index=np.int64):
    """Bilinear sample weights of one projection angle as (pixel, weight, detector).

    Sample points are p = center + r*(cos,sin) + tau*(-sin,cos) in (x, y) for
    detector offsets r and unit steps tau along the ray.  Entries come corner
    by corner, each in (detector, step) order, with zero weights and
    off-image corners dropped; a pixel may repeat within one detector.
    Pixels and detectors are of the integer type `index`, which must hold
    side**2.
    """
    c = (side - 1) / 2.0
    th = np.deg2rad(angle_deg)
    r = np.arange(side) - c          # detector offsets
    tau = np.arange(side) - c        # steps along the ray
    px = c + r[:, None] * np.cos(th) - tau[None, :] * np.sin(th)
    py = c + r[:, None] * np.sin(th) + tau[None, :] * np.cos(th)
    x0 = np.floor(px).astype(index)
    y0 = np.floor(py).astype(index)
    fx = px - x0
    fy = py - y0
    idx, wts, dets = [], [], []
    det_grid = np.broadcast_to(np.arange(side, dtype=index)[:, None], px.shape)
    for dx, dy, w in ((0, 0, (1 - fx) * (1 - fy)), (1, 0, fx * (1 - fy)),
                      (0, 1, (1 - fx) * fy), (1, 1, fx * fy)):
        xs, ys = x0 + dx, y0 + dy
        ok = (xs >= 0) & (xs < side) & (ys >= 0) & (ys < side) & (w > 0)
        idx.append((ys[ok] * side + xs[ok]))
        wts.append(w[ok])
        dets.append(det_grid[ok])
    return (np.concatenate(idx), np.concatenate(wts), np.concatenate(dets))


def _csr_in_order(rows, cols, data, shape):
    """CSR matrix whose rows keep their entries in input order, duplicates kept.

    scipy's CSR product and densification add a row's entries in storage
    order, so this reproduces a sequential scatter-add of the same triplets
    bit for bit.  Canonicalizing (summing duplicates, sorting columns) would
    reorder those sums.

    For the product this also needs scipy's compiled kernel to round each
    `sum += a * x` as a multiply and then an add, as numpy's scatter does.
    That holds for the x86-64 wheels; a build that fuses the two into one
    FMA instruction agrees only to the last bits.  Densification does no
    multiply and is exact everywhere.
    """
    # imported here: only the Radon operator needs it, and loading it adds
    # about 1.5 MB to the peak memory of every process that imports nullprior
    import scipy.sparse

    # a stable sort is one permutation whatever the key's width, and numpy
    # radix-sorts keys of 16 bits or fewer
    order = np.argsort(rows.astype(np.min_scalar_type(shape[0] - 1)), kind="stable")
    index = _index_type(max(max(shape), len(data)))
    indptr = np.zeros(shape[0] + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    # narrowed before the gather, so no wide copy of the columns is made
    indices = cols.astype(index, copy=False)[order]
    return scipy.sparse.csr_array((data[order], indices, indptr), shape=shape)


def _index_type(size):
    """int32 when every index up to `size` fits it (scipy's CSR default), else int64."""
    return np.int32 if size <= np.iinfo(np.int32).max else np.int64


# ---------------------------------------------------------------------------
# kernels and masks
# ---------------------------------------------------------------------------

def gaussian_kernel(sigma, radius=None, ndim=1):
    """Normalized Gaussian kernel (sum 1), truncated at `radius` taps per side."""
    if radius is None:
        radius = max(1, int(np.ceil(3.0 * sigma)))
    t = np.arange(-radius, radius + 1)
    g = np.exp(-0.5 * (t / float(sigma)) ** 2)
    g /= g.sum()
    if ndim == 1:
        return g
    if ndim == 2:
        return np.outer(g, g)
    raise NullPriorError("ndim must be 1 or 2")


def bilinear_kernel(factor, ndim=1):
    """Triangular (bilinear) low-pass kernel for factor-d decimation, sum 1."""
    factor = int(factor)
    t = np.arange(-factor + 1, factor)
    g = (factor - np.abs(t)).astype(float)
    g /= g.sum()
    if ndim == 1:
        return g
    return np.outer(g, g)


def _freq_distances(shape, wrapped):
    """Distance of every flat frequency index from DC, in flat order."""
    idx = np.indices(shape).reshape(len(shape), -1)
    if wrapped:  # DFT frequencies alias around the Nyquist rate
        idx = np.minimum(idx, np.array(shape).reshape(-1, 1) - idx)
    return np.sqrt(np.sum(idx ** 2, axis=0))


def mask_pool(shape, transform="dct"):
    """The frequencies a mask chooses from: each flat DCT index, or each DFT representative."""
    shape = _as_shape(shape)
    if transform == "dct":
        return np.arange(math.prod(shape))
    return np.array(all_representatives(shape))


def lowpass_mask(shape, count, transform="dct"):
    """Indices of the `count` lowest frequencies (DCT) or representatives (DFT).

    Ordered by distance from DC, ties by index.
    """
    shape = _as_shape(shape)
    pool = mask_pool(shape, transform)
    dist = _freq_distances(shape, transform != "dct")[pool]
    return pool[np.lexsort((pool, dist))][:count].tolist()


def random_mask(shape, count, seed, transform="dct"):
    """Random frequency subset that always keeps the DC term, so means are observed."""
    pool = mask_pool(shape, transform).tolist()
    rng = np.random.default_rng(seed)
    chosen = list(rng.choice(len(pool), size=count, replace=False))
    picked = sorted(pool[i] for i in chosen)
    if 0 not in picked:
        picked = [0] + picked[:-1]
    return sorted(set(picked))


class ScaledOperator(LinearOperator):
    """Wrap an operator with a positive scalar factor (used by theory configs)."""

    def __init__(self, base, scale):
        self.base = base
        self.scale = float(scale)
        self.shape_in = base.shape_in
        self.m_eff = base.m_eff

    def _apply(self, x):
        return self.scale * self.base._apply(x)

    def _apply_adjoint(self, u):
        return self.scale * self.base._apply_adjoint(u)


def dot_test(op, trials=5, seed=0):
    """Max relative adjoint residual |<Hx,u> - <x,H'u>| / (|Hx||u| + |x||H'u|) over random probes."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal(op.n)
        u = rng.standard_normal(op.m_eff)
        hx = op.forward(x)
        htu = op.adjoint(u)
        lhs = float(hx @ u)
        rhs = float(x @ htu)
        denom = np.linalg.norm(hx) * np.linalg.norm(u) + np.linalg.norm(x) * np.linalg.norm(htu)
        if denom == 0.0:
            continue
        worst = max(worst, abs(lhs - rhs) / denom)
    return worst
