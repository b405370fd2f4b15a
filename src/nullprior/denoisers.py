"""Classical bounded denoisers and empirical estimation of their expansion constant.

These stand in for learned denoisers inside the plug-and-play loops: identity,
circular Gaussian smoothing, soft-thresholding in an orthonormal DCT or the
identity (the exact prox of tau * ||T x||_1), Chambolle-style total-variation
denoising with a fixed inner iteration count, and a median filter.  All are
deterministic and preserve the input's shape; 2-D signals are denoised as images.
"""

import numpy as np

from .diagnostics import _DeltaMax, _pair_norms
from .errors import NullPriorError

SPARSITY_TRANSFORMS = ("dct", "identity")  # the domains of `TransformSoftThreshold`


class Denoiser:
    """Base: callables mapping an array to an array of the same shape."""

    def __call__(self, x):
        raise NotImplementedError


class Identity(Denoiser):
    def __call__(self, x):
        return x


class GaussianSmooth(Denoiser):
    """Circular Gaussian smoothing; a nonnexpansive averaging filter.

    Bit-identical to `scipy.ndimage.gaussian_filter(x, sigma, mode="wrap")`:
    the 1-D weights are made once, as `gaussian_filter1d` makes them
    (radius int(4 sigma + 0.5), normalized, reversed for correlation), and
    each call correlates along every axis in turn.  A sigma of at most
    1e-15 leaves the input unchanged, as `gaussian_filter` does.
    """

    def __init__(self, sigma):
        import scipy.ndimage  # imported here, as in `operators.MaskedFrequencyOperator`
        self._ndimage = scipy.ndimage
        self.sigma = float(sigma)
        self._weights = None
        if self.sigma > 1e-15:
            radius = int(4.0 * self.sigma + 0.5)
            t = np.arange(-radius, radius + 1)
            w = np.exp(-0.5 / (self.sigma * self.sigma) * t ** 2)
            self._weights = (w / w.sum())[::-1]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self._weights is None:
            return self._ndimage.gaussian_filter(x, self.sigma, mode="wrap")
        for axis in range(x.ndim):
            x = self._ndimage.correlate1d(x, self._weights, axis, mode="wrap")
        return x


class TransformSoftThreshold(Denoiser):
    """The prox of tau * ||T x||_1, T the orthonormal DCT or the identity.

    At tau = 0, the prox of no penalty, the input is returned as it is.
    """

    def __init__(self, tau, transform="dct"):
        self.tau = float(tau)
        if self.tau < 0:
            raise NullPriorError("soft-threshold tau must be nonnegative")
        if transform not in SPARSITY_TRANSFORMS:
            raise NullPriorError(f"unknown transform {transform!r}")
        self.transform = transform
        if transform == "dct":
            import scipy.fft  # imported here, as in `GaussianSmooth`
            self._fft = scipy.fft

    def __call__(self, x):
        if self.tau == 0.0:
            return x
        x = np.asarray(x, dtype=float)
        if self.transform == "identity":
            return np.sign(x) * np.maximum(np.abs(x) - self.tau, 0.0)
        c = self._fft.dctn(x, type=2, norm="ortho")
        c = np.sign(c) * np.maximum(np.abs(c) - self.tau, 0.0)
        return self._fft.idctn(c, type=2, norm="ortho")


class TVChambolle(Denoiser):
    """Total-variation denoising via Chambolle's dual projection.

    Runs a fixed number of dual iterations (step 0.25) and returns
    x - weight * div(p), an approximation of the TV proximal map.
    """

    def __init__(self, weight, inner_iters=20):
        self.weight = float(weight)
        if self.weight <= 0:
            raise NullPriorError("TV weight must be positive")
        self.inner_iters = int(inner_iters)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        img = x[None, :] if squeeze else x
        p = np.zeros((2,) + img.shape)
        tau = 0.25
        for _ in range(self.inner_iters):
            g = _grad(_div(p) - img / self.weight)
            mag = np.sqrt(np.sum(g ** 2, axis=0, keepdims=True))
            p = (p + tau * g) / (1.0 + tau * mag)
        out = img - self.weight * _div(p)
        return out[0] if squeeze else out


class Median(Denoiser):
    """Median filter with a square (or length-w) window, circular boundary."""

    def __init__(self, window=3):
        import scipy.ndimage  # imported here, as in `GaussianSmooth`
        self._ndimage = scipy.ndimage
        self.window = int(window)

    def __call__(self, x):
        return self._ndimage.median_filter(np.asarray(x, dtype=float),
                                           size=self.window, mode="wrap")


def _grad(img):
    out = np.zeros((2,) + img.shape)
    out[0, :-1, :] = img[1:, :] - img[:-1, :]
    out[1, :, :-1] = img[:, 1:] - img[:, :-1]
    return out


def _div(p):
    out = np.zeros(p.shape[1:])
    out[:-1, :] += p[0, :-1, :]
    out[1:, :] -= p[0, :-1, :]
    out[:, :-1] += p[1, :, :-1]
    out[:, 1:] -= p[1, :, :-1]
    return out


def denoise(denoiser, x, shape=None):
    """Apply a denoiser to a flat vector, reshaping to `shape` when given."""
    x = np.asarray(x, dtype=float)
    if shape is None or len(shape) == 1:
        return np.asarray(denoiser(x), dtype=float).reshape(-1)
    return np.asarray(denoiser(x.reshape(shape)), dtype=float).reshape(-1)


def estimate_delta(denoiser, pairs):
    """Empirical expansion constant over sample pairs.

    Returns max over pairs of ||D(x) - D(z)||^2 / ||x - z||^2 - 1, clipped at
    zero; pairs that coincide to float resolution (`resolution_floor`) are
    skipped.  This is a lower bound on the true constant, measured on the
    supplied cloud only.  A pair is (x, z), or (x, z, D(x), D(z)) with both
    images already made.  Pairs are read one at a time, so a generator
    holds only the pairs it has not yet yielded.
    """
    worst = _DeltaMax()
    for pair in pairs:
        x, z = np.asarray(pair[0], dtype=float), np.asarray(pair[1], dtype=float)
        _, dd, floor = _pair_norms(x, z)
        worst.add(dd, floor, lambda: pair[2:] or (denoiser(x), denoiser(z)))
    return worst.value()
