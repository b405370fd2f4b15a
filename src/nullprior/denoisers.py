"""Classical bounded denoisers and empirical estimation of their expansion constant.

These stand in for learned denoisers inside the plug-and-play loops: identity,
circular Gaussian smoothing, soft-thresholding in an orthonormal DCT (the exact
proximal map of tau * ||DCT x||_1), Chambolle-style total-variation denoising
with a fixed inner iteration count, and a median filter.  All are deterministic
and preserve the input's shape; 2-D signals are denoised as images.
"""

import numpy as np
import scipy.fft
import scipy.ndimage

from .errors import NullPriorError


class Denoiser:
    """Base: callables mapping an array to an array of the same shape."""

    def __call__(self, x):
        raise NotImplementedError


class Identity(Denoiser):
    def __call__(self, x):
        return x


class GaussianSmooth(Denoiser):
    """Circular Gaussian smoothing; a nonnexpansive averaging filter."""

    def __init__(self, sigma):
        self.sigma = float(sigma)

    def __call__(self, x):
        return scipy.ndimage.gaussian_filter(np.asarray(x, dtype=float),
                                             self.sigma, mode="wrap")


class TransformSoftThreshold(Denoiser):
    """Soft-threshold the orthonormal DCT coefficients by tau."""

    def __init__(self, tau):
        self.tau = float(tau)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        c = scipy.fft.dctn(x, type=2, norm="ortho")
        c = np.sign(c) * np.maximum(np.abs(c) - self.tau, 0.0)
        return scipy.fft.idctn(c, type=2, norm="ortho")


class TVChambolle(Denoiser):
    """Total-variation denoising via Chambolle's dual projection.

    Runs a fixed number of dual iterations (step 0.25) and returns
    x - weight * div(p), an approximation of the TV proximal map.
    """

    def __init__(self, weight, inner_iters=20):
        if weight <= 0:
            raise NullPriorError("TV weight must be positive")
        self.weight = float(weight)
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
        self.window = int(window)

    def __call__(self, x):
        return scipy.ndimage.median_filter(np.asarray(x, dtype=float),
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


def total_variation(x):
    """Anisotropic TV (sum of absolute forward differences)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return float(np.sum(np.abs(np.diff(x))))
    return float(np.sum(np.abs(np.diff(x, axis=0))) + np.sum(np.abs(np.diff(x, axis=1))))


def denoise(denoiser, x, shape=None):
    """Apply a denoiser to a flat vector, reshaping to `shape` when given."""
    x = np.asarray(x, dtype=float)
    if shape is None or len(shape) == 1:
        return np.asarray(denoiser(x), dtype=float).reshape(-1)
    return np.asarray(denoiser(x.reshape(shape)), dtype=float).reshape(-1)


def estimate_delta(denoiser, pairs):
    """Empirical expansion constant over sample pairs.

    Returns max over pairs of ||D(x) - D(z)||^2 / ||x - z||^2 - 1, clipped at
    zero; coincident pairs are skipped.  This is a lower bound on the true
    constant, measured on the supplied cloud only.
    """
    pairs = list(pairs)
    if not pairs:
        raise NullPriorError("need at least one pair")
    worst = 0.0
    used = 0
    for x, z in pairs:
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        dxz = np.linalg.norm(x - z) ** 2
        if dxz == 0.0:
            continue
        dd = np.linalg.norm(np.asarray(denoiser(x)) - np.asarray(denoiser(z))) ** 2
        worst = max(worst, dd / dxz - 1.0)
        used += 1
    if used == 0:
        raise NullPriorError("all pairs coincident")
    return max(worst, 0.0)
