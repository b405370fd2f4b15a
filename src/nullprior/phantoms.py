"""Deterministic test-signal generation.

Sparse spike trains, piecewise-constant profiles, the modified Shepp-Logan
head phantom, smooth Gaussian-bump images, and points sampled from a disk
inside a seeded 2-plane of R^3.  Same spec and seed always produce the same
bits; signals have unit peak unless noted.
"""

import numpy as np

from .errors import NullPriorError

# modified Shepp-Logan ellipses: (intensity, a, b, x0, y0, angle_deg)
_SHEPP_LOGAN = [
    (1.00, 0.6900, 0.9200, 0.00, 0.0000, 0.0),
    (-0.80, 0.6624, 0.8740, 0.00, -0.0184, 0.0),
    (-0.20, 0.1100, 0.3100, 0.22, 0.0000, -18.0),
    (-0.20, 0.1600, 0.4100, -0.22, 0.0000, 18.0),
    (0.10, 0.2100, 0.2500, 0.00, 0.3500, 0.0),
    (0.10, 0.0460, 0.0460, 0.00, 0.1000, 0.0),
    (0.10, 0.0460, 0.0460, 0.00, -0.1000, 0.0),
    (0.10, 0.0460, 0.0230, -0.08, -0.6050, 0.0),
    (0.10, 0.0230, 0.0230, 0.00, -0.6060, 0.0),
    (0.10, 0.0230, 0.0460, 0.06, -0.6050, 0.0),
]


def sparse_signal(n, k, seed=0):
    """Vector with exactly k nonzeros at seeded positions, unit peak."""
    if k > n:
        raise NullPriorError(f"k={k} exceeds n={n}")
    x = np.zeros(n)
    if k == 0:
        return x
    rng = np.random.default_rng(seed)
    support = rng.choice(n, size=k, replace=False)
    vals = rng.uniform(0.5, 1.0, size=k) * rng.choice([-1.0, 1.0], size=k)
    x[support] = vals
    return x / np.max(np.abs(x))


def piecewise_signal(n, segments, seed=0):
    """Piecewise-constant profile with the given number of segments, unit peak."""
    if segments < 1 or segments > n:
        raise NullPriorError("segments must be in [1, n]")
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.choice(np.arange(1, n), size=segments - 1, replace=False))
    levels = rng.uniform(-1.0, 1.0, size=segments)
    x = np.empty(n)
    start = 0
    for level, stop in zip(levels, list(cuts) + [n]):
        x[start:stop] = level
        start = stop
    peak = np.max(np.abs(x))
    return x / peak if peak > 0 else x


def shepp_logan(side):
    """Modified Shepp-Logan phantom on a side x side grid, values in [0, 1]."""
    c = (side - 1) / 2.0
    ys, xs = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    # image coordinates in [-1, 1], y axis pointing up
    u = (xs - c) / (side / 2.0)
    v = (c - ys) / (side / 2.0)
    img = np.zeros((side, side))
    for inten, a, b, x0, y0, ang in _SHEPP_LOGAN:
        th = np.deg2rad(ang)
        du = u - x0
        dv = v - y0
        ru = du * np.cos(th) + dv * np.sin(th)
        rv = -du * np.sin(th) + dv * np.cos(th)
        img[(ru / a) ** 2 + (rv / b) ** 2 <= 1.0] += inten
    return np.clip(img, 0.0, 1.0)


def bumps(side, count, seed=0):
    """Sum of seeded Gaussian bumps on a side x side grid, peak-normalized to 1."""
    rng = np.random.default_rng(seed)
    ys, xs = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    img = np.zeros((side, side))
    for _ in range(count):
        cy, cx = rng.uniform(0, side - 1, size=2)
        width = rng.uniform(side / 12.0, side / 4.0)
        amp = rng.uniform(0.4, 1.0)
        img += amp * np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2) / (2 * width ** 2))
    return img / img.max()


def toy_plane_disk(count, radius=1.0, seed=0):
    """Points in a disk of a seeded 2-plane through the origin of R^3.

    Returns (points, plane) where points is (count, 3) and plane is the (2, 3)
    orthonormal basis of the plane; the disk coordinates are sampled uniformly.
    """
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((3, 2)))
    plane = basis.T  # (2, 3) orthonormal rows
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, size=count))
    th = rng.uniform(0.0, 2 * np.pi, size=count)
    coords = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    return coords @ plane, plane


def generate(spec, seed=0):
    """Dispatch on a phantom spec dict: {"kind": ..., and every size/count parameter}."""
    spec = dict(spec)
    kind = spec.pop("kind")
    if kind == "sparse":
        return sparse_signal(int(spec.pop("n")), int(spec.pop("k")), seed)
    if kind == "piecewise":
        return piecewise_signal(int(spec.pop("n")), int(spec.pop("segments")), seed)
    if kind == "shepp_logan":
        return shepp_logan(int(spec.pop("side")))
    if kind == "bumps":
        return bumps(int(spec.pop("side")), int(spec.pop("count")), seed)
    raise NullPriorError(f"unknown phantom kind {kind!r}")
