"""Loop- and list-based references that the package's forms are checked against.

None of these is read by the package: the theory constants are measured
while a solve runs (`diagnostics.CloudConstants`), and tests compare those
against the same constants taken over a stored iterate cloud; the Radon
operator samples blocks of angles at once, and tests compare its samples
against a loop over single angles and corners.
"""

import numpy as np

from nullprior.nullspace import as_basis


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


def iterate_cloud_images(denoiser, iterates, x_star, x_star_image, shape):
    """The pairs of `iterate_cloud_pairs`, each with both images.

    Yields (a, b, D(a), D(b)) with points reshaped to `shape`: each iterate
    against the one before it, then against x*, whose flat image
    `x_star_image` the caller supplies.  Every iterate is denoised once,
    and only the previous iterate's image is held; the order of the pairs
    does not change a maximum over them.
    """
    x_star = np.asarray(x_star, dtype=float).reshape(shape)
    star_image = np.asarray(x_star_image).reshape(shape)
    prev = prev_image = None
    for a in iterates:
        a = np.asarray(a, dtype=float).reshape(shape)
        image = np.asarray(denoiser(a))
        if prev is not None:
            yield prev, a, prev_image, image
        yield a, x_star, image, star_image
        prev, prev_image = a, image


def total_variation(x):
    """Anisotropic TV (sum of absolute forward differences)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return float(np.sum(np.abs(np.diff(x))))
    return float(np.sum(np.abs(np.diff(x, axis=0))) + np.sum(np.abs(np.diff(x, axis=1))))


def stacked_pinv_solution(H_dense, S, y, g):
    """Least-squares oracle for the noiseless complete system [H; S] x = [y; g]."""
    A = np.vstack([np.asarray(H_dense, dtype=float), as_basis(S).matrix])
    rhs = np.concatenate([np.asarray(y, dtype=float).reshape(-1),
                          np.asarray(g, dtype=float).reshape(-1)])
    return np.linalg.pinv(A, rcond=1e-12) @ rhs


def radon_samples(side, angle_deg, index=np.int64):
    """Bilinear sample weights of one projection angle as (pixel, weight, detector).

    The per-angle, per-corner loop that `operators._radon_block` vectorizes:
    sample points are p = center + r*(cos,sin) + tau*(-sin,cos) in (x, y)
    for detector offsets r and unit steps tau along the ray.  Entries come
    corner by corner, each in (detector, step) order, with zero weights and
    off-image corners dropped.
    """
    c = (side - 1) / 2.0
    th = np.deg2rad(angle_deg)
    r = np.arange(side) - c
    tau = np.arange(side) - c
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


def radon_triplets(op, index):
    """(row, pixel, weight) of every sample of a Radon operator, angle by angle."""
    rows, cols, wts = [], [], []
    for a, angle in enumerate(op.angles_deg):
        pix, w, dets = radon_samples(op.side, angle, index)
        rows.append(a * op.side + dets)
        cols.append(pix)
        wts.append(w)
    return tuple(np.concatenate(v) for v in (rows, cols, wts))
