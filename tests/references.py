"""List-based references that the package's online forms are checked against.

None of these is read by the package: the theory constants are measured
while a solve runs (`diagnostics.CloudConstants`), and tests compare those
against the same constants taken over a stored iterate cloud.
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
