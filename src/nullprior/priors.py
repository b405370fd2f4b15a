"""Prior maps from measurements to null-space coefficients.

A prior answers what the convergence theory asks of it: `predict(y, x_star)`
is G(y) ~ S x* (only an oracle reads x_star), `error_norm(y, x_star)` is
||G(y) - S x*||, `lipschitz` the declared Lipschitz constant K of that error
(nan where none is declared) and `report` its TrainReport (or None).  An
`OraclePrior` returns the true projection plus a controlled error term (for
validating the convergence theory independent of training quality), and a
`TrainedPrior` a trained two-layer network V phi(W y).  Training minimizes
the mean-squared projection error, optionally augmented with an invertibility
penalty on the stacked system ||x - A^+ A x||^2 and an orthogonality penalty
||A^T A - I||_F^2, where A stacks the sensing rows over the projection rows.
Gradients are analytic.  `train_mmse` and `train_joint` only form the
measurements; one Adam loop, `_train`, does the rest and forms the targets
xs @ S.T in one place.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, NullPriorError, TrainingDivergedError
from .nullspace import NullSpaceBasis, _residuals, as_basis, pseudoinverse

ACTIVATIONS = ("tanh", "relu")  # the hidden nonlinearities of `TwoLayerNet`


# ---------------------------------------------------------------------------
# controlled error terms
# ---------------------------------------------------------------------------

class ZeroError:
    """No mismatch: the oracle returns the exact projection."""

    lipschitz = 0.0

    def __call__(self, y):
        return 0.0


class GaussianError:
    """Fixed Gaussian error vector, drawn once per seed (constant in y)."""

    lipschitz = 0.0

    def __init__(self, p, eps, seed=0):
        rng = np.random.default_rng(seed)
        self.vector = float(eps) * rng.standard_normal(p)

    def __call__(self, y):
        return self.vector


class LipschitzError:
    """Smooth bounded error eps * tanh(B y) with certified Lipschitz constant.

    B is a seeded Gaussian matrix rescaled so the map's Lipschitz constant is
    at most K; `certify` measures the constant on random probe pairs.
    """

    def __init__(self, p, dim_in, eps, K, seed=0):
        if K <= 0:
            raise NullPriorError("K must be positive")
        self.eps = float(eps)
        self.K = float(K)
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((p, dim_in))
        if eps > 0:
            B *= K / (eps * np.linalg.norm(B, 2))
        self.B = B
        self.lipschitz = self.K if eps > 0 else 0.0

    def __call__(self, y):
        if self.eps == 0.0:
            return np.zeros(self.B.shape[0])
        return self.eps * np.tanh(self.B @ np.asarray(y, dtype=float))

    def certify(self, probes=1000, seed=0):
        """Max empirical ratio ||N(u)-N(v)|| / ||u-v|| over seeded probe pairs."""
        rng = np.random.default_rng(seed)
        worst = 0.0
        dim = self.B.shape[1]
        for _ in range(probes):
            u = rng.standard_normal(dim)
            v = rng.standard_normal(dim)
            duv = np.linalg.norm(u - v)
            if duv == 0:
                continue
            worst = max(worst, np.linalg.norm(self(u) - self(v)) / duv)
        return worst


def realize_error(spec, p, dim_in, seed=0):
    """Build an error term from {"kind": zero | gaussian{eps} | lipschitz{eps, K}, "seed"?}."""
    kind = spec["kind"]
    seed = int(seed if spec.get("seed") is None else spec["seed"])  # None: the default
    if kind == "zero":
        return ZeroError()
    if kind == "gaussian":
        return GaussianError(p, float(spec["eps"]), seed)
    if kind == "lipschitz":
        return LipschitzError(p, dim_in, float(spec["eps"]), float(spec["K"]), seed)
    raise NullPriorError(f"unknown error kind {kind!r}")


class OraclePrior:
    """Returns S x* plus the realized error term; needs the ground truth."""

    report = None

    def __init__(self, basis, error=None):
        self.basis = basis
        self.error = error if error is not None else ZeroError()

    @property
    def lipschitz(self):
        return self.error.lipschitz

    def predict(self, y, x_star=None):
        if x_star is None:
            raise NullPriorError("oracle prior needs the ground-truth signal")
        return self.basis.project(x_star) + self.error(y)

    def error_norm(self, y, x_star=None):
        """Exact ||N(y)|| for this realization, without forming S x*."""
        return float(np.linalg.norm(np.atleast_1d(self.error(y))))


class TrainedPrior:
    """A trained net's prediction, for the basis it was trained against."""

    lipschitz = np.nan  # no bound is declared for a trained net

    def __init__(self, net, basis, report):
        self.net, self.basis, self.report = net, basis, report

    def predict(self, y, x_star=None):
        return self.net.predict(y)

    def error_norm(self, y, x_star):
        return float(np.linalg.norm(self.net.predict(y) - self.basis.project(x_star)))


# ---------------------------------------------------------------------------
# two-layer network
# ---------------------------------------------------------------------------

def _activation(name):
    if name not in ACTIVATIONS:
        raise NullPriorError(f"unknown activation {name!r} (choose from {ACTIVATIONS})")
    if name == "tanh":
        return np.tanh, lambda z: 1.0 - np.tanh(z) ** 2
    return (lambda z: np.maximum(z, 0.0)), (lambda z: (z > 0).astype(float))


class TwoLayerNet:
    """V phi(W y): hidden width k, no biases, optional input standardization.

    init_scale shrinks the first-layer initialization; small values keep the
    hidden pre-activations in the near-linear regime of tanh, which matters
    when the net must extrapolate beyond its training range.
    """

    def __init__(self, dim_in, dim_out, hidden, activation="tanh", seed=0,
                 init_scale=1.0):
        rng = np.random.default_rng(seed)
        self.W = init_scale * rng.standard_normal((hidden, dim_in)) / np.sqrt(dim_in)
        self.V = rng.standard_normal((dim_out, hidden)) / np.sqrt(hidden)
        self.activation = activation
        self.mu = np.zeros(dim_in)
        self.sd = np.ones(dim_in)

    def predict(self, y):
        y = np.asarray(y, dtype=float)
        phi, _ = _activation(self.activation)
        yn = (y - self.mu) / self.sd
        return phi(yn @ self.W.T) @ self.V.T

    def save(self, path):
        np.savez(path, W=self.W, V=self.V, mu=self.mu, sd=self.sd,
                 activation=np.array(self.activation),
                 k=self.W.shape[0], m_eff=self.W.shape[1], p=self.V.shape[0])

    @classmethod
    def load(cls, path):
        data = np.load(path)
        net = cls(int(data["m_eff"]), int(data["p"]), int(data["k"]),
                  str(data["activation"]))
        net.W = data["W"]
        net.V = data["V"]
        net.mu = data["mu"]
        net.sd = data["sd"]
        return net


def _net_forward(net, Y, targets):
    """Mean squared fit loss of a batch, and (Z, Hh, R) for `_net_backward`.

    Y: (N, dim_in) standardized measurements; targets: (N, p); R = G(Y) - targets.
    """
    phi, _ = _activation(net.activation)
    Z = Y @ net.W.T             # (N, k)
    Hh = phi(Z)                 # (N, k)
    R = Hh @ net.V.T - targets  # (N, p)
    return float(np.sum(R ** 2) / Y.shape[0]), Z, Hh, R


def _net_backward(net, Y, Z, Hh, R):
    """Analytic gradients (dW, dV) of the fit loss from `_net_forward`'s pieces."""
    N = Y.shape[0]
    dZ = (R @ net.V) * _activation(net.activation)[1](Z)  # (N, k)
    return 2.0 * dZ.T @ Y / N, 2.0 * R.T @ Hh / N


class Adam:
    """Standard Adam updates over a list of parameter arrays.

    The moments are updated in place and the step goes through two flat work
    buffers shared by all parameters, each as large as the largest one and
    viewed in each parameter's shape, so a step allocates no arrays; the
    result is bit for bit that of m = b1 m + (1 - b1) g,
    v = b2 v + (1 - b2) g^2, p -= lr mhat / (sqrt(vhat) + eps).
    """

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        size = max(p.size for p in params)
        a, b = np.empty(size), np.empty(size)
        self._work = [(a[:p.size].reshape(p.shape), b[:p.size].reshape(p.shape))
                      for p in params]
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        bias1 = 1 - self.beta1 ** self.t
        bias2 = 1 - self.beta2 ** self.t
        for p, g, m, v, (a, b) in zip(params, grads, self.m, self.v, self._work):
            m *= self.beta1
            np.multiply(g, 1 - self.beta1, out=a)
            m += a
            v *= self.beta2
            np.square(g, out=b)
            b *= 1 - self.beta2
            v += b
            np.divide(m, bias1, out=a)   # mhat
            a *= self.lr
            np.divide(v, bias2, out=b)   # vhat
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            p -= a


@dataclass
class TrainReport:
    final_loss: float
    fit_loss: float
    invertibility_loss: float
    gram_loss: float
    epochs: int
    holdout_projection_error: float
    history: list = field(default_factory=list, repr=False)

    def save_history_csv(self, path):
        with open(path, "w") as fh:
            fh.write("epoch,fit,invertibility,gram,holdout_error\n")
            for row in self.history:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _holdout_error(net, Y, targets):
    """Relative projection error ||t - G(y)|| / ||t|| averaged over a set."""
    preds = net.predict(Y)
    num = np.linalg.norm(preds - targets, axis=1)
    den = np.linalg.norm(targets, axis=1)
    ok = den > 0
    if not np.any(ok):
        return float(np.mean(num))
    return float(np.mean(num[ok] / den[ok]))


def _check_loss(loss, epoch, lr):
    if not np.isfinite(loss):
        raise TrainingDivergedError(f"loss became {loss} at epoch {epoch} (lr={lr})")


def _penalties(H, S, Xb, lam1, lam2, dS):
    """Invertibility and gram losses of a batch (A^+ frozen); adds lam * grad to dS."""
    A = np.vstack([H, S])
    l1 = l2 = 0.0
    if lam2 > 0:
        E = A.T @ A - np.eye(A.shape[1])
        l2 = float(np.sum(E ** 2))
        dS += lam2 * 4.0 * S @ E
    if lam1 > 0:
        Adag = pseudoinverse(A)
        Rx = Xb - (Xb @ A.T) @ Adag.T
        l1 = float(np.mean(np.sum(Rx ** 2, axis=1)))
        dA = -2.0 * Adag.T @ (Rx.T @ Xb) / Xb.shape[0]
        dS += lam1 * dA[H.shape[0]:]
    return l1, l2


def _train(net, xs, Y, S, H=None, lam1=0.0, lam2=0.0, *, epochs, lr,
           batch_size, seed, holdout_frac, normalize, noise_std):
    """Fit net(Y) to xs @ S.T with Adam; S is trained too when lam1 or lam2 > 0.

    Y holds the clean measurements of xs.  Fixed targets are formed once,
    and S is dropped then, so the Adam loop holds no p x n array (the
    caller keeps no name for S); learned targets are formed per batch.
    History columns are epoch means, each batch weighted by its size; the
    holdout error falls back to the training set.
    """
    if len(xs) == 0:
        raise NullPriorError("dataset is empty")
    if epochs < 1:
        raise NullPriorError("epochs must be >= 1")
    hold_idx, train_idx = np.split(np.random.default_rng(seed).permutation(len(xs)),
                                   [int(round(holdout_frac * len(xs)))])
    if len(train_idx) == 0:
        raise NullPriorError(f"holdout_frac={holdout_frac} leaves no signal to train on")
    learn_S = lam1 > 0 or lam2 > 0
    rng = np.random.default_rng(seed)
    if noise_std > 0:
        Y = Y + noise_std * rng.standard_normal(Y.shape)
    T = xs @ S.T
    if not learn_S:
        del S
    Yn = Y[train_idx]
    if normalize:  # standardize the inputs by the training set's statistics
        sd = Yn.std(axis=0)
        net.mu, net.sd = Yn.mean(axis=0), np.where(sd > 1e-12, sd, 1.0)
    Yn = (Yn - net.mu) / net.sd

    params = [net.W, net.V, S] if learn_S else [net.W, net.V]
    opt = Adam(params, lr=lr)
    history = []
    nb = max(1, len(train_idx) // batch_size) if batch_size else 1
    for epoch in range(epochs):
        order = rng.permutation(len(train_idx)) if batch_size else np.arange(len(train_idx))
        sums = np.zeros(3)  # fit, invertibility, gram, each times its batch size
        for chunk in np.array_split(order, nb):
            Yb, Xb = Yn[chunk], xs[train_idx[chunk]] if learn_S else None
            fit, Z, Hh, R = _net_forward(net, Yb, Xb @ S.T if learn_S else T[train_idx[chunk]])
            _check_loss(fit, epoch, lr)
            grads = list(_net_backward(net, Yb, Z, Hh, R))
            if learn_S:
                # fit residual also drives S: d mean||G - Sx||^2 / dS = -2/N R^T X
                grads.append(-2.0 * R.T @ Xb / Xb.shape[0])
            l1, l2 = _penalties(H, S, Xb, lam1, lam2, grads[2]) if learn_S else (0.0, 0.0)
            _check_loss(fit + lam1 * l1 + lam2 * l2, epoch, lr)
            opt.step(params, grads)
            sums += np.array((fit, l1, l2)) * len(chunk)
        fit, l1, l2 = (float(v) for v in sums / len(train_idx))
        if epoch % max(1, epochs // 50) == 0 or epoch == epochs - 1:
            if learn_S:  # S moved: form the targets again
                T = xs @ S.T
            hold = (_holdout_error(net, Y[hold_idx], T[hold_idx])
                    if len(hold_idx) else np.nan)
            history.append((epoch, fit, l1, l2, hold))
    idx = hold_idx if len(hold_idx) else train_idx
    return TrainReport(fit + lam1 * l1 + lam2 * l2, fit, l1, l2, epochs,
                       _holdout_error(net, Y[idx], T[idx]), history)


def train_mmse(net, xs, operator, basis, epochs=200, lr=1e-3, batch_size=None,
               seed=0, holdout_frac=0.2, normalize=True, noise_std=0.0):
    """Fit the network to map measurements to projections, S held fixed.

    xs: (N, n) training signals.  Measurements are H x (optionally perturbed
    by Gaussian noise of std `noise_std`); targets are S x.  Returns a
    TrainReport with the held-out relative projection error.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    Y = np.empty((len(xs), operator.m_eff))
    for i, x in enumerate(xs):
        Y[i] = operator.forward(x)
    # targets come from the dense S (n <= 4096) even for an operator-backed
    # basis: Adam amplifies last-bit changes in the targets over many steps.
    # S is passed unnamed, so `_train` can free it once the targets exist
    return _train(net, xs, Y, as_basis(basis).matrix, epochs=epochs, lr=lr,
                  batch_size=batch_size, seed=seed, holdout_frac=holdout_frac,
                  normalize=normalize, noise_std=noise_std)


def train_joint(net, S_init, xs, H_dense, lam1=0.0, lam2=0.0, epochs=200,
                lr=1e-3, batch_size=None, seed=0, holdout_frac=0.2,
                normalize=True, noise_std=0.0):
    """Jointly optimize the network and the projection matrix.

    Adds lam1 * mean ||x - A^+ A x||^2 (A^+ frozen per step) and
    lam2 * ||A^T A - I||_F^2 to the fit loss, with
    A = [H; S] and measurements xs @ H.T.  With lam1 = lam2 = 0 the
    projection matrix is held fixed.  Returns (net, learned basis, report).
    """
    if lam1 < 0 or lam2 < 0:
        raise NullPriorError("penalty weights must be nonnegative")
    H = np.asarray(H_dense, dtype=float)
    S = np.array(as_basis(S_init).matrix, dtype=float)
    m, n = H.shape
    if S.shape[1] != n:
        raise DimensionMismatchError("S and H must share the signal dimension")
    if lam2 > 0 and m + S.shape[0] > n:
        warnings.warn("m + p > n: exact orthonormality of [H; S] is unreachable",
                      RuntimeWarning)
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    report = _train(net, xs, xs @ H.T, S, H, lam1, lam2, epochs=epochs, lr=lr,
                    batch_size=batch_size, seed=seed, holdout_frac=holdout_frac,
                    normalize=normalize, noise_std=noise_std)
    return net, NullSpaceBasis(S, "learned", *_residuals(S, H_dense=H)), report
