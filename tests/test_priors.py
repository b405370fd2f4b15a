"""Prior maps: oracle error models, analytic gradients, MMSE and joint training."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from nullprior import priors
from nullprior.errors import NullPriorError, TrainingDivergedError
from nullprior.nullspace import NullSpaceBasis, qr_nullspace, toeplitz_complement
from nullprior.operators import CirculantConvOperator, DenseOperator, gaussian_kernel
from nullprior.priors import (
    Adam,
    GaussianError,
    LipschitzError,
    OraclePrior,
    TrainedPrior,
    TrainReport,
    TwoLayerNet,
    ZeroError,
    _holdout_error,
    _net_backward,
    _net_forward,
    realize_error,
    train_joint,
    train_mmse,
)


def small_basis(seed=7):
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((4, 10))
    return H, qr_nullspace(H, p=3, seed=seed)


class TestOracle:
    def test_zero_error_exact(self):
        H, basis = small_basis()
        rng = np.random.default_rng(0)
        x = rng.standard_normal(10)
        prior = OraclePrior(basis, ZeroError())
        np.testing.assert_array_equal(prior.predict(H @ x, x), basis.project(x))

    def test_requires_ground_truth(self):
        _, basis = small_basis()
        with pytest.raises(NullPriorError):
            OraclePrior(basis).predict(np.zeros(4))

    def test_gaussian_error_second_moment(self):
        # Monte-Carlo against the closed form E||N||^2 = p * eps^2
        p, eps = 3, 0.7
        draws = np.array([np.linalg.norm(GaussianError(p, eps, seed=s).vector) ** 2
                          for s in range(10_000)])
        assert np.mean(draws) == pytest.approx(p * eps ** 2, rel=0.05)

    def test_gaussian_reproducible(self):
        a = GaussianError(5, 0.3, seed=42).vector
        b = GaussianError(5, 0.3, seed=42).vector
        np.testing.assert_array_equal(a, b)


class TestLipschitzError:
    def test_zero_eps_is_zero_map(self):
        err = LipschitzError(4, 6, eps=0.0, K=0.5, seed=0)
        np.testing.assert_array_equal(err(np.ones(6)), np.zeros(4))

    def test_certified_constant(self):
        err = LipschitzError(4, 6, eps=0.2, K=0.5, seed=1)
        assert err.certify(probes=1000, seed=2) <= 0.5 + 1e-8

    def test_range_bound(self):
        p, eps = 5, 0.3
        err = LipschitzError(p, 6, eps=eps, K=2.0, seed=3)
        rng = np.random.default_rng(4)
        for _ in range(50):
            u = 100.0 * rng.standard_normal(6)
            assert np.linalg.norm(err(u)) <= eps * np.sqrt(p) + 1e-12

    def test_realize_dispatch(self):
        assert isinstance(realize_error({"kind": "zero"}, 3, 4), ZeroError)
        assert isinstance(realize_error({"kind": "gaussian", "eps": 0.1}, 3, 4),
                          GaussianError)
        assert isinstance(realize_error({"kind": "lipschitz", "eps": 0.1, "K": 1.0}, 3, 4),
                          LipschitzError)


class TestPriorContract:
    """Both kinds answer predict, error_norm, lipschitz and report."""

    def test_trained_prior(self):
        H, basis = small_basis()
        xs = np.random.default_rng(5).standard_normal((20, 10))
        net = TwoLayerNet(4, 3, 8, seed=0)
        report = train_mmse(net, xs, DenseOperator(H), basis, epochs=5, seed=0)
        prior = TrainedPrior(net, basis, report)
        x = np.random.default_rng(6).standard_normal(10)
        y = H @ x
        # the expression run and the theory report read before the interface
        assert prior.error_norm(y, x) == float(np.linalg.norm(net.predict(y)
                                                              - basis.project(x)))
        np.testing.assert_array_equal(prior.predict(y), net.predict(y))
        np.testing.assert_array_equal(prior.predict(y, x), net.predict(y))
        assert np.isnan(prior.lipschitz)
        assert isinstance(prior.report, TrainReport)

    @pytest.mark.parametrize("error,K", [
        (ZeroError(), 0.0),
        (GaussianError(3, 0.1, seed=1), 0.0),
        (LipschitzError(3, 4, eps=0.0, K=0.5, seed=2), 0.0),
        (LipschitzError(3, 4, eps=0.2, K=0.5, seed=2), 0.5)],
        ids=["zero", "gaussian", "lipschitz-eps-0", "lipschitz-eps-0.2"])
    def test_oracle_prior(self, error, K):
        H, basis = small_basis()
        prior = OraclePrior(basis, error)
        assert prior.lipschitz == K
        assert prior.report is None
        x = np.random.default_rng(6).standard_normal(10)
        y = H @ x
        expected = float(np.linalg.norm(np.atleast_1d(error(y))))
        assert prior.error_norm(y) == prior.error_norm(y, x) == expected
        assert prior.error_norm(y, x) == pytest.approx(
            np.linalg.norm(prior.predict(y, x) - basis.project(x)), abs=1e-12)

    @pytest.mark.parametrize("spec", [{"kind": "gaussian", "eps": 0.1},
                                      {"kind": "lipschitz", "eps": 0.1, "K": 2.0}],
                             ids=["gaussian", "lipschitz"])
    def test_seed_none_is_the_default(self, spec):
        unset = realize_error(spec, 3, 4, seed=9)
        none = realize_error(dict(spec, seed=None), 3, 4, seed=9)
        other = realize_error(dict(spec, seed=10), 3, 4, seed=9)
        y = np.arange(4.0)
        np.testing.assert_array_equal(none(y), unset(y))
        assert not np.array_equal(other(y), unset(y))


class TestGradients:
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_analytic_matches_central_differences(self, activation):
        rng = np.random.default_rng(11)
        for trial in range(20):
            net = TwoLayerNet(4, 3, hidden=6, activation=activation, seed=trial)
            Y = rng.standard_normal((5, 4))
            T = rng.standard_normal((5, 3))
            _, *pieces = _net_forward(net, Y, T)
            dW, dV = _net_backward(net, Y, *pieces)
            h = 1e-6

            def loss_at(W, V):
                saved_w, saved_v = net.W, net.V
                net.W, net.V = W, V
                val = _net_forward(net, Y, T)[0]
                net.W, net.V = saved_w, saved_v
                return val

            for arr, grad in ((net.W, dW), (net.V, dV)):
                flat_idx = rng.integers(0, arr.size, size=4)
                for fi in flat_idx:
                    Wp = net.W.copy()
                    Vp = net.V.copy()
                    tgt = Wp if arr is net.W else Vp
                    tgt.reshape(-1)[fi] += h
                    up = loss_at(Wp, Vp)
                    Wm = net.W.copy()
                    Vm = net.V.copy()
                    tgt = Wm if arr is net.W else Vm
                    tgt.reshape(-1)[fi] -= h
                    down = loss_at(Wm, Vm)
                    numeric = (up - down) / (2 * h)
                    analytic = grad.reshape(-1)[fi]
                    assert analytic == pytest.approx(numeric, rel=1e-5, abs=1e-7)


class TestTrainMmse:
    def test_single_point_interpolation(self):
        # standardization would zero a single sample, so it is disabled here
        H, basis = small_basis(3)
        x = np.random.default_rng(5).standard_normal(10)
        net = TwoLayerNet(4, 3, hidden=40, seed=0)
        report = train_mmse(net, x[None, :], DenseOperator(H), basis,
                            epochs=3000, lr=1e-2, holdout_frac=0.0,
                            normalize=False)
        assert report.fit_loss < 1e-6

    def test_linear_consistent_data(self):
        # construct data where S x = M (H x) exactly, M known: a relu net
        # with paired hidden units can represent any linear map
        rng = np.random.default_rng(8)
        H = rng.standard_normal((4, 10))
        M = rng.standard_normal((3, 4))
        S = M @ H  # then S x = M H x for every x
        S /= np.linalg.norm(S, axis=1, keepdims=True)
        basis = NullSpaceBasis(S, "learned", 0.0, 0.0)
        xs = rng.standard_normal((200, 10))
        net = TwoLayerNet(4, 3, hidden=64, activation="relu", seed=1)
        report = train_mmse(net, xs, DenseOperator(H), basis,
                            epochs=6000, lr=1e-2, holdout_frac=0.1, seed=2,
                            normalize=False)
        assert report.holdout_projection_error < 1e-2
        assert report.fit_loss < 1e-4

    def test_divergence_detected(self):
        H, basis = small_basis(4)
        xs = np.random.default_rng(1).standard_normal((20, 10)) * 1e6
        net = TwoLayerNet(4, 3, hidden=8, seed=0)
        net.W *= 1e160  # force overflow in the first forward pass
        net.V *= 1e160
        # the forward pass overflows, and the check stops before the
        # backward pass would multiply the infinite residual
        with pytest.raises(TrainingDivergedError, match="loss became inf"), \
                pytest.warns(RuntimeWarning, match="overflow|invalid value"):
            train_mmse(net, xs, DenseOperator(H), basis, epochs=5, lr=1e3,
                       normalize=False)


class TestTrainJoint:
    def test_zero_penalties_keep_s_fixed(self):
        rng = np.random.default_rng(9)
        H = rng.standard_normal((4, 10))
        basis = qr_nullspace(H, p=3, seed=9)
        S_before = basis.matrix.copy()
        xs = rng.standard_normal((30, 10))
        net = TwoLayerNet(4, 3, hidden=8, seed=2)
        _, out_basis, _ = train_joint(net, basis, xs, H, lam1=0.0, lam2=0.0,
                                      epochs=20, lr=1e-3, seed=3)
        np.testing.assert_array_equal(out_basis.matrix, S_before)

    def test_penalty_only_descent(self):
        # with the fit term disabled and m + p = n, the gram residual
        # ||A'A - I||_F must fall by at least 10x (its floor is zero)
        rng = np.random.default_rng(12)
        n, m = 12, 3
        p = n - m
        H = np.linalg.qr(rng.standard_normal((n, m)))[0].T
        S0 = 0.5 * rng.standard_normal((p, n))
        xs = rng.standard_normal((40, n))
        net = TwoLayerNet(m, p, hidden=8, seed=4)

        def gram_norm(S):
            A = np.vstack([H, S])
            return np.linalg.norm(A.T @ A - np.eye(n))

        before = gram_norm(S0)
        _, out_basis, _ = train_joint(net, S0.copy(), xs, H, lam1=1.0, lam2=1.0,
                                      epochs=2000, lr=1e-2, seed=5,
                                      fit_weight=0.0)
        assert gram_norm(out_basis.matrix) <= before / 10.0

    def test_learned_s_more_orthogonal_than_random_init(self):
        rng = np.random.default_rng(13)
        n, m, p = 40, 6, 6
        H = rng.standard_normal((m, n)) / np.sqrt(n)
        S0 = rng.standard_normal((p, n)) / np.sqrt(n)
        xs = rng.standard_normal((60, n))
        net = TwoLayerNet(m, p, hidden=16, seed=6)
        init_residual = np.linalg.norm(S0 @ H.T)
        _, out_basis, _ = train_joint(net, S0.copy(), xs, H, lam1=0.001,
                                      lam2=0.01, epochs=800, lr=5e-3, seed=7)
        assert out_basis.ortho_to_H_residual < init_residual

    def test_gram_penalty_trend_under_training(self):
        # full-epoch average of the gram penalty must not increase
        rng = np.random.default_rng(14)
        n, m, p = 12, 3, 4
        H = np.linalg.qr(rng.standard_normal((n, m)))[0].T
        S0 = 0.3 * rng.standard_normal((p, n))
        xs = rng.standard_normal((40, n))
        net = TwoLayerNet(m, p, hidden=8, seed=8)
        _, _, report = train_joint(net, S0, xs, H, lam1=0.0, lam2=0.5,
                                   epochs=600, lr=2e-3, seed=9)
        gram_series = [row[3] for row in report.history]
        first_quarter = np.mean(gram_series[: len(gram_series) // 4])
        last_quarter = np.mean(gram_series[-len(gram_series) // 4:])
        assert last_quarter <= first_quarter + 1e-9


def _digest(*values):
    h = hashlib.sha256()
    for v in values:
        h.update(np.ascontiguousarray(v, dtype=float).tobytes())
    return h.hexdigest()


def _trained_dense_full_batch():
    rng = np.random.default_rng(21)
    H = rng.standard_normal((5, 12))
    basis = qr_nullspace(H, p=4, seed=21)
    xs = rng.standard_normal((40, 12))
    net = TwoLayerNet(5, 4, hidden=8, seed=22)
    report = train_mmse(net, xs, DenseOperator(H), basis, epochs=60, lr=1e-2, seed=23,
                        noise_std=0.05)
    return _digest(net.W, net.V, net.mu, net.sd, report.history,
                   report.holdout_projection_error)


def _trained_blur_mini_batch():
    op = CirculantConvOperator((8, 8), gaussian_kernel(1.0, 2, 2))
    basis = toeplitz_complement(op)
    xs = np.random.default_rng(24).standard_normal((50, 64))
    net = TwoLayerNet(op.m_eff, basis.p, hidden=8, seed=25)
    report = train_mmse(net, xs, op, basis, epochs=12, lr=3e-3, batch_size=8, seed=26)
    return _digest(net.W, net.V, net.mu, net.sd, report.history,
                   report.holdout_projection_error)


def _trained_joint_full_batch():
    rng = np.random.default_rng(31)
    H = rng.standard_normal((4, 12)) / np.sqrt(12)
    S0 = rng.standard_normal((5, 12)) / np.sqrt(12)
    xs = rng.standard_normal((30, 12))
    net = TwoLayerNet(4, 5, hidden=8, seed=32)
    _, basis, _ = train_joint(net, S0, xs, H, lam1=0.05, lam2=0.1, epochs=40, lr=5e-3,
                              seed=33)
    return _digest(net.W, net.V, basis.matrix)


class TestOneTrainingLoop:
    """`train_mmse` and `train_joint` share one Adam loop.

    The digests were taken when each function had a loop of its own, on
    numpy 2.4.6 with its bundled OpenBLAS: the fixed-S path does the same
    arithmetic step for step, and full-batch penalized training learns the
    same W, V and S.  Another BLAS build may move the last bits.
    """

    @pytest.mark.parametrize("train,digest", [
        (_trained_dense_full_batch,
         "c659837d8be7f06744b22cfd2d53a7b4dbbdd93cab08b024ad6e32c27a085176"),
        (_trained_blur_mini_batch,
         "d48760b31918dd5428acdbe599eb5e3be78950d18ec52f56dd95adc83a58e97a"),
        (_trained_joint_full_batch,
         "71c94b28061ca5b57b09e4cb74a16b350362001223a2d02d52ac4b4a945c1044"),
    ], ids=["mmse-dense-full-batch", "mmse-blur-mini-batch", "joint-full-batch"])
    def test_golden_digest(self, train, digest):
        assert train() == digest

    def test_zero_penalties_honour_fit_weight(self):
        # with no fit term and no penalty nothing drives W or V
        H, basis = small_basis(15)
        xs = np.random.default_rng(16).standard_normal((30, 10))
        net = TwoLayerNet(4, 3, hidden=8, seed=17)
        W, V = net.W.copy(), net.V.copy()
        train_joint(net, basis, xs, H, epochs=20, lr=1e-2, seed=18, fit_weight=0.0)
        np.testing.assert_array_equal(net.W, W)
        np.testing.assert_array_equal(net.V, V)

    def test_mini_batch_history_is_the_epoch_mean(self, monkeypatch):
        # 26 signals in batches of 8 make three batches of 9, 9 and 8 rows,
        # so the weights matter
        fits, penalties = [], []
        real_forward, real_penalties = priors._net_forward, priors._penalties

        def forward(net, Y, targets):
            out = real_forward(net, Y, targets)
            fits.append((out[0], Y.shape[0]))
            return out

        def penalties_spy(H, S, Xb, lam1, lam2, dS):
            out = real_penalties(H, S, Xb, lam1, lam2, dS)
            penalties.append(out)
            return out

        monkeypatch.setattr(priors, "_net_forward", forward)
        monkeypatch.setattr(priors, "_penalties", penalties_spy)
        rng = np.random.default_rng(19)
        H = rng.standard_normal((4, 12)) / np.sqrt(12)
        S0 = rng.standard_normal((5, 12)) / np.sqrt(12)
        xs = rng.standard_normal((26, 12))
        net = TwoLayerNet(4, 5, hidden=8, seed=20)
        _, _, report = train_joint(net, S0, xs, H, lam1=0.05, lam2=0.1, epochs=2,
                                   lr=5e-3, batch_size=8, seed=21, holdout_frac=0.0)
        sizes = [size for _, size in fits]
        assert sizes == [9, 9, 8, 9, 9, 8]
        for epoch, row in enumerate(report.history):
            batches = slice(3 * epoch, 3 * epoch + 3)
            for column, losses in ((1, [fit for fit, _ in fits[batches]]),
                                   (2, [l1 for l1, _ in penalties[batches]]),
                                   (3, [l2 for _, l2 in penalties[batches]])):
                mean = sum(loss * size for loss, size in zip(losses, sizes[batches])) / 26
                assert row[column] == pytest.approx(mean, rel=1e-14)
            assert len({round(fit, 12) for fit, _ in fits[batches]}) == 3

    def test_no_holdout_reports_the_training_error(self):
        rng = np.random.default_rng(22)
        H = rng.standard_normal((4, 12)) / np.sqrt(12)
        S0 = rng.standard_normal((5, 12)) / np.sqrt(12)
        xs = rng.standard_normal((20, 12))
        net = TwoLayerNet(4, 5, hidden=8, seed=23)
        _, basis, report = train_joint(net, S0, xs, H, lam2=0.1, epochs=5, lr=5e-3,
                                       seed=24, holdout_frac=0.0)
        expected = priors._holdout_error(net, xs @ H.T, xs @ basis.matrix.T)
        assert report.holdout_projection_error == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("lam2", [0.0, 0.1])
    def test_holdout_of_the_whole_set_rejected(self, lam2):
        # an empty training split used to diverge to nan in the first epoch
        H, basis = small_basis(27)
        xs = np.random.default_rng(28).standard_normal((10, 10))
        net = TwoLayerNet(4, 3, hidden=4, seed=0)
        with pytest.raises(NullPriorError, match="no signal to train on"):
            train_joint(net, basis, xs, H, lam2=lam2, epochs=2, holdout_frac=1.0)
        with pytest.raises(NullPriorError, match="no signal to train on"):
            train_mmse(net, xs, DenseOperator(H), basis, epochs=2, holdout_frac=0.96)

    def test_adam_loop_holds_no_dense_s(self, monkeypatch):
        # a 32 x 32 Toeplitz basis densifies to an 8 MB S for the targets;
        # the loop reads only the targets, so S is freed before it starts
        op = CirculantConvOperator((32, 32), gaussian_kernel(1.5, 4, 2))
        basis = toeplitz_complement(op)
        xs = np.random.default_rng(29).standard_normal((20, op.n))
        net = TwoLayerNet(op.m_eff, basis.p, hidden=8, seed=30)
        held = []
        real_step = priors.Adam.step

        def step(self, params, grads):
            if not held:
                held.append(tracemalloc.get_traced_memory()[0])
            return real_step(self, params, grads)

        monkeypatch.setattr(priors.Adam, "step", step)
        tracemalloc.start()
        try:
            train_mmse(net, xs, op, basis, epochs=1, seed=31)
        finally:
            tracemalloc.stop()
        dense_s = basis.p * basis.n * 8
        assert dense_s > 8e6
        assert held[0] < dense_s, (held[0], dense_s)

    @pytest.mark.parametrize("lam2", [0.0, 0.1])
    def test_zero_epochs_rejected(self, lam2):
        H, basis = small_basis(25)
        xs = np.random.default_rng(26).standard_normal((10, 10))
        with pytest.raises(NullPriorError, match="epochs"):
            train_joint(TwoLayerNet(4, 3, hidden=4, seed=0), basis, xs, H, lam2=lam2,
                        epochs=0)


class TestSubspacePlacement:
    def test_adjacent_beats_disjoint_frequencies(self):
        # null directions adjacent to the measured band are predictable from
        # the measurements; distant ones are mostly independent texture, so
        # the learned map degrades and its output norm collapses
        from nullprior.nullspace import fourier_complement
        from nullprior.operators import MaskedFrequencyOperator, lowpass_mask

        side, m = 8, 12
        mask = lowpass_mask((side, side), m, "dct")
        op = MaskedFrequencyOperator((side, side), mask, "dct")
        full = fourier_complement(op)
        latent_dim = 6
        rng = np.random.default_rng(5)
        F_meas = rng.standard_normal((m, latent_dim)) / np.sqrt(latent_dim)
        F_comp = rng.standard_normal((full.p, latent_dim)) / np.sqrt(latent_dim)
        share = np.exp(-np.arange(full.p) / 10.0)

        def draw(count, seed):
            r = np.random.default_rng(seed)
            Z = r.standard_normal((count, latent_dim))
            W = r.standard_normal((count, full.p))
            c_meas = np.tanh(Z @ F_meas.T)
            c_comp = share * np.tanh(Z @ F_comp.T) + (1 - share) * 0.6 * W
            return np.array([op.adjoint(cm) + full.matrix.T @ cc
                             for cm, cc in zip(c_meas, c_comp)])

        xs = draw(400, 9)
        xs_test = draw(200, 10)
        Y_test = np.array([op.forward(x) for x in xs_test])
        p = 8
        results = {}
        for label, S in (("adjacent", full.matrix[:p]),
                         ("disjoint", full.matrix[-p:])):
            basis = NullSpaceBasis(S, "fourier-complement", 0.0, 0.0)
            net = TwoLayerNet(m, p, hidden=48, activation="tanh", seed=3)
            train_mmse(net, xs, op, basis, epochs=1000, lr=3e-3, seed=4,
                       holdout_frac=0.0, normalize=False)
            preds = net.predict(Y_test)
            targets = xs_test @ S.T
            rel = np.mean(np.linalg.norm(preds - targets, axis=1)
                          / np.linalg.norm(targets, axis=1))
            norm_ratio = np.linalg.norm(preds) / np.linalg.norm(targets)
            results[label] = (rel, norm_ratio)
        assert results["adjacent"][0] < results["disjoint"][0]
        assert results["adjacent"][0] < 0.6
        assert results["disjoint"][0] > 0.9
        assert results["disjoint"][1] < results["adjacent"][1]


class TestReportOutput:
    def test_history_csv(self, tmp_path):
        H, basis = small_basis(6)
        xs = np.random.default_rng(2).standard_normal((30, 10))
        net = TwoLayerNet(4, 3, hidden=8, seed=1)
        report = train_mmse(net, xs, DenseOperator(H), basis, epochs=50,
                            lr=1e-3, seed=3)
        path = tmp_path / "history.csv"
        report.save_history_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,fit,invertibility,gram,holdout_error"
        assert len(lines) > 2


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        net = TwoLayerNet(4, 3, hidden=6, activation="relu", seed=5)
        net.mu = np.arange(4.0)
        net.sd = np.full(4, 2.0)
        path = tmp_path / "net.npz"
        net.save(path)
        loaded = TwoLayerNet.load(path)
        rng = np.random.default_rng(0)
        y = rng.standard_normal(4)
        np.testing.assert_array_equal(loaded.predict(y), net.predict(y))

    def test_net_with_zero_output_layer(self):
        net = TwoLayerNet(4, 3, hidden=6, seed=0)
        net.V[:] = 0.0
        np.testing.assert_array_equal(net.predict(np.ones(4)), np.zeros(3))


def test_holdout_error_batched_matches_per_sample():
    net = TwoLayerNet(5, 3, 8, seed=1)
    rng = np.random.default_rng(2)
    Y = rng.standard_normal((20, 5))
    T = rng.standard_normal((20, 3))
    T[3] = 0.0  # zero targets are left out of the relative error
    preds = np.array([net.predict(y) for y in Y])
    ok = np.arange(20) != 3
    expected = np.mean(np.linalg.norm(preds[ok] - T[ok], axis=1)
                       / np.linalg.norm(T[ok], axis=1))
    assert _holdout_error(net, Y, T) == pytest.approx(expected, rel=1e-12, abs=0)


def test_adam_step_matches_allocating_formula():
    # the parameters share work buffers sized to the largest, (5, 3)
    rng = np.random.default_rng(6)
    params = [rng.standard_normal(4), rng.standard_normal((5, 3)), rng.standard_normal(())]
    ref = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
    opt = Adam(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
    for t in range(1, 51):
        grads = [rng.standard_normal(p.shape) for p in params]
        opt.step(params, grads)
        for i, (p, g) in enumerate(zip(ref, grads)):
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g ** 2
            mhat = m[i] / (1 - b1 ** t)
            vhat = v[i] / (1 - b2 ** t)
            p -= lr * mhat / (np.sqrt(vhat) + eps)
        for a, b in zip(params + opt.m + opt.v, ref + m + v):
            assert np.array_equal(a, b)
