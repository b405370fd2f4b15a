"""Solver correctness: gradient pieces, reductions, oracles, trace invariants."""

import os
import subprocess
import sys
import textwrap
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft

from nullprior import make_operator, solvers
from nullprior.denoisers import GaussianSmooth, Identity, TVChambolle
from nullprior.errors import NullPriorError
from nullprior.nullspace import (
    NullSpaceBasis,
    fourier_complement,
    qr_nullspace,
    radon_complement,
    sr_complement,
    toeplitz_complement,
)
from nullprior.operators import (
    DENSE_CAP,
    CirculantConvOperator,
    DecimatedConvOperator,
    DenseOperator,
    LinearOperator,
    MaskedFrequencyOperator,
    RadonOperator,
    bilinear_kernel,
    gaussian_kernel,
    lowpass_mask,
)
from nullprior.phantoms import piecewise_signal, sparse_signal
from nullprior.priors import OraclePrior, ZeroError
from nullprior.solvers import (
    SolverConfig,
    default_alpha,
    solve_fista_sparsity,
    solve_pnp_admm,
    solve_pnp_fista,
    solve_red_fista,
)

from references import stacked_pinv_solution


def collector():
    """A list and a solver observer that appends each iterate to it."""
    iterates = []
    return iterates, lambda x, *shared: iterates.append(x.copy())


def cs_problem(n=24, m=6, seed=0, p=None):
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((m, n)) / np.sqrt(n)
    op = DenseOperator(H)
    basis = qr_nullspace(H, p=p or (n - m), seed=seed)
    x_star = sparse_signal(n, 5, seed=seed + 1)
    y = op.forward(x_star)
    return op, basis, x_star, y


class _Diagonal(LinearOperator):
    """H = diag(d), with O(n) products at any n."""

    def __init__(self, d):
        self.d = d
        self.shape_in = (d.size,)
        self.m_eff = d.size

    def _apply(self, x):
        return self.d * x

    _apply_adjoint = _apply


def _dense_alpha(op, basis=None, gamma=0.0):
    """0.9 over the top eigenvalue of dense H'H + gamma S'S: the reference step."""
    H = op.to_dense()
    P = H.T @ H
    if basis is not None:
        S = basis.matrix
        P = P + gamma * S.T @ S
    return 0.9 / np.linalg.eigvalsh(P)[-1]


def _run_fresh(code):
    """Run `code` in a new interpreter that imports this checkout's nullprior."""
    src = os.path.dirname(os.path.dirname(solvers.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


class TestDefaultAlpha:
    def test_clustered_top_past_cap_exact(self):
        # top eigenvalues 1 and 0.9998^2 past the dense cap, where 300
        # power-iteration steps stalled below lambda_max
        d = np.full(DENSE_CAP + 1, 0.5)
        d[:2] = 1.0, 0.9998
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alpha = default_alpha(_Diagonal(d))
        assert alpha == pytest.approx(0.9, rel=1e-13, abs=0)

    def test_unconverged_under_cap_takes_dense_eigenvalue(self):
        # the pair on which power iteration stalled below lambda_max = 1
        op = DenseOperator(np.diag([1.0, 0.9998, 0.5]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alpha = default_alpha(op)
        assert alpha == pytest.approx(0.9, rel=1e-13, abs=0)

    @pytest.mark.parametrize("seed", range(10))
    def test_stalled_cs_pairs_get_safe_step(self, seed):
        # the compressed-sensing pairs of acceptance criterion 3; 300
        # power-iteration steps stalled on seeds 3 and 9 and stopped above
        # 0.9 / lambda_max on the rest
        op = make_operator("cs", {"n": 100, "m": 10, "normalize": True}, seed)
        H = op.to_dense()
        basis = qr_nullspace(H, p=90, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alpha = default_alpha(op, basis, gamma=1.0)
        assert alpha == pytest.approx(_dense_alpha(op, basis, 1.0), rel=1e-13, abs=0)

    @pytest.mark.parametrize("gamma", [0.3, 3.0])
    def test_benchmark_ct_pair(self, gamma):
        # the ct-admm-sweep pair: Radon with its approximate complement, by Lanczos
        side, full = 32, [180.0 * i / 60 for i in range(60)]
        op = RadonOperator(side, full[:20])
        basis = radon_complement(op, full)
        alpha = default_alpha(op, basis, gamma=gamma)
        assert alpha == pytest.approx(_dense_alpha(op, basis, gamma), rel=1e-13, abs=0)

    def test_one_column_operator(self):
        op = DenseOperator(np.array([[1.0], [2.0], [-0.5]]))
        assert default_alpha(op) == pytest.approx(0.9 / 5.25, rel=1e-13, abs=0)

    @pytest.mark.parametrize("shape", [(40, 8, 32), (100, 10, 90), (60, 12, 30)])
    def test_exact_complement_step_equals_baseline_step(self, shape):
        # acceptance criterion 10's sweep row at gamma = 0 equals a fresh
        # baseline only if alpha(0) == alpha(gamma) bit for bit; power
        # iteration held that on 53 of these 120 pairs
        n, m, p = shape
        gamma = 1.0
        for seed in range(40):
            op = make_operator("cs", {"n": n, "m": m, "normalize": True}, seed)
            basis = qr_nullspace(op.to_dense(), p, seed=seed)
            assert 0.9 / default_alpha(op) >= gamma
            assert default_alpha(op, basis, gamma=gamma) == default_alpha(op), seed

    @pytest.mark.parametrize("plain", [False, True])
    def test_qr_pair_that_hid_gamma_from_power_iteration(self, plain):
        # power iteration started from default_rng(0), the stream qr_nullspace
        # drew this basis from, with ||S v0|| = 2.6e-16, and converged to
        # lambda_max(H'H) = 2.11 instead of gamma = 3 (alpha 0.426); a plain
        # matrix has no residuals, so it takes Lanczos rather than the closed form
        op = make_operator("cs", {"n": 60, "m": 12, "normalize": True}, 0)
        basis = qr_nullspace(op.to_dense(), 30, seed=0)
        alpha = default_alpha(op, basis.matrix if plain else basis, gamma=3.0)
        assert alpha == pytest.approx(0.3, rel=1e-13, abs=0)

    def test_structured_pairs_leave_arpack_unloaded(self):
        # Lanczos imports ARPACK only for pairs without structure: loading it
        # adds about 2 MB to the peak memory of an MRI or blur run
        code = textwrap.dedent("""
            import sys
            import nullprior as npr
            mri = npr.MaskedFrequencyOperator(
                (16, 16), npr.lowpass_mask((16, 16), 64, "dct"), "dct")
            npr.default_alpha(mri, npr.fourier_complement(mri), gamma=0.5)
            kernel = npr.operators.gaussian_kernel(1.5, radius=3, ndim=2)
            blur = npr.CirculantConvOperator((16, 16), kernel, "center")
            npr.default_alpha(blur, npr.toeplitz_complement(blur), gamma=0.5)
            npr.default_alpha(blur)
            loaded = [m for m in ("scipy.sparse", "scipy.sparse.linalg") if m in sys.modules]
            assert not loaded, loaded
        """)
        _run_fresh(code)

    def test_structured_pairs_leave_dense_linalg_unloaded(self):
        # only dense pairs (QR bases, Radon, CS, learned) import scipy.linalg:
        # loading it adds about 6 MB to the peak memory of an MRI or blur run
        code = textwrap.dedent("""
            import sys
            import numpy as np
            import nullprior as npr
            assert "scipy.linalg" not in sys.modules
            mri = npr.MaskedFrequencyOperator(
                (16, 16), npr.lowpass_mask((16, 16), 64, "dct"), "dct")
            kernel = npr.operators.gaussian_kernel(1.5, radius=3, ndim=2)
            blur = npr.CirculantConvOperator((16, 16), kernel, "center")
            for op, basis in ((mri, npr.fourier_complement(mri)),
                              (blur, npr.toeplitz_complement(blur))):
                alpha = npr.default_alpha(op, basis, gamma=0.5)
                npr.compute_rho(0.0, alpha, op, basis, 0.5, 0.0)
            xs = np.random.default_rng(0).standard_normal((20, blur.n))
            net = npr.TwoLayerNet(blur.m_eff, blur.n, hidden=4, seed=1)
            npr.train_mmse(net, xs, blur, npr.toeplitz_complement(blur), epochs=2)
            assert "scipy.linalg" not in sys.modules
            # the dense pairs import it when they need it
            H = np.random.default_rng(2).standard_normal((6, 16))
            qr = npr.DenseOperator(H)
            npr.compute_rho(0.0, 0.1, qr, npr.qr_nullspace(H, 4, seed=3), 0.5, 0.0)
            ct = npr.RadonOperator(8, [0.0, 45.0])
            basis = npr.radon_complement(ct, [0.0, 45.0, 90.0, 135.0])
            rho = npr.compute_rho(0.0, 0.01, ct, basis, 0.5, 0.0)
            assert np.isfinite(rho.rho) and rho.s_spectral_norm > 0
            assert "scipy.linalg" in sys.modules
        """)
        _run_fresh(code)

    def test_zero_operator_rejected(self):
        with pytest.raises(NullPriorError, match="operator is zero"):
            default_alpha(DenseOperator(np.zeros((2, 3))))

    @pytest.mark.parametrize("problem,gamma", [("blur", 0.1), ("blur", 1.0),
                                               ("blur", 30.0), ("sr", 0.5)])
    def test_structured_pairs_exact_without_warning(self, problem, gamma, monkeypatch):
        # the operators of the blur gamma sweep and of the SR config run,
        # where 300 power-iteration steps did not converge
        if problem == "blur":
            kernel = gaussian_kernel(2.0, radius=5, ndim=2)
            op = CirculantConvOperator((16, 16), kernel, "center")
            basis = toeplitz_complement(op)
        else:
            kernel = bilinear_kernel(4, ndim=2)
            op = DecimatedConvOperator((16, 16), kernel, 4)
            basis = sr_complement(op)

        H, S = op.to_dense(), basis.matrix

        def applied(*args):
            raise AssertionError("lambda_max applied the pair instead of its spectrum")

        for inner in (op, basis.operator):
            monkeypatch.setattr(inner, "_apply", applied)
            monkeypatch.setattr(inner, "_apply_adjoint", applied)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alpha = default_alpha(op, basis, gamma=gamma)
        lam = np.linalg.eigvalsh(H.T @ H + gamma * S.T @ S)[-1]
        assert alpha == pytest.approx(0.9 / lam, rel=1e-13, abs=0)


class TestPnpFista:
    def test_orthonormal_rows_one_step_range_component(self):
        # gamma=0, identity denoiser, orthonormal H rows, alpha=1:
        # first iterate is H'y, the least-squares range solution
        rng = np.random.default_rng(6)
        H = np.linalg.qr(rng.standard_normal((10, 4)))[0].T
        op = DenseOperator(H)
        x_star = rng.standard_normal(10)
        y = op.forward(x_star)
        config = SolverConfig(alpha=1.0, gamma=0.0, iters=5, x_star=x_star)
        iterates, observer = collector()
        solve_pnp_fista(op, y, Identity(), config, observer=observer)
        np.testing.assert_allclose(iterates[1], H.T @ y, atol=1e-12)

    def test_exact_recovery_with_perfect_prior(self):
        op, basis, x_star, y = cs_problem(n=30, m=6, seed=1)
        prior = OraclePrior(basis, ZeroError())
        alpha = default_alpha(op, basis, gamma=1.0)
        config = SolverConfig(alpha=alpha, gamma=1.0, iters=300, x_star=x_star,
                              restart="fista-momentum")
        x_hat, trace = solve_pnp_fista(op, y, Identity(), config, basis,
                                       lambda yy: prior.predict(yy, x_star))
        assert np.linalg.norm(x_hat - x_star) < 1e-8
        oracle = stacked_pinv_solution(op.to_dense(), basis, y, basis.project(x_star))
        np.testing.assert_allclose(x_hat, oracle, atol=1e-7)

    def test_npn_beats_baseline_residual_inside_ciz(self):
        op, basis, x_star, y = cs_problem(n=40, m=8, seed=2)
        prior = OraclePrior(basis, ZeroError())
        alpha = default_alpha(op, basis, gamma=1.0)
        cfg_npn = SolverConfig(alpha=alpha, gamma=1.0, iters=80, x_star=x_star)
        cfg_base = SolverConfig(alpha=alpha, gamma=0.0, iters=80, x_star=x_star)
        _, tr_npn = solve_pnp_fista(op, y, Identity(), cfg_npn, basis,
                                    lambda yy: prior.predict(yy, x_star))
        _, tr_base = solve_pnp_fista(op, y, Identity(), cfg_base)
        # strictly better squared error over the tail of the run
        assert np.all(tr_npn.err_sq[20:] < tr_base.err_sq[20:])

    def test_gamma_zero_bit_identical_to_baseline(self):
        op, basis, x_star, y = cs_problem(n=20, m=5, seed=3)
        prior = OraclePrior(basis, ZeroError())
        config = SolverConfig(alpha=0.5, gamma=0.0, iters=30, x_star=x_star)
        its_a, obs_a = collector()
        its_b, obs_b = collector()
        x_a, _ = solve_pnp_fista(op, y, GaussianSmooth(0.7), config,
                                 basis, lambda yy: prior.predict(yy, x_star),
                                 observer=obs_a)
        x_b, _ = solve_pnp_fista(op, y, GaussianSmooth(0.7), config, observer=obs_b)
        np.testing.assert_array_equal(x_a, x_b)
        assert len(its_a) == len(its_b) == config.iters + 1
        for ita, itb in zip(its_a, its_b):
            np.testing.assert_array_equal(ita, itb)

    def test_divergence_flagged(self):
        op = DenseOperator(np.eye(4) * 10.0)
        y = np.ones(4) * 1e8
        config = SolverConfig(alpha=10.0, gamma=0.0, iters=60)
        _, trace = solve_pnp_fista(op, y, Identity(), config)
        assert trace.diverged
        assert any("diverged" in f for f in trace.flags)

    def test_t_sequence_lower_bound(self):
        t = 1.0
        for ell in range(1, 200):
            t = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            assert t >= (ell + 1) / 2.0


class TestRedFista:
    def test_lam_zero_equals_gradient_fista(self):
        op, basis, x_star, y = cs_problem(n=20, m=5, seed=4)
        cfg = SolverConfig(alpha=0.5, gamma=0.0, lam=0.0, iters=40, x_star=x_star)
        its_red, obs_red = collector()
        its_plain, obs_plain = collector()
        solve_red_fista(op, y, TVChambolle(0.1), cfg, observer=obs_red)
        solve_red_fista(op, y, Identity(), cfg, observer=obs_plain)
        assert len(its_red) == len(its_plain) == cfg.iters + 1
        for a, b in zip(its_red, its_plain):
            np.testing.assert_array_equal(a, b)

    def test_identity_denoiser_term_vanishes(self):
        op, basis, x_star, y = cs_problem(n=20, m=5, seed=5)
        cfg_on = SolverConfig(alpha=0.5, gamma=0.0, lam=0.4, iters=40, x_star=x_star)
        cfg_off = SolverConfig(alpha=0.5, gamma=0.0, lam=0.0, iters=40, x_star=x_star)
        its_on, obs_on = collector()
        its_off, obs_off = collector()
        solve_red_fista(op, y, Identity(), cfg_on, observer=obs_on)
        solve_red_fista(op, y, Identity(), cfg_off, observer=obs_off)
        assert len(its_on) == len(its_off) == cfg_on.iters + 1
        for a, b in zip(its_on, its_off):
            np.testing.assert_array_equal(a, b)

    def test_tv_red_helps_on_piecewise_phantom(self):
        rng = np.random.default_rng(8)
        n, m = 64, 28
        H = rng.standard_normal((m, n)) / np.sqrt(n)
        op = DenseOperator(H)
        x_star = piecewise_signal(n, 4, seed=2)
        y = op.forward(x_star) + 0.02 * rng.standard_normal(m)
        alpha = default_alpha(op)
        cfg_red = SolverConfig(alpha=alpha, lam=0.3, iters=200, x_star=x_star)
        cfg_grad = SolverConfig(alpha=alpha, lam=0.0, iters=200, x_star=x_star)
        _, tr_red = solve_red_fista(op, y, TVChambolle(0.05, 30), cfg_red)
        _, tr_grad = solve_red_fista(op, y, Identity(), cfg_grad)
        assert tr_red.psnr[-1] >= tr_grad.psnr[-1]


class TestSparsityFista:
    def test_tau_zero_complete_orthonormal_exact(self):
        n = 16
        op = MaskedFrequencyOperator(n, range(n), "dct")
        rng = np.random.default_rng(9)
        x_star = rng.standard_normal(n)
        y = op.forward(x_star)
        cfg = SolverConfig(alpha=1.0, lam=0.0, iters=10, x_star=x_star)
        x_hat, _ = solve_fista_sparsity(op, y, cfg)
        np.testing.assert_allclose(x_hat, x_star, atol=1e-10)

    def test_matches_long_run_ista_oracle(self):
        # small LASSO against a brute-force proximal-gradient fixed point
        rng = np.random.default_rng(10)
        n, m = 30, 10
        H = rng.standard_normal((m, n)) / np.sqrt(n)
        op = DenseOperator(H)
        x_star = sparse_signal(n, 3, seed=3)
        y = op.forward(x_star)
        tau = 0.005
        alpha = default_alpha(op)
        thresh = alpha * tau

        def prox(v):
            c = scipy.fft.dct(v, type=2, norm="ortho")
            c = np.sign(c) * np.maximum(np.abs(c) - thresh, 0.0)
            return scipy.fft.idct(c, type=2, norm="ortho")

        x = np.zeros(n)
        for _ in range(1_000_000):
            x_new = prox(x - alpha * (H.T @ (H @ x - y)))
            if np.linalg.norm(x_new - x) < 1e-14:
                x = x_new
                break
            x = x_new
        cfg = SolverConfig(alpha=alpha, lam=tau, iters=4000, x_star=x_star,
                           restart="fista-momentum")
        x_hat, trace = solve_fista_sparsity(op, y, cfg)
        assert np.linalg.norm(x_hat - x) < 1e-6

    def test_2d_dct_sparsity_recovers_smooth_image(self):
        from nullprior.operators import MaskedFrequencyOperator, lowpass_mask
        from nullprior.phantoms import bumps

        side = 12
        op = MaskedFrequencyOperator((side, side),
                                     lowpass_mask((side, side), 50), "dct")
        x_star = bumps(side, 3, seed=6).reshape(-1)
        y = op.forward(x_star)
        cfg = SolverConfig(alpha=0.9, lam=1e-4, iters=300, x_star=x_star,
                           restart="fista-momentum")
        x_hat, trace = solve_fista_sparsity(op, y, cfg, transform="dct")
        assert trace.psnr[-1] > 25.0

    def test_npn_reaches_tolerance_faster(self):
        rng = np.random.default_rng(11)
        n, m = 30, 18
        H = rng.standard_normal((m, n)) / np.sqrt(n)
        op = DenseOperator(H)
        basis = qr_nullspace(H, p=n - m, seed=11)
        x_star = sparse_signal(n, 3, seed=12)
        y = op.forward(x_star)
        prior = OraclePrior(basis, ZeroError())
        alpha = default_alpha(op, basis, gamma=1.0)
        tol = 1e-3
        cfg_npn = SolverConfig(alpha=alpha, gamma=1.0, lam=1e-4, iters=2000,
                               x_star=x_star, restart="fista-momentum")
        cfg_base = SolverConfig(alpha=alpha, gamma=0.0, lam=1e-4, iters=2000,
                                x_star=x_star, restart="fista-momentum")
        _, tr_npn = solve_fista_sparsity(op, y, cfg_npn, basis,
                                         lambda yy: prior.predict(yy, x_star),
                                         transform="identity")
        _, tr_base = solve_fista_sparsity(op, y, cfg_base, transform="identity")

        def first_below(tr):
            hits = np.flatnonzero(tr.err_sq < tol ** 2)
            return hits[0] if len(hits) else np.inf

        assert first_below(tr_npn) < first_below(tr_base)


class TestPnpAdmm:
    def test_quadratic_fixed_point_kkt(self):
        op, basis, x_star, y = cs_problem(n=20, m=6, seed=12)
        prior = OraclePrior(basis, ZeroError())
        g = prior.predict(y, x_star)
        cfg = SolverConfig(alpha=1.0, gamma=1.0, rho=0.2, iters=400, x_star=x_star,
                           cg_tol=1e-10)
        x_hat, _ = solve_pnp_admm(op, y, Identity(), cfg, basis,
                                  lambda yy: prior.predict(yy, x_star))
        H = op.to_dense()
        S = basis.matrix
        lhs = (H.T @ H + S.T @ S) @ x_hat
        rhs = H.T @ y + S.T @ g
        assert np.linalg.norm(lhs - rhs) < 1e-8

    def test_rho_sweep_leaves_fixed_point(self):
        op, basis, x_star, y = cs_problem(n=20, m=6, seed=13)
        prior = OraclePrior(basis, ZeroError())
        sols = []
        for rho in (0.3, 1.0, 3.0):
            cfg = SolverConfig(alpha=1.0, gamma=1.0, rho=rho, iters=300,
                               x_star=x_star)
            x_hat, _ = solve_pnp_admm(op, y, Identity(), cfg, basis,
                                      lambda yy: prior.predict(yy, x_star))
            sols.append(x_hat)
        assert np.linalg.norm(sols[0] - sols[1]) < 1e-6
        assert np.linalg.norm(sols[1] - sols[2]) < 1e-6

    def test_gamma_zero_reduces_to_baseline(self):
        op, basis, x_star, y = cs_problem(n=20, m=6, seed=14)
        prior = OraclePrior(basis, ZeroError())
        cfg = SolverConfig(alpha=1.0, gamma=0.0, rho=1.0, iters=40, x_star=x_star)
        x_a, _ = solve_pnp_admm(op, y, GaussianSmooth(0.5), cfg, basis,
                                lambda yy: prior.predict(yy, x_star))
        x_b, _ = solve_pnp_admm(op, y, GaussianSmooth(0.5), cfg)
        np.testing.assert_array_equal(x_a, x_b)

    def test_cg_nonconvergence_flagged(self):
        op, basis, x_star, y = cs_problem(n=20, m=6, seed=15)
        cfg = SolverConfig(alpha=1.0, gamma=0.0, rho=1.0, iters=3,
                           cg_maxiter=1, cg_tol=1e-14, x_star=x_star)
        with pytest.warns(RuntimeWarning, match="CG did not converge"):
            _, trace = solve_pnp_admm(op, y, Identity(), cfg)
        assert any("CG" in f for f in trace.flags)

    def test_divergence_flagged_and_stops(self):
        # a denoiser that expands its input drives the iterates past the guard
        op, basis, x_star, y = cs_problem(n=20, m=6, seed=16)
        cfg = SolverConfig(alpha=1.0, gamma=0.0, rho=1.0, iters=50, x_star=x_star)
        iterates, observer = collector()
        _, trace = solve_pnp_admm(op, y, lambda x: 1e4 * x, cfg, observer=observer)
        assert trace.diverged
        last = int(trace.iters[-1])
        assert 0 < last < cfg.iters
        assert trace.flags == [f"diverged at iteration {last}"]
        norms = [np.linalg.norm(x) for x in iterates]
        assert len(norms) == last + 1
        assert all(v <= solvers.DIVERGENCE_GUARD for v in norms[:-1])
        assert not norms[-1] <= solvers.DIVERGENCE_GUARD

    def test_deblurring_improves_over_baseline(self):
        from nullprior.denoisers import TransformSoftThreshold
        from nullprior.diagnostics import psnr
        from nullprior.experiments import add_measurement_noise
        from nullprior.nullspace import toeplitz_complement
        from nullprior.operators import CirculantConvOperator, gaussian_kernel
        from nullprior.phantoms import bumps
        from nullprior.priors import GaussianError

        side = 16
        kernel = gaussian_kernel(2.0, radius=5, ndim=2)
        op = CirculantConvOperator((side, side), kernel, "center")
        basis = toeplitz_complement(op)
        x_star = bumps(side, 5, seed=21).reshape(-1)
        y = add_measurement_noise(op.forward(x_star), 15.0, seed=22)
        s_norm = np.linalg.norm(basis.project(x_star))
        prior = OraclePrior(basis, GaussianError(
            basis.p, 0.01 * s_norm / np.sqrt(basis.p), seed=23))
        denoiser = TransformSoftThreshold(0.002)
        cfg_npn = SolverConfig(alpha=0.5, gamma=0.7, rho=1.0, iters=100,
                               x_star=x_star)
        cfg_base = SolverConfig(alpha=0.5, gamma=0.0, rho=1.0, iters=100,
                                x_star=x_star)
        x_n, _ = solve_pnp_admm(op, y, denoiser, cfg_npn, basis,
                                lambda yy: prior.predict(yy, x_star))
        x_b, _ = solve_pnp_admm(op, y, denoiser, cfg_base)
        assert psnr(x_n, x_star) > psnr(x_b, x_star)


class TestAlphaNone:
    """alpha None is left by a pnp_admm build; only ADMM, which takes no step, runs on it."""

    @pytest.mark.parametrize("kind", ["pnp_fista", "red_fista", "sparsity"])
    def test_stepped_solvers_refuse_it(self, kind):
        op, basis, x_star, y = cs_problem(n=20, m=5, seed=15)
        cfg = SolverConfig(alpha=None, gamma=0.5, lam=0.1, iters=5, x_star=x_star)
        with pytest.raises(NullPriorError, match="alpha is None"):
            if kind == "sparsity":
                solve_fista_sparsity(op, y, cfg, basis)
            else:
                solve = {"pnp_fista": solve_pnp_fista, "red_fista": solve_red_fista}[kind]
                solve(op, y, Identity(), cfg, basis)

    def test_admm_never_reads_it(self):
        op, basis, x_star, y = cs_problem(n=20, m=5, seed=15)
        prior = OraclePrior(basis, ZeroError())
        cfg = SolverConfig(alpha=0.7, gamma=0.5, iters=10, x_star=x_star)
        runs = [solve_pnp_admm(op, y, GaussianSmooth(0.5), config, basis,
                               lambda yy: prior.predict(yy, x_star))
                for config in (cfg, replace(cfg, alpha=None))]
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        np.testing.assert_array_equal(runs[0][1].err_sq, runs[1][1].err_sq)


class TestTraceInvariants:
    @pytest.mark.parametrize("kind", ["pnp_fista", "red_fista", "pnp_admm", "sparsity"])
    def test_step_sq_from_observed_iterates(self, kind):
        # step_sq is formed as the solve runs, from the previous iterate only;
        # it equals the steps of the whole sequence, bit for bit
        op, basis, x_star, y = cs_problem(n=30, m=8, seed=21)
        prior = OraclePrior(basis, ZeroError())
        cfg = SolverConfig(alpha=0.5, gamma=0.5, lam=0.1, iters=25, x_star=x_star)
        iterates, observer = collector()
        args = (basis, lambda yy: prior.predict(yy, x_star))
        if kind == "sparsity":
            _, trace = solve_fista_sparsity(op, y, cfg, *args, observer=observer)
        else:
            solve = {"pnp_fista": solve_pnp_fista, "red_fista": solve_red_fista,
                     "pnp_admm": solve_pnp_admm}[kind]
            _, trace = solve(op, y, GaussianSmooth(0.6), cfg, *args, observer=observer)
        assert len(iterates) == len(trace.iters) == cfg.iters + 1
        np.testing.assert_array_equal(iterates[0], np.zeros(op.n))
        steps = [float((b - a) @ (b - a)) for a, b in zip(iterates[:-1], iterates[1:])]
        np.testing.assert_array_equal(trace.step_sq, steps + [np.nan])
        assert not hasattr(trace, "iterates")

    def test_row_count_and_columns(self):
        op, basis, x_star, y = cs_problem(n=20, m=5, seed=15)
        cfg = SolverConfig(alpha=0.5, iters=25, x_star=x_star)
        _, trace = solve_pnp_fista(op, y, Identity(), cfg, basis)
        assert len(trace.iters) == 26  # initial row + 25 iterations
        assert np.all(np.isfinite(trace.err_sq))
        assert np.isnan(trace.ratio[-1])
        recomputed = trace.err_sq[1:] / trace.err_sq[:-1]
        np.testing.assert_allclose(trace.ratio[:-1], recomputed, atol=1e-15)

    def test_smoothed_error_monotone_on_well_posed_run(self):
        rng = np.random.default_rng(16)
        H = np.linalg.qr(rng.standard_normal((24, 24)))[0]  # square orthonormal
        op = DenseOperator(H)
        x_star = rng.standard_normal(24)
        y = op.forward(x_star)
        cfg = SolverConfig(alpha=0.9, iters=120, x_star=x_star)
        _, trace = solve_pnp_fista(op, y, Identity(), cfg)
        smoothed = np.convolve(trace.err_sq, np.ones(10) / 10.0, mode="valid")
        assert np.all(np.diff(smoothed) <= 1e-12)

    def test_csv_deterministic(self, tmp_path):
        op, basis, x_star, y = cs_problem(n=16, m=4, seed=17)
        cfg = SolverConfig(alpha=0.5, iters=10, x_star=x_star)
        _, trace = solve_pnp_fista(op, y, Identity(), cfg, basis)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        trace.to_csv(p1)
        trace.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "iter,err_sq,proj_err_sq,phi,data_res_sq,psnr,ratio,in_ciz"


# ---------------------------------------------------------------------------
# carried H z and S z against the loop that applied H and S to every z
# ---------------------------------------------------------------------------

def _applying_fista_solve(op, y, config, basis, prior, gradient_extra, prox, observer):
    # the loop before H z and S z were carried: H and S applied to every
    # momentum point, and H x, S x applied again for the trace
    y = np.asarray(y, dtype=float).reshape(-1)
    basis, g, active = solvers._prepare_prior(basis, prior, y, config.gamma)
    rec = solvers._Recorder(op, y, config, basis, g, observer)
    x_prev = np.zeros(op.n)
    z = np.zeros(op.n)
    t = 1.0
    rec.add(0, x_prev, *rec.products(x_prev))
    for ell in range(1, config.iters + 1):
        grad = op.adjoint(op.forward(z) - y)
        if active:
            grad = grad + config.gamma * basis.backproject(basis.project(z) - g)
        v = z - config.alpha * grad
        v = gradient_extra(v, z)
        x = prox(v)
        t_prime = t
        t = (1.0 + np.sqrt(1.0 + 4.0 * t_prime * t_prime)) / 2.0
        if config.momentum == "fista":
            z_new = x + ((t_prime - 1.0) / t) * (x - x_prev)
        else:
            z_new = x
        if config.restart == "fista-momentum" and ell > 1:
            if float((z - x) @ (x - x_prev)) > 0.0:
                t = 1.0
                z_new = x.copy()
        z = z_new
        x_prev = x
        rec.add(ell, x, *rec.products(x))
    return x_prev, rec.finish()


def _carry_problem(kind):
    rng = np.random.default_rng(11)
    shape = (16, 16)
    if kind in ("mri-dct", "mri-dft"):
        transform = kind[4:]
        op = MaskedFrequencyOperator(shape, lowpass_mask(shape, 60, transform), transform)
        basis = fourier_complement(op)
    elif kind == "blur":
        kernel = gaussian_kernel(1.5, ndim=2)
        op = CirculantConvOperator(shape, kernel, "center")
        basis = toeplitz_complement(op)
    elif kind == "sr":
        kernel = bilinear_kernel(2, ndim=2)
        op = DecimatedConvOperator(shape, kernel, 2)
        basis = sr_complement(op)
    else:
        op, basis, _, _ = cs_problem(n=36, m=12, seed=9)
        shape = op.shape_in
    x_star = GaussianSmooth(1.0)(rng.random(shape)).reshape(-1)
    y = op.forward(x_star) + 0.01 * rng.standard_normal(op.m_eff)
    g = basis.project(x_star) + 0.01 * rng.standard_normal(basis.p)
    return op, basis, x_star, y, lambda yy: g


def _carry_solve(variant, op, y, config, basis, prior, observer=None):
    if variant == "red":
        return solve_red_fista(op, y, TVChambolle(0.05), replace(config, lam=0.2),
                               basis, prior, observer=observer)
    if variant == "sparsity":
        return solve_fista_sparsity(op, y, replace(config, lam=1e-3), basis, prior,
                                    observer=observer)
    config = {"none": replace(config, momentum="none"),
              "restart": replace(config, restart="fista-momentum")}.get(variant, config)
    return solve_pnp_fista(op, y, GaussianSmooth(0.5), config, basis, prior,
                           observer=observer)


def _max_rel_gap(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    np.testing.assert_array_equal(np.isnan(a), np.isnan(b))
    a, b = a[~np.isnan(b)], b[~np.isnan(b)]
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


CARRY_PROBLEMS = ["mri-dct", "mri-dft", "blur", "sr", "cs"]
CARRY_VARIANTS = ["fista", "none", "restart", "red", "sparsity"]
TRACE_COLUMNS = ("err_sq", "proj_err_sq", "phi", "data_res_sq", "psnr", "ratio", "step_sq")


class TestCarriedImages:
    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    @pytest.mark.parametrize("variant", CARRY_VARIANTS)
    @pytest.mark.parametrize("kind", CARRY_PROBLEMS)
    def test_matches_applying_loop(self, kind, variant, gamma, monkeypatch):
        op, basis, x_star, y, prior = _carry_problem(kind)
        config = SolverConfig(alpha=default_alpha(op, basis, gamma), gamma=gamma,
                              iters=60, x_star=x_star)
        its_new, obs_new = collector()
        its_ref, obs_ref = collector()
        x_new, tr_new = _carry_solve(variant, op, y, config, basis, prior, obs_new)
        monkeypatch.setattr(solvers, "_fista_solve", _applying_fista_solve)
        x_ref, tr_ref = _carry_solve(variant, op, y, config, basis, prior, obs_ref)
        assert np.linalg.norm(x_new - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
        assert len(its_new) == len(its_ref) == config.iters + 1
        for a, b in zip(its_new, its_ref):
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(x_ref)
        for column in TRACE_COLUMNS:
            assert _max_rel_gap(getattr(tr_new, column), getattr(tr_ref, column)) <= 1e-12

    @pytest.mark.parametrize("gamma,backprojections", [(0.0, 0), (0.5, 1)])
    def test_one_application_each_per_iteration(self, gamma, backprojections,
                                                monkeypatch):
        # a blur and its Toeplitz complement share no masked transform, so
        # the pair applies H and S separately
        op, basis, x_star, y, prior = _carry_problem("blur")
        config = SolverConfig(alpha=default_alpha(op, basis, gamma), gamma=gamma,
                              iters=25, x_star=x_star)
        counts = _spy(monkeypatch, (LinearOperator, "forward"), (LinearOperator, "adjoint"),
                      (NullSpaceBasis, "project"), (NullSpaceBasis, "backproject"))
        solve_pnp_fista(op, y, GaussianSmooth(0.5), config, basis, prior)
        iters = config.iters
        assert counts["forward"] == iters
        assert counts["adjoint"] == iters
        # S x, and S (x - x*) for every row of the trace including the start
        assert counts["project"] == 2 * iters + 1
        assert counts["backproject"] == backprojections * iters

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    @pytest.mark.parametrize("kind", ["mri-dct", "mri-dft"])
    def test_masked_pair_three_transforms_per_iteration(self, kind, gamma, monkeypatch):
        op, basis, x_star, y, prior = _carry_problem(kind)
        config = SolverConfig(alpha=default_alpha(op, basis, gamma), gamma=gamma,
                              iters=25, x_star=x_star)
        counts = _spy(monkeypatch, (MaskedFrequencyOperator, "_spectrum"),
                      (MaskedFrequencyOperator, "_inverse"))
        solve_pnp_fista(op, y, GaussianSmooth(0.5), config, basis, prior)
        iters = config.iters
        # one spectrum holds H x and S x; S (x - x*) takes one more per row,
        # the start row included; the gradient takes one inverse
        assert counts["_spectrum"] == 2 * iters + 1
        assert counts["_inverse"] == iters


def _spy(monkeypatch, *methods):
    """Count the calls of each (owner, name) method in a Counter keyed by name."""
    counts = Counter()
    for owner, name in methods:
        method = getattr(owner, name)

        def counted(self, *args, _method=method, _name=name):
            counts[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(owner, name, counted)
    return counts
