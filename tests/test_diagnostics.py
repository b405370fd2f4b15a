"""Theory measurements: isometry constants, contraction rate, penalty bound, improvement zone."""

import numpy as np
import pytest

from nullprior.denoisers import Identity
from nullprior.diagnostics import (
    compute_rho,
    compute_rho_exact,
    detect_ciz,
    detect_ciz_rip_variant,
    estimate_ric,
    iterate_cloud_pairs,
    psnr,
    penalty_decay_bound,
    decay_constants,
    decay_constants_statement_variant,
)
from nullprior.errors import NullPriorError
from nullprior.experiments import build_problem, run
from nullprior.nullspace import NullSpaceBasis, fourier_complement, qr_nullspace
from nullprior.operators import (
    DenseOperator,
    MaskedFrequencyOperator,
    ScaledOperator,
    lowpass_mask,
    random_mask,
)
from nullprior.phantoms import bumps
from nullprior.priors import LipschitzError, OraclePrior, ZeroError
from nullprior.solvers import SolverConfig, solve_pnp_fista


def scaled_frequency_setup(side=8, kept=16, scale=0.1, seed=0):
    """Scaled orthonormal-row operator plus its scaled exact complement.

    H'H + S'S = scale^2 * I on all of R^n, so the gradient map contracts
    uniformly and the contraction-rate bound can be certified end to end.
    """
    mask = lowpass_mask((side, side), kept, "dct")
    base = MaskedFrequencyOperator((side, side), mask, "dct")
    from nullprior.operators import ScaledOperator

    op = ScaledOperator(base, scale)
    basis = fourier_complement(base).scaled(scale)
    x_star = bumps(side, 4, seed=seed).reshape(-1)
    return op, basis, x_star


class TestEstimateRic:
    def test_isometry_on_row_space(self):
        rng = np.random.default_rng(0)
        M = np.linalg.qr(rng.standard_normal((10, 4)))[0].T  # orthonormal rows
        # differences confined to the row space
        pairs = []
        for _ in range(10):
            c = rng.standard_normal(4)
            base = rng.standard_normal(10)
            pairs.append((base + M.T @ c, base))
        assert estimate_ric(M, pairs) < 1e-12

    def test_annihilated_differences(self):
        rng = np.random.default_rng(1)
        M = np.linalg.qr(rng.standard_normal((10, 4)))[0].T
        null = np.linalg.qr(rng.standard_normal((10, 10)))[0][:, 4:]
        # make exact null-space directions of M
        proj = np.eye(10) - M.T @ M
        pairs = []
        for _ in range(10):
            d = proj @ rng.standard_normal(10)
            base = rng.standard_normal(10)
            pairs.append((base + d, base))
        assert estimate_ric(M, pairs) == pytest.approx(1.0, abs=1e-12)

    def test_coincident_pairs_skipped(self):
        M = np.eye(3)
        x = np.ones(3)
        assert estimate_ric(M, [(x, x), (x, np.zeros(3))]) == pytest.approx(0.0)
        with pytest.raises(Exception):
            estimate_ric(M, [(x, x)])


class TestComputeRho:
    def test_gamma_zero_form(self):
        rng = np.random.default_rng(2)
        H = rng.standard_normal((4, 10)) / np.sqrt(10)
        alpha = 0.3
        est = compute_rho(0.0, alpha, H, np.zeros((1, 10)), 0.0)
        expected = np.linalg.norm(np.eye(10) - alpha * (H.T @ H), 2)
        assert est.rho == pytest.approx(expected, abs=1e-12)

    def test_complete_orthonormal_projector_identity(self):
        rng = np.random.default_rng(3)
        Q = np.linalg.qr(rng.standard_normal((12, 12)))[0]
        H, S = Q[:4].copy(), Q[4:].copy()
        est = compute_rho(0.0, 1.0, H, S, ric_s=0.3)
        assert est.gradient_op_norm < 1e-12
        assert est.rho == pytest.approx(1.3 * 1.0, abs=1e-10)

    def test_empirical_ratio_below_rho(self):
        # scaled complete system: every per-step ratio must respect rho
        op, basis, x_star = scaled_frequency_setup()
        y = op.forward(x_star)
        alpha = 50.0  # contraction factor 1 - alpha * 0.01 = 0.5
        prior = OraclePrior(basis, ZeroError())
        config = SolverConfig(alpha=alpha, gamma=1.0, iters=40, x_star=x_star,
                              momentum="none")
        _, trace = solve_pnp_fista(op, y, Identity(), config, basis,
                                   lambda yy: prior.predict(yy, x_star))
        pairs = iterate_cloud_pairs(trace.iterates, x_star)
        ric_s = estimate_ric(basis.matrix, pairs)
        assert ric_s < 1.0
        est = compute_rho(0.0, alpha, op.to_dense(), basis.matrix, ric_s)
        assert est.rho < 1.0
        ciz = detect_ciz(trace.proj_err_sq, 0.0)
        ratios = trace.ratio[ciz]
        ratios = ratios[np.isfinite(ratios)]
        assert np.all(np.sqrt(ratios) <= est.rho + 1e-9)
        assert np.all(ratios <= est.rho + 1e-9)

    def test_squared_variant_recorded(self):
        rng = np.random.default_rng(4)
        H = rng.standard_normal((3, 8)) / 4.0
        S = rng.standard_normal((2, 8)) / 4.0
        est = compute_rho(0.1, 0.5, H, S, 0.2)
        assert est.rho_squared_form == pytest.approx(
            1.1 * (est.gradient_op_norm ** 2 + 1.2 * est.s_spectral_norm ** 2))


def _dense_rho(delta, alpha, op, basis, gamma, ric_s):
    return compute_rho(delta, alpha, op.to_dense(), np.sqrt(gamma) * basis.matrix, ric_s)


def _exact_cases():
    rng = np.random.default_rng(11)
    H = rng.standard_normal((10, 36)) / 6.0
    cs = DenseOperator(H)
    dct = MaskedFrequencyOperator((8, 8), lowpass_mask((8, 8), 16, "dct"), "dct")
    dft = MaskedFrequencyOperator((8, 8), random_mask((8, 8), 12, 5, "dft"), "dft")
    mri_scaled = ScaledOperator(dct, 0.37)
    return {
        "qr-full": (cs, qr_nullspace(H, 26, seed=1)),
        "qr-partial": (cs, qr_nullspace(H, 14, seed=2)),
        "dct": (dct, fourier_complement(dct)),
        "dft": (dft, fourier_complement(dft)),
        "dct-scaled-op": (mri_scaled, fourier_complement(mri_scaled)),
        "qr-scaled-op": (mri_scaled, qr_nullspace(mri_scaled.to_dense(), 30, seed=3)),
    }


class TestComputeRhoExact:
    @pytest.mark.parametrize("case", sorted(_exact_cases()))
    @pytest.mark.parametrize("gamma", [0.3, 1.0, 3.0])
    @pytest.mark.parametrize("alpha", [0.2, 0.9, 1.7])
    def test_matches_dense_from_above(self, case, gamma, alpha):
        op, basis = _exact_cases()[case]
        exact = compute_rho_exact(0.1, alpha, op, basis, gamma, 0.2)
        dense = _dense_rho(0.1, alpha, op, basis, gamma, 0.2)
        assert exact.rho == pytest.approx(dense.rho, rel=1e-12, abs=0.0)
        assert exact.rho >= dense.rho - 1e-14
        assert exact.rho_squared_form == pytest.approx(dense.rho_squared_form, rel=1e-12)
        assert exact.s_spectral_norm >= dense.s_spectral_norm - 1e-14

    @pytest.mark.parametrize("case", ["qr-partial", "dct-scaled-op"])
    @pytest.mark.parametrize("gamma", [0.3, 3.0])
    def test_upper_bound_under_recorded_residuals(self, case, gamma):
        # perturb an exact basis well past roundoff: the Weyl term computed
        # from the recorded residuals must keep rho above the dense value
        op, basis = _exact_cases()[case]
        rng = np.random.default_rng(4)
        S = basis.matrix + 1e-4 * rng.standard_normal(basis.matrix.shape)
        H = op.to_dense()
        if basis.method == "fourier-complement":
            H = H / op.scale  # its residual is recorded against the unscaled transform
        noisy = NullSpaceBasis(S, basis.method, float(np.linalg.norm(S @ H.T)),
                               float(np.linalg.norm(S @ S.T - np.eye(basis.p))))
        for alpha in (0.2, 0.9, 1.7):
            exact = compute_rho_exact(0.0, alpha, op, noisy, gamma, 0.0)
            dense = _dense_rho(0.0, alpha, op, noisy, gamma, 0.0)
            assert exact.gradient_op_norm >= dense.gradient_op_norm
            assert exact.s_spectral_norm >= dense.s_spectral_norm
            assert exact.rho == pytest.approx(dense.rho, rel=0.05)

    def test_rejects_approximate_basis(self):
        op, basis = _exact_cases()["dct"]
        with pytest.raises(NullPriorError):
            compute_rho_exact(0.0, 1.0, op, basis.scaled(0.5), 1.0, 0.0)


def _approximate_configs():
    oracle = {"kind": "oracle", "error": {"kind": "gaussian", "eps": 1e-3}}
    solver = {"kind": "pnp_fista", "alpha": "auto", "gamma": 0.5, "iters": 15}
    return {
        "toeplitz": {"problem": "blur", "seed": 2,
                     "operator": {"shape": [8, 8], "kernel": {"kind": "gaussian",
                                                              "sigma": 1.0, "radius": 2}},
                     "basis": {"method": "toeplitz"}, "prior": oracle,
                     "solver": solver, "noise": {"snr_db": None}},
        "radon": {"problem": "ct", "seed": 2,
                  "operator": {"side": 8, "full_angles": 12, "acquired": 4},
                  "basis": {"method": "radon"}, "prior": oracle,
                  "solver": solver, "noise": {"snr_db": None}},
        "scaled": {"problem": "mri", "seed": 2,
                   "operator": {"shape": [8, 8], "transform": "dct",
                                "mask": {"kind": "lowpass", "count": 16}},
                   "basis": {"method": "fourier", "scale": 0.5}, "prior": oracle,
                   "solver": solver, "noise": {"snr_db": None}},
        "learned": {"problem": "cs", "seed": 2,
                    "operator": {"n": 24, "m": 6, "dist": "gaussian", "normalize": True},
                    "basis": {"method": "qr", "p": 8},
                    "prior": {"kind": "net", "hidden": 8, "epochs": 10,
                              "train_count": 30, "lambda1": 0.1, "lambda2": 0.1},
                    "solver": solver, "noise": {"snr_db": None}},
    }


class TestTheoryReportRho:
    @pytest.mark.parametrize("name", sorted(_approximate_configs()))
    def test_approximate_bases_keep_dense_rho(self, name, tmp_path):
        cfg = _approximate_configs()[name]
        report = run(cfg, out_dir=str(tmp_path))["theory"]
        pb = build_problem(cfg)
        basis = pb["basis"]
        assert basis.method == {"toeplitz": "toeplitz-complement",
                                "radon": "radon-complement",
                                "scaled": "fourier-complement-scaled",
                                "learned": "learned"}[name]
        expected = _dense_rho(report.delta_hat, report.alpha, pb["op"], basis,
                              report.gamma, report.ric_s)
        assert report.rho == expected.rho
        assert report.rho_squared_form == expected.rho_squared_form

    def test_exact_basis_uses_closed_form(self, tmp_path):
        cfg = dict(_approximate_configs()["scaled"], basis={"method": "fourier"})
        report = run(cfg, out_dir=str(tmp_path))["theory"]
        pb = build_problem(cfg)
        assert pb["basis"].method == "fourier-complement"
        dense = _dense_rho(report.delta_hat, report.alpha, pb["op"], pb["basis"],
                           report.gamma, report.ric_s)
        assert report.rho == pytest.approx(dense.rho, rel=1e-12, abs=0.0)
        assert report.rho >= dense.rho - 1e-14


class TestPenaltyDecayBound:
    def test_converged_zero_bound(self):
        assert penalty_decay_bound(0.0, 0.0, alpha=0.5, K=0.0, ric_s=0.3,
                              ric_h=0.2, xstar_norm=5.0) == 0.0

    def test_alpha_limit(self):
        # alpha -> inf: C1 -> (1+Ds)^2 + K(1+Dh)(1+Ds)||x*||, C2 -> 1+Ds
        K, ds, dh, xn = 0.4, 0.25, 0.15, 2.0
        C1, C2 = decay_constants(1e12, K, ds, dh, xn)
        assert C1 == pytest.approx((1 + ds) ** 2 + K * (1 + dh) * (1 + ds) * xn, rel=1e-9)
        assert C2 == pytest.approx(1 + ds, rel=1e-6)

    def test_statement_variant_differs(self):
        a = decay_constants(0.5, 0.4, 0.25, 0.15, 2.0)
        b = decay_constants_statement_variant(0.5, 0.4, 0.25, 0.15, 2.0)
        assert a != b

    def test_bound_dominates_penalty_on_certified_trace(self):
        op, basis, x_star = scaled_frequency_setup(seed=5)
        y = op.forward(x_star)
        err = LipschitzError(basis.p, op.m_eff, eps=1e-3, K=0.05, seed=5)
        prior = OraclePrior(basis, err)
        alpha = 50.0
        config = SolverConfig(alpha=alpha, gamma=1.0, iters=60, x_star=x_star,
                              momentum="none")
        _, trace = solve_pnp_fista(op, y, Identity(), config, basis,
                                   lambda yy: prior.predict(yy, x_star))
        pairs = iterate_cloud_pairs(trace.iterates, x_star)
        ric_s = estimate_ric(basis.matrix, pairs)
        ric_h = estimate_ric(op.to_dense(), pairs)
        xn = np.linalg.norm(x_star)
        # certification: the realized error respects K (1 + ric_h) ||x*||
        assert prior.error_norm(y) <= err.K * (1 + ric_h) * xn
        for ell in range(len(trace.iters) - 1):
            bound = penalty_decay_bound(np.sqrt(trace.err_sq[ell]),
                                   np.sqrt(trace.step_sq[ell]),
                                   alpha, err.K, ric_s, ric_h, xn)
            assert np.sqrt(trace.phi[ell + 1]) <= bound + 1e-9


class TestDetectCiz:
    def test_zero_error_all_positive_rows(self):
        proj = np.array([4.0, 1.0, 0.25, 0.0])
        np.testing.assert_array_equal(detect_ciz(proj, 0.0), [0, 1, 2])

    def test_huge_error_empty(self):
        proj = np.array([4.0, 1.0, 0.25])
        assert len(detect_ciz(proj, 1e6)) == 0

    def test_prefix_structure_on_decaying_run(self):
        # deblurring: the fit also constrains the complement directions, so
        # the projected error crosses strictly below the prior error norm
        from nullprior.nullspace import toeplitz_complement
        from nullprior.operators import CirculantConvOperator, gaussian_kernel
        from nullprior.priors import GaussianError
        from nullprior.solvers import default_alpha

        side = 16
        kernel = gaussian_kernel(2.0, radius=6, ndim=2)
        op = CirculantConvOperator((side, side), kernel, "center")
        basis = toeplitz_complement(kernel, (side, side))
        x_star = bumps(side, 4, seed=3).reshape(-1)
        y = op.forward(x_star)
        prior = OraclePrior(basis, GaussianError(basis.p, eps=2e-3, seed=4))
        alpha = default_alpha(op, basis, gamma=0.5)
        config = SolverConfig(alpha=alpha, gamma=0.5, iters=300, x_star=x_star,
                              momentum="none")
        _, trace = solve_pnp_fista(op, y, Identity(), config, basis,
                                   lambda yy: prior.predict(yy, x_star))
        ciz = detect_ciz(trace.proj_err_sq, prior.error_norm(y))
        assert len(ciz) > 0
        # a prefix: indices are consecutive from 0, ending at the crossing
        np.testing.assert_array_equal(ciz, np.arange(len(ciz)))
        assert len(ciz) < len(trace.iters)

    def test_monotone_in_error_norm(self):
        rng = np.random.default_rng(7)
        proj = np.sort(rng.random(30))[::-1] * 10
        sizes = [len(detect_ciz(proj, nv)) for nv in (0.0, 0.5, 1.0, 2.0, 5.0)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_rip_variant_uses_unprojected_error(self):
        err_sq = np.array([9.0, 4.0, 1.0])
        got = detect_ciz_rip_variant(err_sq, ric_s=0.0, error_norm=2.0)
        np.testing.assert_array_equal(got, [0, 1])


class TestPsnr:
    def test_exact_match_capped(self):
        x = np.ones(10)
        assert psnr(x, x) == 200.0

    def test_zero_db_case(self):
        x_star = np.zeros(4)
        x_hat = np.ones(4)  # MSE = 1 = peak^2
        assert psnr(x_hat, x_star, peak=1.0) == pytest.approx(0.0, abs=1e-12)

    def test_30db_case(self):
        n = 1000
        x_star = np.zeros(n)
        x_hat = np.full(n, np.sqrt(1e-3))
        assert psnr(x_hat, x_star, peak=1.0) == pytest.approx(30.0, abs=1e-9)
