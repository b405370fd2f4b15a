"""Theory measurements: isometry constants, contraction rate, penalty bound, improvement zone."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nullprior import diagnostics, experiments, nullspace
from nullprior.denoisers import (
    GaussianSmooth,
    Identity,
    TVChambolle,
    denoise,
    estimate_delta,
)
from nullprior.diagnostics import (
    CloudConstants,
    _diagonal_gram,
    _lanczos_max,
    compute_rho,
    detect_ciz,
    detect_ciz_rip_variant,
    estimate_ric,
    gram_lower,
    lambda_max,
    lower_eigvalsh,
    normal_spectrum,
    psnr,
    penalty_decay_bound,
    decay_constants,
    decay_constants_statement_variant,
)
from nullprior.errors import NullPriorError
from nullprior.experiments import build_problem, run
from nullprior.nullspace import (
    NullSpaceBasis,
    as_basis,
    fourier_complement,
    load_basis,
    qr_nullspace,
    radon_complement,
    save_basis,
    sr_complement,
    toeplitz_complement,
)
from nullprior.operators import (
    CirculantConvOperator,
    DecimatedConvOperator,
    DenseOperator,
    LinearOperator,
    MaskedFrequencyOperator,
    RadonOperator,
    ScaledOperator,
    bilinear_kernel,
    gaussian_kernel,
    lowpass_mask,
    random_mask,
)
from nullprior.phantoms import bumps
from nullprior.priors import LipschitzError, OraclePrior, ZeroError
from nullprior.solvers import (
    SolverConfig,
    default_alpha,
    solve_pnp_admm,
    solve_pnp_fista,
    solve_red_fista,
)

from references import iterate_cloud_images, iterate_cloud_pairs


def collector():
    """A list and a solver observer that appends each iterate to it."""
    iterates = []
    return iterates, lambda x, *shared: iterates.append(x.copy())


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

    def test_float_resolution_pair_skipped(self):
        # M stretches coordinate 2; the sample pairs never move along it
        M = np.diag([1.0, 1.0, 3.0, 1.0])
        rng = np.random.default_rng(3)
        pairs = []
        for _ in range(5):
            a, b = rng.standard_normal(4), rng.standard_normal(4)
            b[2] = a[2]
            pairs.append((a, b))
        base = estimate_ric(M, pairs)
        # a pair one ulp apart along the stretched coordinate: its ratio is
        # rounding noise, and counted it would set the maximum at 3^2 - 1
        x = rng.standard_normal(4)
        ulp = x.copy()
        ulp[2] = np.nextafter(x[2], np.inf)
        assert estimate_ric(M, pairs + [(x, ulp)]) == base
        far = x.copy()
        far[2] += 1e-6
        assert estimate_ric(M, pairs + [(x, far)]) == pytest.approx(8.0)
        with pytest.raises(NullPriorError):
            estimate_ric(M, [(x, ulp)])

    def test_tuple_map_gives_each_constant(self):
        rng = np.random.default_rng(5)
        A, B = rng.standard_normal((3, 6)), rng.standard_normal((4, 6))
        x = rng.standard_normal(6)
        ulp = x.copy()
        ulp[1] = np.nextafter(x[1], np.inf)
        pairs = [(rng.standard_normal(6), rng.standard_normal(6)) for _ in range(6)]
        pairs += [(x, x), (x, ulp)]
        both = estimate_ric(lambda v: (A @ v, B @ v), pairs)
        assert both == (estimate_ric(A, pairs), estimate_ric(B, pairs))
        with pytest.raises(NullPriorError):
            estimate_ric(lambda v: (A @ v, B @ v), [(x, ulp)])

    def test_float_resolution_pair_skipped_by_delta(self):
        stretch = np.array([1.0, 1.0, 3.0, 1.0])
        rng = np.random.default_rng(4)
        x = rng.standard_normal(4)
        ulp = x.copy()
        ulp[2] = np.nextafter(x[2], -np.inf)
        pairs = [(x, x + np.array([0.5, -0.2, 0.0, 0.1])), (x, ulp)]
        assert estimate_delta(lambda v: stretch * v, pairs) == 0.0


class TestComputeRho:
    def test_gamma_zero_form(self):
        rng = np.random.default_rng(2)
        H = rng.standard_normal((4, 10)) / np.sqrt(10)
        alpha = 0.3
        est = compute_rho(0.0, alpha, DenseOperator(H), np.zeros((1, 10)), 1.0, 0.0)
        expected = np.linalg.norm(np.eye(10) - alpha * (H.T @ H), 2)
        assert est.rho == pytest.approx(expected, abs=1e-12)

    def test_complete_orthonormal_projector_identity(self):
        rng = np.random.default_rng(3)
        Q = np.linalg.qr(rng.standard_normal((12, 12)))[0]
        H, S = Q[:4].copy(), Q[4:].copy()
        est = compute_rho(0.0, 1.0, DenseOperator(H), S, 1.0, ric_s=0.3)
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
        iterates, observer = collector()
        _, trace = solve_pnp_fista(op, y, Identity(), config, basis,
                                   lambda yy: prior.predict(yy, x_star), observer=observer)
        pairs = iterate_cloud_pairs(iterates, x_star)
        ric_s = estimate_ric(basis.matrix, pairs)
        assert ric_s < 1.0
        est = compute_rho(0.0, alpha, op, basis, 1.0, ric_s)
        assert est.rho < 1.0
        ciz = detect_ciz(trace.proj_err_sq, 0.0)
        ratios = trace.ratio[ciz]
        ratios = ratios[np.isfinite(ratios)]
        assert np.all(np.sqrt(ratios) <= est.rho + 1e-9)
        assert np.all(ratios <= est.rho + 1e-9)

    @pytest.mark.parametrize("alpha", [0.2, 1.7])
    def test_norms_match_dense_svd(self, alpha):
        rng = np.random.default_rng(9)
        H = rng.standard_normal((6, 20)) / 3.0
        S = rng.standard_normal((9, 20)) / 3.0
        est = compute_rho(0.0, alpha, DenseOperator(H), S, 1.0, 0.0)
        op_norm = np.linalg.norm(np.eye(20) - alpha * (H.T @ H + S.T @ S), 2)
        assert est.gradient_op_norm == pytest.approx(op_norm, rel=1e-14, abs=0)
        assert est.s_spectral_norm == pytest.approx(np.linalg.norm(S, 2), rel=1e-14, abs=0)

    def test_squared_variant_recorded(self):
        rng = np.random.default_rng(4)
        H = rng.standard_normal((3, 8)) / 4.0
        S = rng.standard_normal((2, 8)) / 4.0
        est = compute_rho(0.1, 0.5, DenseOperator(H), S, 1.0, 0.2)
        assert est.rho_squared_form == pytest.approx(
            1.1 * (est.gradient_op_norm ** 2 + 1.2 * est.s_spectral_norm ** 2))


def _rho_whole_matrix(alpha, H, S, gamma):
    # the norms compute_rho took before it worked in one n x n buffer
    S_eff = np.sqrt(gamma) * S
    M = S_eff.T @ S_eff
    s_norm = float(np.sqrt(max(np.linalg.eigvalsh(M)[-1], 0.0)))
    M += H.T @ H
    M *= -alpha
    M.flat[::H.shape[1] + 1] += 1.0
    eig = np.linalg.eigvalsh(M)
    return float(max(abs(eig[0]), abs(eig[-1]))), s_norm


def _dense_pair(name):
    """(H, S) of a pair with no structural spectrum: Radon, QR or Gaussian S."""
    if name == "ct":
        full = [180.0 * k / 30 for k in range(30)]
        return (RadonOperator(16, full[:10]).to_dense(),
                radon_complement(RadonOperator(16, full[:10]), full).matrix)
    rng = np.random.default_rng(21)
    H = rng.standard_normal((30, 120)) / np.sqrt(120)
    if name == "qr":
        return H, qr_nullspace(H, 60, seed=2).matrix
    return H, rng.standard_normal((50, 120)) / np.sqrt(120)


@pytest.fixture(scope="module")
def bench_ct():
    """The ct-admm-sweep benchmark's problem (n = 1024, p = 1280, m = 640) at gamma 0.3."""
    return build_problem({
        "problem": "ct", "seed": 4, "signal": {"kind": "shepp_logan"},
        "operator": {"side": 32, "full_angles": 60, "acquired": 20},
        "basis": {"method": "radon"},
        "prior": {"kind": "oracle", "error": {"kind": "gaussian", "eps": 1e-3}},
        "denoiser": {"kind": "tv", "weight": 0.05, "iters": 20},
        "solver": {"kind": "pnp_admm", "alpha": "auto", "gamma": 0.3, "iters": 3},
        "noise": {"snr_db": 20.0}})


def _peak_bytes(fn):
    """Peak bytes that fn allocates beyond what was allocated when it started."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start


class TestDenseRhoBuffer:
    @pytest.mark.parametrize("name", ["ct", "qr", "cs"])
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 3.0])
    def test_matches_whole_matrix_formula(self, name, gamma):
        H, S = _dense_pair(name)
        alpha = 0.9 / np.linalg.eigvalsh(H.T @ H + gamma * S.T @ S)[-1]
        op_norm, s_norm = _rho_whole_matrix(alpha, H, S, gamma)
        for est in (compute_rho(0.1, alpha, DenseOperator(H), S, gamma, 0.2),
                    compute_rho(0.1, alpha, DenseOperator(H), np.sqrt(gamma) * S, 1.0, 0.2)):
            assert est.gradient_op_norm == pytest.approx(op_norm, rel=1e-12, abs=0.0)
            assert est.s_spectral_norm == pytest.approx(s_norm, rel=1e-12, abs=0.0)

    def test_inputs_left_unchanged(self):
        H, S = _dense_pair("ct")
        H0, S0 = H.copy(), S.copy()
        compute_rho(0.0, 0.01, DenseOperator(H), S, 3.0, 0.0)
        np.testing.assert_array_equal(H, H0)
        np.testing.assert_array_equal(S, S0)

    def test_compute_rho_memory_on_benchmark_ct_pair(self, bench_ct):
        H, S = bench_ct["op"].to_dense(), bench_ct["basis"].matrix
        n = H.shape[1]
        assert (n, S.shape[0], H.shape[0]) == (1024, 1280, 640)
        peak = _peak_bytes(lambda: compute_rho(0.0, 0.01, DenseOperator(H), S, 0.3, 0.0))
        assert peak <= 1.2 * 8 * n * n

    def test_theory_report_memory_on_benchmark_ct_pair(self, bench_ct):
        # the report densifies H (5.2 MB) and holds one n x n buffer (8.4 MB)
        pb = bench_ct
        _, trace, cloud = experiments._penalized_solve(pb)
        assert normal_spectrum(pb["op"], pb["basis"]) is None
        assert _peak_bytes(lambda: experiments._theory_report(pb, trace, cloud)) <= 16e6


def _dense_rho(delta, alpha, op, basis, gamma, ric_s):
    # the dense reference: a dense operator and matrix have no structural spectrum
    return compute_rho(delta, alpha, DenseOperator(op.to_dense()), basis.matrix, gamma, ric_s)


def _old_dense_rho(delta, alpha, H, S, ric_s, gamma):
    # the dense-matrix rate before compute_rho chose its path itself
    n = H.shape[1]
    M = gram_lower(S, gamma)
    gram_lower(H, 1.0, M, beta=1.0)
    M *= -alpha
    M.flat[::n + 1] += 1.0
    eig = lower_eigvalsh(M)
    op_norm = float(max(abs(eig[0]), abs(eig[-1])))
    gram_lower(S, gamma, M)
    s_norm = float(np.sqrt(max(lower_eigvalsh(M)[-1], 0.0)))
    return _rho_fields(delta, op_norm, s_norm, ric_s, alpha)


def _dense_formula_rho(delta, alpha, H, S, ric_s, gamma):
    # the dense-matrix rate with ||S||^2 from S'S rather than gamma S'S:
    # the basis measures it once, whatever gamma
    fields = _old_dense_rho(delta, alpha, H, S, ric_s, gamma)
    s_norm = float(np.sqrt(gamma * max(lower_eigvalsh(gram_lower(S))[-1], 0.0)))
    return _rho_fields(delta, fields["gradient_op_norm"], s_norm, ric_s, alpha)


def _old_spectral_rho(delta, alpha, op, basis, gamma, ric_s):
    # the structural-spectrum rate before compute_rho chose its path itself
    eig = normal_spectrum(op, basis, gamma)
    op_norm = float(np.max(np.abs(1.0 - alpha * eig)))
    s_norm = float(np.sqrt(gamma * np.max(_diagonal_gram(basis.operator)[1])))
    return _rho_fields(delta, op_norm, s_norm, ric_s, alpha)


def _rho_fields(delta, op_norm, s_norm, ric_s, alpha):
    return {"rho": (1.0 + delta) * (op_norm + (1.0 + ric_s) * s_norm),
            "rho_squared_form": (1.0 + delta) * (op_norm ** 2 + (1.0 + ric_s) * s_norm ** 2),
            "gradient_op_norm": op_norm, "s_spectral_norm": s_norm, "alpha": alpha}


def _approximate_configs():
    oracle = {"kind": "oracle", "error": {"kind": "gaussian", "eps": 1e-3}}
    solver = {"kind": "pnp_fista", "alpha": "auto", "gamma": 0.5, "iters": 15}
    return {
        "radon": {"problem": "ct", "seed": 2,
                  "operator": {"side": 8, "full_angles": 12, "acquired": 4},
                  "basis": {"method": "radon"}, "prior": oracle,
                  "solver": solver, "noise": {"snr_db": None}},
        "scaled": {"problem": "mri", "seed": 2,
                   "operator": {"shape": [8, 8], "transform": "dct",
                                "mask": {"kind": "lowpass", "count": 16}},
                   "basis": {"method": "fourier", "scale": 0.5}, "prior": oracle,
                   "solver": solver, "noise": {"snr_db": None}},
        "qr": {"problem": "cs", "seed": 2,
               "operator": {"n": 24, "m": 6, "dist": "gaussian", "normalize": True},
               "basis": {"method": "qr", "p": 12}, "prior": oracle,
               "solver": solver, "noise": {"snr_db": None}},
        "learned": {"problem": "cs", "seed": 2,
                    "operator": {"n": 24, "m": 6, "dist": "gaussian", "normalize": True},
                    "basis": {"method": "qr", "p": 8},
                    "prior": {"kind": "net", "hidden": 8, "epochs": 10,
                              "train_count": 30, "lambda1": 0.1, "lambda2": 0.1},
                    "solver": solver, "noise": {"snr_db": None}},
    }


def _structured_configs():
    oracle = {"kind": "oracle", "error": {"kind": "gaussian", "eps": 1e-3}}
    solver = {"kind": "pnp_fista", "alpha": "auto", "gamma": 0.5, "iters": 15}
    return {
        "toeplitz": {"problem": "blur", "seed": 2,
                     "operator": {"shape": [8, 8], "kernel": {"kind": "gaussian",
                                                              "sigma": 1.0, "radius": 2}},
                     "basis": {"method": "toeplitz"}, "prior": oracle,
                     "solver": solver, "noise": {"snr_db": None}},
        "sr": {"problem": "sr", "seed": 2,
               "operator": {"shape": [12, 12], "factor": 3, "scale": 0.8},
               "basis": {"method": "sr"}, "prior": oracle,
               "solver": solver, "noise": {"snr_db": None}},
    }


def _pair_configs():
    """MRI (DCT, scaled DFT), blur, SR and CT configs of the theory-report tests."""
    mri = dict(_approximate_configs()["scaled"], basis={"method": "fourier"})
    return {"mri-dct": mri,
            "mri-dft-scaled": dict(mri, operator={**mri["operator"], "transform": "dft",
                                                  "scale": 0.37}),
            "toeplitz": _structured_configs()["toeplitz"],
            "sr": _structured_configs()["sr"],
            "radon": _approximate_configs()["radon"]}


def _cloud_problem(kind):
    """A solver, its problem and a denoiser the observer measures."""
    if kind == "diverging":
        # the expanding denoiser drives ADMM past the divergence guard
        rng = np.random.default_rng(16)
        H = rng.standard_normal((6, 20)) / np.sqrt(20)
        op = DenseOperator(H)
        basis = qr_nullspace(H, 14, seed=16)
        x_star = rng.standard_normal(20)
        return solve_pnp_admm, op, basis, x_star, lambda x: 1e4 * x, 50
    shape = (16, 16)
    op = CirculantConvOperator(shape, gaussian_kernel(1.5, ndim=2), "center")
    basis = toeplitz_complement(op)
    x_star = bumps(16, 4, seed=8).reshape(-1)
    solve = {"pnp_fista": solve_pnp_fista, "red_fista": solve_red_fista,
             "pnp_admm": solve_pnp_admm}[kind]
    denoiser = TVChambolle(0.05, 10) if kind == "red_fista" else GaussianSmooth(0.6)
    return solve, op, basis, x_star, denoiser, 40


class TestCloudConstants:
    @pytest.mark.parametrize("kind", ["pnp_fista", "red_fista", "pnp_admm", "diverging"])
    def test_online_constants_equal_stored_cloud(self, kind):
        solve, op, basis, x_star, denoiser, iters = _cloud_problem(kind)
        rng = np.random.default_rng(3)
        y = op.forward(x_star) + 0.01 * rng.standard_normal(op.m_eff)
        g = basis.project(x_star) + 0.01 * rng.standard_normal(basis.p)
        gamma = 0.7
        config = SolverConfig(alpha=0.5, gamma=gamma, lam=0.2, iters=iters, x_star=x_star)
        shape = op.shape_in
        x_star_image = denoise(denoiser, x_star, shape)
        # one cloud fed by the solve's recorder, one fed its plain iterates
        fed = CloudConstants(op, basis, gamma, denoiser, x_star, x_star_image)
        plain = CloudConstants(op, basis, gamma, denoiser, x_star, x_star_image)
        iterates = []

        def observer(x, *shared):
            iterates.append(x.copy())
            fed.observe(x, *shared)

        _, trace = solve(op, y, denoiser, config, basis, lambda yy: g, observer=observer)
        assert trace.diverged == (kind == "diverging")
        assert len(iterates) == len(trace.iters)
        for x in iterates:
            plain(x)
        # the list-based reference on the stored cloud, bit for bit
        pair = basis.pair(op)

        def images(v):
            h, s = pair.forward(v)
            return np.sqrt(gamma) * s, h

        ric = estimate_ric(images, iterate_cloud_pairs(iterates, x_star))
        delta_hat = estimate_delta(denoiser, iterate_cloud_images(
            denoiser, iterates, x_star, x_star_image, shape))
        for cloud in (fed, plain):
            assert cloud.ric == ric
            assert cloud.delta_hat == delta_hat
        steps = [float((b - a) @ (b - a)) for a, b in zip(iterates[:-1], iterates[1:])]
        np.testing.assert_array_equal(trace.step_sq, steps + [np.nan])
        # S (x - x*) from the observer's pair application is basis.project's
        _, alone = solve(op, y, denoiser, config, basis, lambda yy: g)
        np.testing.assert_array_equal(alone.proj_err_sq, trace.proj_err_sq)

    def test_solve_memory_does_not_grow_with_iterations(self):
        # a stored iterate costs 8 n bytes (32 kB here); the observed solve
        # holds the previous iterate and its image, whatever the count
        shape = (64, 64)
        op = CirculantConvOperator(shape, gaussian_kernel(1.5, ndim=2), "center")
        basis = toeplitz_complement(op)
        x_star = bumps(64, 5, seed=2).reshape(-1)
        denoiser = GaussianSmooth(0.6)
        y = op.forward(x_star)

        def peak(iters):
            config = SolverConfig(alpha=0.5, gamma=1.0, iters=iters, x_star=x_star)
            cloud = CloudConstants(op, basis, 1.0, denoiser, x_star,
                                   denoise(denoiser, x_star, shape))
            return _peak_bytes(lambda: solve_pnp_fista(
                op, y, denoiser, config, basis, lambda yy: basis.project(x_star),
                observer=cloud.observe))

        assert peak(200) - peak(20) < 20 * 8 * op.n

    def test_no_pair_resolved_raises(self):
        op, basis, x_star = scaled_frequency_setup()
        cloud = CloudConstants(op, basis, 1.0, Identity(), x_star, x_star)
        cloud(x_star.copy())
        with pytest.raises(NullPriorError, match="coincide"):
            cloud.ric
        with pytest.raises(NullPriorError, match="coincide"):
            cloud.delta_hat


class TestTheoryReportRho:
    @pytest.mark.parametrize("name", sorted(_approximate_configs()))
    def test_approximate_bases_keep_dense_rho(self, name, tmp_path):
        cfg = _approximate_configs()[name]
        report = run(cfg, out_dir=str(tmp_path))["theory"]
        pb = build_problem(cfg)
        basis = pb["basis"]
        assert basis.method == {"radon": "radon-complement",
                                "scaled": "fourier-complement-scaled",
                                "qr": "qr-random",
                                "learned": "learned"}[name]
        expected = _dense_rho(report.delta_hat, report.alpha, pb["op"], basis,
                              report.gamma, report.ric_s)
        assert report.rho == expected.rho
        assert report.rho_squared_form == expected.rho_squared_form

    @pytest.mark.parametrize("name", sorted(_structured_configs()))
    def test_structured_bases_match_dense_rho(self, name, tmp_path, run_iterates):
        cfg = _structured_configs()[name]
        result = run(cfg, out_dir=str(tmp_path))
        report = result["theory"]
        pb = build_problem(cfg)
        assert pb["basis"].method == f"{name}-complement"
        dense = _dense_rho(report.delta_hat, report.alpha, pb["op"], pb["basis"],
                           report.gamma, report.ric_s)
        for field in ("rho", "rho_squared_form", "gradient_op_norm", "s_spectral_norm"):
            assert getattr(report, field) == pytest.approx(getattr(dense, field),
                                                           rel=1e-12, abs=0.0)
        # the constants measured through the operators match the dense products
        pairs = iterate_cloud_pairs(run_iterates, pb["x_star"])
        weight = np.sqrt(report.gamma)
        assert report.ric_s == pytest.approx(
            estimate_ric(weight * pb["basis"].matrix, pairs), rel=1e-12)
        assert report.ric_h == pytest.approx(estimate_ric(pb["op"].to_dense(), pairs),
                                             rel=1e-12)

    @pytest.mark.parametrize("name", ["mri-dct", "mri-dft-scaled", "toeplitz", "radon"])
    def test_ric_pair_bit_identical_to_separate_calls(self, name, tmp_path, run_iterates):
        cfg = _pair_configs()[name]
        report = run(cfg, out_dir=str(tmp_path))["theory"]
        pb = build_problem(cfg)
        op, basis = pb["op"], pb["basis"]
        pairs = iterate_cloud_pairs(run_iterates, pb["x_star"])
        weight = np.sqrt(report.gamma)
        # the two calls the report made before it took both images from one pair
        ric_s = estimate_ric(lambda v: weight * basis.project(v), pairs)
        ric_h = estimate_ric(op.forward, pairs)
        assert (report.ric_s, report.ric_h) == (ric_s, ric_h)

    @pytest.mark.parametrize("name", ["mri-dct", "mri-dft-scaled", "toeplitz", "sr"])
    def test_structured_report_densifies_nothing(self, name, monkeypatch):
        pb = build_problem(_pair_configs()[name])

        def densified(*args):
            raise AssertionError("the theory report densified H or S")

        for cls in (LinearOperator, DenseOperator, RadonOperator):
            monkeypatch.setattr(cls, "to_dense", densified)
        monkeypatch.setattr(NullSpaceBasis, "matrix", property(densified))
        # the constants measured during the solve densify nothing either
        _, trace, cloud = experiments._penalized_solve(pb)
        report = experiments._theory_report(pb, trace, cloud)
        assert np.isfinite(report.rho)

    def test_exact_basis_uses_closed_form(self, tmp_path):
        cfg = dict(_approximate_configs()["scaled"], basis={"method": "fourier"})
        report = run(cfg, out_dir=str(tmp_path))["theory"]
        pb = build_problem(cfg)
        assert pb["basis"].method == "fourier-complement"
        spectral = _old_spectral_rho(report.delta_hat, report.alpha, pb["op"],
                                     pb["basis"], report.gamma, report.ric_s)
        for field, value in spectral.items():
            assert getattr(report, field) == value
        dense = _dense_rho(report.delta_hat, report.alpha, pb["op"], pb["basis"],
                           report.gamma, report.ric_s)
        assert report.rho == pytest.approx(dense.rho, rel=1e-12, abs=0.0)

    def test_dense_basis_with_fourier_label_uses_dense_rho(self, tmp_path):
        # the label says Fourier complement, but a loaded dump is a dense
        # matrix: its pair has no structural spectrum
        cfg = dict(_approximate_configs()["scaled"], basis={"method": "fourier"})
        pb = build_problem(cfg)
        save_basis(pb["basis"], tmp_path / "basis.csv")
        pb["basis"] = load_basis(tmp_path / "basis.csv")
        assert pb["basis"].method == "fourier-complement"
        assert normal_spectrum(pb["op"], pb["basis"]) is None
        _, trace, cloud = experiments._penalized_solve(pb)
        report = experiments._theory_report(pb, trace, cloud)
        dense = _dense_rho(report.delta_hat, report.alpha, pb["op"], pb["basis"],
                           report.gamma, report.ric_s)
        assert report.rho == dense.rho
        assert report.rho_squared_form == dense.rho_squared_form


def _admm(cfg, **solver):
    """cfg solved by pnp_admm, its step left auto unless given."""
    return dict(cfg, solver={"kind": "pnp_admm", "alpha": "auto", "gamma": 0.5, "iters": 5,
                             **solver})


def _theory_lines(out_dir):
    return (Path(out_dir) / "theory.txt").read_text().splitlines()


class TestAdmmStepFromSpectrum:
    """pnp_admm's auto alpha is the theory report's, from the spectrum of P it forms."""

    @pytest.mark.parametrize("gamma", [0.5, 0.0])
    def test_structured_pair_bit_equal_to_default_alpha(self, gamma, tmp_path, lanczos_calls):
        result = run(_admm(_pair_configs()["mri-dct"], gamma=gamma), out_dir=str(tmp_path))
        pb, report = result["problem"], result["theory"]
        assert pb["solver_config"].alpha is None
        # at gamma = 0 the report certifies P at gamma 1, and the step is that P's
        assert report.alpha == default_alpha(pb["op"], pb["basis"], gamma=gamma or 1.0)
        assert f"alpha = {report.alpha:.17g}" in _theory_lines(tmp_path)
        assert lanczos_calls == []

    @pytest.mark.parametrize("name", ["radon", "qr"])
    def test_dense_pair_reads_syevd_of_p(self, name, tmp_path, lanczos_calls):
        result = run(_admm(_approximate_configs()[name]), out_dir=str(tmp_path))
        assert lanczos_calls == []
        pb, report = result["problem"], result["theory"]
        op, basis = pb["op"], pb["basis"]
        assert normal_spectrum(op, basis, 0.5) is None
        H, S = op.to_dense(), basis.matrix
        dense = 0.9 / np.linalg.eigvalsh(H.T @ H + 0.5 * S.T @ S)[-1]
        assert report.alpha == pytest.approx(dense, rel=1e-13, abs=0.0)
        # the Lanczos step a pnp_admm build took before
        assert report.alpha == pytest.approx(default_alpha(op, basis, gamma=0.5),
                                             rel=1e-12, abs=0.0)
        assert f"alpha = {report.alpha:.17g}" in _theory_lines(tmp_path)
        # the rate and the decay constants are those at that step
        given = compute_rho(report.delta_hat, report.alpha, op, basis, 0.5, report.ric_s)
        for field in ("rho", "rho_squared_form", "gradient_op_norm", "s_spectral_norm"):
            assert getattr(report, field) == pytest.approx(getattr(given, field),
                                                           rel=1e-12, abs=0.0)
        assert (report.C1, report.C2) == decay_constants(
            report.alpha, report.K, report.ric_s, report.ric_h, report.xstar_norm)

    @pytest.mark.parametrize("name", ["radon", "qr"])
    def test_numeric_alpha_printed_as_given(self, name, tmp_path):
        result = run(_admm(_approximate_configs()[name], alpha=0.37), out_dir=str(tmp_path))
        assert result["problem"]["solver_config"].alpha == 0.37
        assert result["theory"].alpha == 0.37
        assert "alpha = 0.37" in _theory_lines(tmp_path)

    def test_zero_operator_raises(self):
        with pytest.raises(NullPriorError, match="operator is zero"):
            compute_rho(0.0, None, DenseOperator(np.zeros((2, 3))), np.zeros((1, 3)), 1.0, 0.0)


def _spectrum_cases():
    blur_1d = CirculantConvOperator(48, gaussian_kernel(2.0, ndim=1), "center")
    blur_2d = CirculantConvOperator((16, 16), gaussian_kernel(1.5, ndim=2), "center")
    dct = MaskedFrequencyOperator((8, 8), lowpass_mask((8, 8), 16, "dct"), "dct")
    dft = MaskedFrequencyOperator((8, 8), random_mask((8, 8), 12, 5, "dft"), "dft")

    def sr(shape, factor, scale=1.0):
        kernel = bilinear_kernel(factor, ndim=len(shape))
        op = DecimatedConvOperator(shape, kernel, factor)
        op = op if scale == 1.0 else ScaledOperator(op, scale)
        return op, sr_complement(op)

    return {
        "blur-1d": (blur_1d, toeplitz_complement(blur_1d)),
        "blur-2d": (blur_2d, toeplitz_complement(blur_2d)),
        "blur-2d-scaled": (ScaledOperator(blur_2d, 2.5), toeplitz_complement(blur_2d)),
        "sr-1d-f2": sr((48,), 2),
        "sr-1d-f3": sr((48,), 3),
        "sr-2d-f2": sr((16, 16), 2),
        "sr-2d-f3": sr((12, 18), 3),
        "sr-2d-f2-scaled": sr((16, 16), 2, 0.37),
        "dct": (dct, fourier_complement(dct)),
        "dft": (dft, fourier_complement(dft)),
        "dct-scaled": (ScaledOperator(dct, 0.37), fourier_complement(dct)),
    }


def _dense_normal_eigs(op, basis, gamma):
    H = op.to_dense()
    P = H.T @ H
    if basis is not None:
        P += gamma * basis.matrix.T @ basis.matrix
    return np.linalg.eigvalsh(P)


def _lanczos_lambda(op, basis, gamma):
    """lambda_max of H'H + gamma S'S by Lanczos on the pair, as lambda_max runs it."""
    pair = as_basis(basis).pair(op)
    return _lanczos_max(op.n, lambda v: pair.adjoint(*pair.forward(v), gamma))


def _counted(S, residuals, calls):
    """A basis of rows S whose residuals come from `residuals()`, each call counted."""
    def measure():
        calls.append(1)
        return residuals()
    return NullSpaceBasis(S, "counted", measure=measure)


@pytest.fixture
def lanczos_calls(monkeypatch):
    """A list that gets one entry per `diagnostics._lanczos_max` call."""
    calls = []
    monkeypatch.setattr(diagnostics, "_lanczos_max",
                        lambda *a: calls.append(1) or _lanczos_max(*a))
    return calls


class TestLambdaMaxProbe:
    """One probe ||S H'u|| / ||u|| rules out the Weyl test before residuals are read."""

    @pytest.mark.parametrize("gamma", [0.5, 3.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_exact_complement_reads_its_residuals(self, gamma, seed, lanczos_calls):
        # S H' vanishes to rounding, so the probe cannot rule the test out:
        # the residuals are read and pass, and the step is max(lambda(H'H), gamma),
        # from one Lanczos run, on H'H
        op = experiments.make_operator("cs", {"n": 60, "m": 12, "normalize": True}, seed)
        calls = []
        qr = qr_nullspace(op.to_dense(), 30, seed=seed)
        basis = _counted(qr.operator, lambda: (qr.ortho_to_H_residual, qr.row_gram_residual),
                         calls)
        lam = lambda_max(op, basis, gamma)
        assert calls == [1]
        assert lanczos_calls == [1]
        assert lam == max(lambda_max(op), gamma)

    @pytest.mark.parametrize("gamma", [0.5, 3.0])
    def test_exact_complement_matches_lanczos_on_the_pair(self, gamma, lanczos_calls):
        # a CS pair that used to take two Lanczos runs: the step is the one
        # the pair's own Lanczos run passed the Weyl test with, from one run
        op = experiments.make_operator("cs", {"n": 1024, "m": 256, "normalize": True}, 3)
        basis = qr_nullspace(op.to_dense(), 512, seed=3)
        lam = lambda_max(op, basis, gamma)
        assert lanczos_calls == [1]
        assert lam == max(lambda_max(op), gamma)
        pair = _lanczos_lambda(op, basis, gamma)
        weyl = 2.0 * np.sqrt(gamma) * basis.ortho_to_H_residual + gamma * basis.row_gram_residual
        assert weyl <= 1e-13 * pair
        assert lam == pytest.approx(pair, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("gamma", [0.3, 3.0])
    def test_bench_ct_reads_no_residuals(self, gamma, monkeypatch, lanczos_calls):
        # the Radon complement fails the Weyl test by about 13 orders of
        # magnitude; the probe says so before the residuals are measured
        calls = []
        real = nullspace._residuals
        monkeypatch.setattr(nullspace, "_residuals",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        path = Path(__file__).resolve().parents[1] / "bench" / "configs" / "ct-admm-sweep.yaml"
        cfg = experiments.load_config(path)
        cfg["solver"]["gamma"] = gamma
        pb = build_problem(cfg, seed=4)
        op, basis = pb["op"], pb["basis"]
        lam = lambda_max(op, basis, gamma)
        assert calls == []
        assert lanczos_calls == [1]
        assert lam == _lanczos_lambda(op, basis, gamma)
        # pnp_admm never steps by alpha: the build leaves auto unresolved,
        # and the theory report takes it from the spectrum of P it forms
        assert pb["solver_config"].alpha is None

    @pytest.mark.parametrize("name", ["ct", "qr"])
    def test_plain_matrix_takes_lanczos(self, name, lanczos_calls):
        # a plain matrix has nan residuals: Lanczos whether or not the probe fires
        H, S = _dense_pair(name)
        op = DenseOperator(H)
        assert lambda_max(op, S, 1.5) == _lanczos_lambda(op, S, 1.5)
        assert lanczos_calls == [1]

    @pytest.mark.parametrize("name", ["ct", "qr"])
    def test_gamma_zero_reads_residuals(self, name, lanczos_calls):
        # at gamma = 0 the probe's bound is zero: finite residuals pass the
        # test and the step is that of H'H alone, from one Lanczos run
        H, S = _dense_pair(name)
        op = DenseOperator(H)
        calls = []
        basis = _counted(S, lambda: nullspace._residuals(S, H_dense=H), calls)
        lam = lambda_max(op, basis, 0.0)
        assert calls == [1]
        assert lanczos_calls == [1]
        assert lam == lambda_max(op)


class TestNormalSpectrum:
    @pytest.mark.parametrize("case", sorted(_spectrum_cases()))
    @pytest.mark.parametrize("gamma", [0.0, 0.1, 1.0, 30.0])
    def test_matches_dense_eigvalsh(self, case, gamma):
        op, basis = _spectrum_cases()[case]
        eig = np.sort(normal_spectrum(op, basis, gamma))
        dense = _dense_normal_eigs(op, basis, gamma)
        assert eig.shape == (op.n,)
        assert np.max(np.abs(eig - dense)) <= 1e-12 * dense[-1]

    @pytest.mark.parametrize("case", sorted(_spectrum_cases()))
    def test_operator_alone(self, case):
        op, _ = _spectrum_cases()[case]
        dense = _dense_normal_eigs(op, None, 0.0)
        assert np.max(np.abs(np.sort(normal_spectrum(op)) - dense)) <= 1e-12 * dense[-1]

    def test_unstructured_pairs_give_none(self):
        blur, toeplitz = _spectrum_cases()["blur-2d"]
        dct, fourier = _spectrum_cases()["dct"]
        radon = RadonOperator(8, [0.0, 90.0])
        cs = DenseOperator(np.random.default_rng(1).standard_normal((10, 36)))
        assert normal_spectrum(radon) is None
        assert normal_spectrum(cs, qr_nullspace(cs.matrix, 20, seed=0), 1.0) is None
        # a dense, a rescaled, or another transform's basis on a structured H
        dense = NullSpaceBasis(toeplitz.matrix, "learned", 0.0, 0.0)
        assert normal_spectrum(blur, dense, 0.0) is None
        assert normal_spectrum(dct, fourier.scaled(0.5), 1.0) is None
        blur_8 = CirculantConvOperator((8, 8), gaussian_kernel(1.0, ndim=2), "center")
        assert normal_spectrum(dct, toeplitz_complement(blur_8), 1.0) is None
        sr_op, _ = _spectrum_cases()["sr-2d-f2"]
        assert normal_spectrum(sr_op, fourier, 1.0) is None

    @pytest.mark.parametrize("case", ["blur-1d", "blur-2d-scaled", "sr-2d-f3",
                                      "sr-2d-f2-scaled", "dct", "dft", "dct-scaled"])
    @pytest.mark.parametrize("gamma", [0.1, 1.0, 30.0])
    @pytest.mark.parametrize("alpha", [0.02, 0.2, 0.9])
    def test_spectral_rho_matches_dense(self, case, gamma, alpha):
        op, basis = _spectrum_cases()[case]
        spectral = compute_rho(0.1, alpha, op, basis, gamma, 0.2)
        dense = _dense_rho(0.1, alpha, op, basis, gamma, 0.2)
        for field in ("rho", "rho_squared_form", "gradient_op_norm", "s_spectral_norm"):
            assert getattr(spectral, field) == pytest.approx(getattr(dense, field),
                                                             rel=1e-12, abs=0.0)

    def test_spectral_rho_rejects_unstructured_pair(self):
        # a rescaled basis has no structural spectrum, so the rate is the dense one
        op, basis = _spectrum_cases()["blur-2d"]
        scaled = basis.scaled(0.5)
        assert normal_spectrum(op, scaled, 1.0) is None
        assert vars(compute_rho(0.0, 1.0, op, scaled, 1.0, 0.0)) == _old_dense_rho(
            0.0, 1.0, op.to_dense(), scaled.matrix, 0.0, 1.0)

    @pytest.mark.parametrize("case", sorted(_spectrum_cases()))
    def test_rho_bit_identical_to_spectral_formula(self, case):
        op, basis = _spectrum_cases()[case]
        for gamma in (0.1, 1.0, 30.0):
            for alpha in (0.02, 0.9):
                assert vars(compute_rho(0.1, alpha, op, basis, gamma, 0.2)) == \
                    _old_spectral_rho(0.1, alpha, op, basis, gamma, 0.2)

    @pytest.mark.parametrize("name", sorted(_approximate_configs()))
    def test_rho_bit_identical_to_dense_formula(self, name):
        pb = build_problem(_approximate_configs()[name])
        op, basis, alpha = pb["op"], pb["basis"], pb["solver_config"].alpha
        assert normal_spectrum(op, basis, 1.0) is None
        for gamma in (0.5, 3.0):
            rho = vars(compute_rho(0.1, alpha, op, basis, gamma, 0.2))
            assert rho == _dense_formula_rho(0.1, alpha, op.to_dense(), basis.matrix,
                                             0.2, gamma)
            # taking gamma out of the eigenvalue problem moves only rounding
            old = _old_dense_rho(0.1, alpha, op.to_dense(), basis.matrix, 0.2, gamma)
            assert rho["gradient_op_norm"] == old["gradient_op_norm"]
            for field, value in old.items():
                assert rho[field] == pytest.approx(value, rel=1e-12, abs=0.0)


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
        iterates, observer = collector()
        _, trace = solve_pnp_fista(op, y, Identity(), config, basis,
                                   lambda yy: prior.predict(yy, x_star), observer=observer)
        pairs = iterate_cloud_pairs(iterates, x_star)
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
        basis = toeplitz_complement(op)
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
