"""Null-space basis construction: membership, orthonormality, complements, reports."""

import tracemalloc

import numpy as np
import pytest
import scipy.fft

from nullprior import experiments, nullspace
from nullprior.denoisers import GaussianSmooth
from nullprior.errors import (
    DimensionMismatchError,
    EmptyComplementError,
    InfeasibleDimensionError,
    NullPriorError,
    RankDeficientError,
    SizeCapError,
)
from nullprior.nullspace import (
    NullSpaceBasis,
    fourier_complement,
    load_basis,
    orthogonality_report,
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
    MaskedFrequencyOperator,
    RadonOperator,
    ScaledOperator,
    all_representatives,
    bilinear_kernel,
    dft_real_rows,
    embed_kernel,
    gaussian_kernel,
    lowpass_mask,
    random_mask,
)
from nullprior.phantoms import bumps
from nullprior.priors import TwoLayerNet, train_joint
from nullprior.solvers import SolverConfig, default_alpha, solve_pnp_fista


class TestQrNullspace:
    def test_axis_aligned(self):
        basis = qr_nullspace(np.array([[1.0, 0.0, 0.0]]), p=2, seed=0)
        assert basis.matrix.shape == (2, 3)
        np.testing.assert_allclose(basis.matrix @ np.array([[1.0, 0.0, 0.0]]).T, 0.0, atol=1e-12)
        np.testing.assert_allclose(basis.matrix @ basis.matrix.T, np.eye(2), atol=1e-12)
        # rows live in span{e2, e3}
        assert np.allclose(basis.matrix[:, 0], 0.0, atol=1e-12)

    def test_empty_nullspace_rejected(self):
        with pytest.raises(InfeasibleDimensionError):
            qr_nullspace(np.eye(3), p=1)

    def test_residuals_small(self):
        rng = np.random.default_rng(7)
        H = rng.standard_normal((4, 10))
        basis = qr_nullspace(H, p=3, seed=7)
        assert np.linalg.norm(basis.matrix @ H.T) < 1e-10
        assert np.linalg.norm(basis.matrix @ basis.matrix.T - np.eye(3)) < 1e-10
        assert basis.ortho_to_H_residual < 1e-10
        assert basis.row_gram_residual < 1e-10

    def test_rank_deficient_names_rank(self):
        H = np.ones((3, 6))
        with pytest.raises(RankDeficientError, match="rank 1"):
            qr_nullspace(H, p=1)

    def test_seed_determinism_and_diversity(self):
        rng = np.random.default_rng(3)
        H = rng.standard_normal((5, 20))
        a = qr_nullspace(H, p=4, seed=11)
        b = qr_nullspace(H, p=4, seed=11)
        np.testing.assert_array_equal(a.matrix, b.matrix)
        c = qr_nullspace(H, p=4, seed=12)
        assert np.linalg.norm(a.matrix - c.matrix) > 0
        assert c.ortho_to_H_residual < 1e-10

    def test_rows_in_nullspace_membership(self):
        rng = np.random.default_rng(1)
        H = rng.standard_normal((6, 24))
        basis = qr_nullspace(H, p=10, seed=4)
        for row in basis.matrix:
            assert np.linalg.norm(H @ row) <= 1e-9 * np.linalg.norm(row)


class TestFourierComplement:
    def test_1d_dct_complement_rows(self):
        op = MaskedFrequencyOperator(4, [0, 1], "dct")
        basis = fourier_complement(op)
        assert basis.p == 2
        assert np.linalg.norm(basis.matrix @ op.to_dense().T) < 1e-12
        # complement rows are exactly DCT rows 2 and 3
        full = MaskedFrequencyOperator(4, range(4), "dct").to_dense()
        np.testing.assert_allclose(basis.matrix, full[2:], atol=1e-12)

    def test_all_but_one(self):
        op = MaskedFrequencyOperator(8, range(7), "dct")
        assert fourier_complement(op).p == 1

    def test_2d_mask_16_of_64(self):
        kept = random_mask((8, 8), 16, seed=5)
        op = MaskedFrequencyOperator((8, 8), kept, "dct")
        basis = fourier_complement(op)
        assert basis.p == 48
        assert basis.ortho_to_H_residual < 1e-10
        assert basis.row_gram_residual < 1e-10

    def test_dft_complement_counts_stacked_rows(self):
        kept = random_mask((6, 6), 8, seed=2, transform="dft")
        op = MaskedFrequencyOperator((6, 6), kept, "dft")
        basis = fourier_complement(op)
        assert basis.p + op.m_eff == op.n
        assert basis.ortho_to_H_residual < 1e-10
        assert basis.row_gram_residual < 1e-10

    def test_full_mask_rejected(self):
        op = MaskedFrequencyOperator(4, range(4), "dct")
        with pytest.raises(EmptyComplementError):
            fourier_complement(op)


class TestRadonComplement:
    def test_set_complement(self):
        basis = radon_complement(RadonOperator(8, [0.0]), [0.0, 90.0])
        ref = RadonOperator(8, [90.0]).to_dense()
        np.testing.assert_allclose(basis.matrix, ref, atol=1e-12)

    def test_angle_counts(self):
        full = [float(a) for a in range(0, 180, 12)]  # 15 angles
        acquired = full[:5]
        basis = radon_complement(RadonOperator(8, acquired), full)
        assert basis.p == 10 * 8

    def test_sixty_of_180_views(self):
        # 180 angles spaced 1 degree, 60 acquired: 120 x detector_count rows
        full = [float(a) for a in range(180)]
        basis = radon_complement(RadonOperator(8, full[:60]), full)
        assert basis.p == 120 * 8

    def test_residuals_measured_on_first_read(self, monkeypatch):
        calls = []
        real = nullspace._residuals

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(nullspace, "_residuals", spy)
        op = RadonOperator(8, [0.0, 45.0])
        basis = radon_complement(op, [0.0, 45.0, 90.0, 135.0])
        assert calls == []
        residuals = (basis.ortho_to_H_residual, basis.row_gram_residual)
        assert residuals == real(basis.matrix, op=op)
        assert len(calls) == 1

    def test_missing_angle_operator_builds_no_transpose(self, monkeypatch):
        # the complement only densifies its operator, so no adjoint's
        # transpose is ever built for it
        densified = []
        real = RadonOperator.to_dense

        def spy(self):
            densified.append(self)
            return real(self)

        monkeypatch.setattr(RadonOperator, "to_dense", spy)
        op = RadonOperator(16, [0.0, 45.0])
        basis = radon_complement(op, [0.0, 45.0, 90.0, 135.0])
        basis.ortho_to_H_residual
        assert [S_op.angles_deg for S_op in densified] == [(90.0, 135.0)]
        assert "_At" not in vars(densified[0])

    def test_residual_reported_nonzero(self):
        basis = radon_complement(RadonOperator(8, [0.0]), [0.0, 90.0])
        assert basis.ortho_to_H_residual > 0.0

    @pytest.mark.parametrize("side,count,acquired", [(8, 15, 5), (16, 30, 10)])
    def test_residuals_match_row_loop(self, side, count, acquired):
        # the row-by-row forward and explicit identity the residuals used
        # before they were summed over blocks of rows
        full = [180.0 * k / count for k in range(count)]
        op = RadonOperator(side, full[:acquired])
        basis = radon_complement(op, full)
        S = basis.matrix
        ortho = np.linalg.norm(np.array([op.forward(row) for row in S]))
        gram = np.linalg.norm(S @ S.T - np.eye(S.shape[0]))
        assert basis.row_gram_residual == pytest.approx(gram, rel=1e-12, abs=0.0)
        assert basis.ortho_to_H_residual == pytest.approx(ortho, rel=1e-14, abs=0.0)

    def test_empty(self):
        with pytest.raises(EmptyComplementError):
            radon_complement(RadonOperator(8, [0.0]), [0.0])

    def test_cap_checked_before_the_missing_angles_are_built(self, monkeypatch):
        # past the cap the missing-angle operator was built (865 MB RSS at
        # side 256) before its densification raised
        op = RadonOperator(65, [0.0])  # n = 4225 > 4096

        def build(*args):
            raise AssertionError("built the missing-angle operator")

        monkeypatch.setattr(RadonOperator, "__init__", build)
        with pytest.raises(SizeCapError, match="dense cap"):
            radon_complement(op, [0.0, 45.0, 90.0, 135.0])

    def test_acquired_angles_must_be_in_full_set(self):
        with pytest.raises(NullPriorError, match="subset"):
            radon_complement(RadonOperator(8, [0.0, 30.0]), [0.0, 90.0])

    def test_scaled_operator_gives_the_unscaled_complement(self):
        full = [180.0 * k / 12 for k in range(12)]
        op = RadonOperator(8, full[:4])
        ref = radon_complement(op, full)
        basis = radon_complement(ScaledOperator(op, 3.0), full)
        assert same_bits(basis.matrix, ref.matrix)
        assert (basis.ortho_to_H_residual, basis.row_gram_residual) == \
            (ref.ortho_to_H_residual, ref.row_gram_residual)


def _dense_residuals(S, H):
    return (np.linalg.norm(S @ H.T), np.linalg.norm(S @ S.T - np.eye(S.shape[0])))


def _dense_basis_case(name):
    """(basis, H) from each construction that records residuals of dense rows.

    Every p exceeds one block of rows, so the sums cross block boundaries.
    """
    rng = np.random.default_rng(11)
    if name == "radon":
        full = [180.0 * k / 30 for k in range(30)]
        op = RadonOperator(16, full[:10])
        return radon_complement(op, full), op.to_dense()
    H = rng.standard_normal((20, 200)) / np.sqrt(200)
    if name == "qr":
        return qr_nullspace(H, p=150, seed=3), H
    S0 = rng.standard_normal((150, 200)) / np.sqrt(200)
    xs = rng.standard_normal((30, 200))
    lam = {"learned-fixed": 0.0, "learned": 0.01}[name]
    _, basis, _ = train_joint(TwoLayerNet(20, 150, hidden=8, seed=1), S0, xs, H,
                              lam1=lam, lam2=lam, epochs=3, lr=1e-3, seed=2)
    return basis, H


class TestBlockedResiduals:
    @pytest.mark.parametrize("name", ["radon", "qr", "learned-fixed", "learned"])
    def test_constructions_match_dense_formulas(self, name):
        basis, H = _dense_basis_case(name)
        assert basis.p > nullspace._RESIDUAL_ROWS
        ortho, gram = _dense_residuals(basis.matrix, H)
        # a QR basis has residuals of rounding size (~1e-14), which agree
        # only absolutely
        assert basis.ortho_to_H_residual == pytest.approx(ortho, rel=1e-12, abs=1e-12)
        assert basis.row_gram_residual == pytest.approx(gram, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("name", ["radon", "qr", "learned"])
    def test_scaled_gram_matches_dense_formula(self, name):
        basis, H = _dense_basis_case(name)
        scaled = basis.scaled(0.7)
        _, gram = _dense_residuals(scaled.matrix, H)
        assert scaled.row_gram_residual == pytest.approx(gram, rel=1e-12, abs=1e-12)
        assert np.isnan(nullspace._residuals(scaled.matrix)[0])

    def test_operator_and_dense_h_agree(self):
        basis, H = _dense_basis_case("radon")
        full = [180.0 * k / 30 for k in range(30)]
        by_op = nullspace._residuals(basis.matrix, op=RadonOperator(16, full[:10]))
        by_dense = nullspace._residuals(basis.matrix, H_dense=H)
        assert by_op == pytest.approx(by_dense, rel=1e-13, abs=0.0)

    def test_memory_on_benchmark_ct_pair(self):
        # the ct-admm-sweep pair: side 32, 20 of 60 angles acquired, p = 1280,
        # m = 640; the whole-matrix form held a 1280 x 1280 gram and S H'
        full = [180.0 * k / 60 for k in range(60)]
        op = RadonOperator(32, full[:20])
        S = radon_complement(op, full).matrix
        assert S.shape == (1280, 1024)
        tracemalloc.start()
        try:
            nullspace._residuals(S, op=op)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4e6


class TestCirculantComplements:
    def test_frequency_response_is_one_minus_kernel(self):
        # DFT of S's generating row equals 1 - DFT(kernel) at every bin
        n = 64
        kernel = gaussian_kernel(2.0, ndim=1)
        basis = toeplitz_complement(CirculantConvOperator(n, kernel, "center"))
        gen = basis.matrix[0]  # row 0 = correlation taps at offsets j: gen[j]
        resp_s = np.fft.fft(gen)
        resp_h = np.fft.fft(embed_kernel(kernel, n, anchor="center"))
        np.testing.assert_allclose(resp_s, 1.0 - resp_h, atol=1e-10)

    def test_identity_kernel_gives_zero_complement(self):
        basis = toeplitz_complement(CirculantConvOperator(8, np.array([1.0]), "start"))
        np.testing.assert_allclose(basis.matrix, 0.0, atol=1e-12)
        assert basis.row_gram_residual == pytest.approx(np.sqrt(8), rel=1e-12, abs=0)

    def test_sr_built_from_kernel_alone(self):
        kernel = bilinear_kernel(4, ndim=1)
        basis = sr_complement(DecimatedConvOperator(32, kernel, 4))
        ref = toeplitz_complement(CirculantConvOperator(32, kernel, "center"))
        np.testing.assert_allclose(basis.matrix, ref.matrix, atol=1e-12)
        assert basis.method == "sr-complement"
        assert basis.p == 32

    def test_kernel_validation(self):
        with pytest.raises(NullPriorError, match="nonnegative"):
            toeplitz_complement(CirculantConvOperator(8, np.array([0.5, -0.5, 1.0])))
        with pytest.raises(NullPriorError, match="sum to 1"):
            toeplitz_complement(CirculantConvOperator(8, np.array([0.5, 0.6])))

    # a kernel with no symmetry, so the two anchors give different operators
    SKEWED = {1: np.array([0.5, 0.3, 0.15, 0.05]),
              2: np.outer([0.6, 0.3, 0.1], [0.2, 0.5, 0.3])}

    @pytest.mark.parametrize("anchor", ["start", "center"])
    @pytest.mark.parametrize("shape", [(12,), (6, 8)])
    def test_complement_of_the_operators_own_kernel(self, shape, anchor):
        op = CirculantConvOperator(shape, self.SKEWED[len(shape)], anchor)
        basis = toeplitz_complement(op)
        gen = -op.kernel_full
        gen.reshape(-1)[0] += 1.0
        # S is the correlation with delta - K on the operator's own grid, bit for bit
        assert same_bits(basis.operator.kernel_full, gen)
        assert same_bits(basis.operator.response, scipy.fft.fftn(gen))
        # so its response is 1 - K to rounding: the transform of delta - K
        # and 1 minus the transform of K differ in the last bits
        assert np.max(np.abs(basis.operator.response - (1.0 - op.response))) <= 4 * np.finfo(float).eps
        # and S + H = I as matrices, whatever the anchor
        np.testing.assert_allclose(basis.matrix + op.to_dense(), np.eye(op.n), rtol=0, atol=1e-15)
        ortho, gram = nullspace._residuals(basis.matrix, H_dense=op.to_dense())
        assert basis.ortho_to_H_residual == pytest.approx(ortho, rel=1e-12, abs=0)
        assert basis.row_gram_residual == pytest.approx(gram, rel=1e-12, abs=0)

    @pytest.mark.parametrize("kind", ["toeplitz", "sr"])
    def test_scaled_operator_gives_the_unscaled_complement(self, kind):
        if kind == "toeplitz":
            op = CirculantConvOperator((8, 8), self.SKEWED[2], "center")
            build = toeplitz_complement
        else:
            op = DecimatedConvOperator((8, 8), bilinear_kernel(2, ndim=2), 2)
            build = sr_complement
        ref, scaled = build(op), build(ScaledOperator(op, 2.5))
        assert same_bits(scaled.operator.response, ref.operator.response)
        assert (scaled.ortho_to_H_residual, scaled.row_gram_residual) == \
            (ref.ortho_to_H_residual, ref.row_gram_residual)

    def test_wrong_operator_type_rejected(self):
        blur = CirculantConvOperator(16, bilinear_kernel(2), "center")
        decimated = DecimatedConvOperator(16, bilinear_kernel(2), 2)
        mask = MaskedFrequencyOperator(16, range(8), "dct")
        for build, op in [(toeplitz_complement, decimated), (toeplitz_complement, mask),
                          (sr_complement, blur), (sr_complement, ScaledOperator(blur, 2.0)),
                          (fourier_complement, blur)]:
            with pytest.raises(NullPriorError, match="requires"):
                build(op)
        with pytest.raises(NullPriorError, match="requires a RadonOperator"):
            radon_complement(blur, [0.0, 90.0])


class TestOrthogonalityReport:
    def test_complete_orthonormal_system(self):
        rng = np.random.default_rng(0)
        H = np.linalg.qr(rng.standard_normal((10, 4)))[0].T  # 4x10 orthonormal rows
        basis = qr_nullspace(H, p=6, seed=1)
        samples = rng.standard_normal((20, 10))
        rep = orthogonality_report(basis, H, samples)
        assert rep.rank_of_stack == 10
        assert rep.invertibility_loss < 1e-18
        assert rep.ortho_residual < 1e-10

    def test_degenerate_duplicate(self):
        rng = np.random.default_rng(4)
        H = rng.standard_normal((3, 8))
        rep = orthogonality_report(H, H, rng.standard_normal((5, 8)))
        assert rep.rank_of_stack == 3
        assert rep.ortho_residual == pytest.approx(np.linalg.norm(H @ H.T), rel=1e-12, abs=0)

    def test_loss_matches_svd_projector_oracle(self):
        rng = np.random.default_rng(7)
        H = rng.standard_normal((4, 10))
        basis = qr_nullspace(H, p=3, seed=7)
        A = np.vstack([H, basis.matrix])
        # independent oracle: projector from the SVD row space
        _, svals, Vt = np.linalg.svd(A, full_matrices=False)
        V = Vt[svals > 1e-10 * svals[0]]
        samples = rng.standard_normal((50, 10))
        outside = samples - samples @ V.T @ V
        expected = np.mean(np.sum(outside ** 2, axis=1))
        rep = orthogonality_report(basis, H, samples)
        assert rep.invertibility_loss == pytest.approx(expected, rel=1e-10, abs=0)

    def test_full_qr_complement_invertibility(self):
        rng = np.random.default_rng(9)
        H = rng.standard_normal((4, 12))
        basis = qr_nullspace(H, p=8, seed=2)
        samples = rng.standard_normal((30, 12))
        rep = orthogonality_report(basis, H, samples)
        assert rep.rank_of_stack == 12
        assert rep.invertibility_loss <= 1e-18


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        H = rng.standard_normal((3, 9))
        basis = qr_nullspace(H, p=4, seed=5)
        path = tmp_path / "basis.csv"
        save_basis(basis, path)
        loaded = load_basis(path)
        assert loaded.method == basis.method
        np.testing.assert_allclose(loaded.matrix, basis.matrix, atol=1e-15)
        assert loaded.ortho_to_H_residual == pytest.approx(basis.ortho_to_H_residual)


class TestScaled:
    def test_scaled_basis_norm(self):
        rng = np.random.default_rng(8)
        H = rng.standard_normal((4, 10))
        basis = qr_nullspace(H, p=3, seed=0).scaled(0.1)
        assert basis.method.endswith("-scaled")
        svals = np.linalg.svd(basis.matrix, compute_uv=False)
        assert svals[0] == pytest.approx(0.1, abs=1e-12)

    @pytest.mark.parametrize("kind", ["dct", "dft", "blur", "sr", "radon", "cs"])
    def test_wraps_the_operator_and_measures_residuals_on_first_read(self, kind, monkeypatch):
        _, basis = _scaled_case(kind)
        c = -0.7
        expected = (abs(c) * basis.ortho_to_H_residual,
                    nullspace._residuals(c * basis.matrix)[1])
        calls = []
        real = nullspace._residuals
        monkeypatch.setattr(nullspace, "_residuals",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        scaled = basis.scaled(c)
        assert isinstance(scaled.operator, ScaledOperator)
        assert scaled.operator.base is basis.operator
        assert calls == [] and "row_gram_residual" not in vars(scaled)
        assert (scaled.ortho_to_H_residual, scaled.row_gram_residual) == expected
        assert calls == [1]
        assert same_bits(scaled.matrix, c * basis.matrix)

    @pytest.mark.parametrize("kind", ["dct", "dft", "blur", "sr"])
    def test_pnp_fista_trace_matches_dense_pair(self, kind):
        # a scaled structured basis solves as its dense rows do, to rounding
        op, basis = _scaled_case(kind)
        scaled = basis.scaled(0.5)
        x_star = bumps(16, 4, seed=3).reshape(-1)
        rng = np.random.default_rng(4)
        y = op.forward(x_star) + 0.01 * rng.standard_normal(op.m_eff)
        g = scaled.project(x_star) + 1e-3 * rng.standard_normal(scaled.p)
        config = SolverConfig(alpha=default_alpha(op, scaled, gamma=1.0), gamma=1.0,
                              iters=40, x_star=x_star)
        denoiser = GaussianSmooth(0.5)
        dense_op = DenseOperator(op.to_dense())
        dense_op.shape_in = op.shape_in  # so the denoiser smooths the image
        _, fast = solve_pnp_fista(op, y, denoiser, config, scaled, lambda yy: g)
        _, dense = solve_pnp_fista(dense_op, y, denoiser, config, scaled.matrix, lambda yy: g)
        for col in ("err_sq", "proj_err_sq", "phi", "data_res_sq", "psnr", "ratio", "step_sq"):
            a, b = getattr(fast, col), getattr(dense, col)
            np.testing.assert_array_equal(np.isnan(a), np.isnan(b))
            ok = ~np.isnan(b)
            assert np.max(np.abs(a[ok] - b[ok])) <= 1e-12 * np.max(np.abs(b[ok])), col


def _scaled_case(kind):
    """An operator and a basis to scale: a 16 x 16 Fourier complement, or a `fallback_case`."""
    if kind in ("dct", "dft"):
        op, _, _ = complement_case((16, 16), kind, 1.0)
        return op, fourier_complement(op)
    return fallback_case(kind)


# ---------------------------------------------------------------------------
# operator-backed Fourier complements against the dense reference rows
# ---------------------------------------------------------------------------

def dense_transform_rows(shape, transform, indices):
    """Reference rows: inverse DCTs of unit coefficients, or `dft_real_rows`."""
    if transform == "dft":
        return dft_real_rows(shape, indices)
    rows = []
    for k in indices:
        coef = np.zeros(int(np.prod(shape)))
        coef[k] = 1.0
        rows.append(scipy.fft.idctn(coef.reshape(shape), type=2, norm="ortho").reshape(-1))
    return np.array(rows)


def complement_case(shape, transform, scale):
    pool = (range(int(np.prod(shape))) if transform == "dct"
            else all_representatives(shape))
    kept = lowpass_mask(shape, max(1, len(pool) // 4), transform)
    base = MaskedFrequencyOperator(shape, kept, transform)
    op = base if scale == 1.0 else ScaledOperator(base, scale)
    missing = sorted(set(pool) - set(base.kept))
    S_ref = dense_transform_rows(shape, transform, missing)
    H_ref = dense_transform_rows(shape, transform, base.kept)
    return op, S_ref, H_ref


COMPLEMENT_CASES = [(shape, transform, 1.0) for shape in [(8, 8), (15, 16), (9,)]
                    for transform in ["dct", "dft"]] + [((8, 8), "dct", 0.3),
                                                        ((15, 16), "dft", 2.0)]


class TestFourierComplementOperator:
    @pytest.mark.parametrize("shape,transform,scale", COMPLEMENT_CASES)
    def test_matches_dense_rows(self, shape, transform, scale):
        op, S_ref, _ = complement_case(shape, transform, scale)
        basis = fourier_complement(op)
        assert isinstance(basis.operator, MaskedFrequencyOperator)
        assert (basis.p, basis.n) == S_ref.shape
        np.testing.assert_allclose(basis.matrix, S_ref, rtol=0, atol=1e-13)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(basis.n)
        c = rng.standard_normal(basis.p)
        np.testing.assert_allclose(basis.project(x), S_ref @ x, rtol=0, atol=1e-13)
        np.testing.assert_allclose(basis.backproject(c), S_ref.T @ c, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("shape,transform,scale", COMPLEMENT_CASES)
    def test_complements_the_kept_rows(self, shape, transform, scale):
        op, _, H_ref = complement_case(shape, transform, scale)
        S = fourier_complement(op).matrix
        err = S.T @ S + H_ref.T @ H_ref - np.eye(S.shape[1])
        assert np.linalg.norm(err) <= 1e-12

    @pytest.mark.parametrize("shape,transform,scale", COMPLEMENT_CASES)
    def test_residuals_match_dense_formulas(self, shape, transform, scale):
        op, S_ref, H_ref = complement_case(shape, transform, scale)
        basis = fourier_complement(op)
        ortho = np.linalg.norm(S_ref @ H_ref.T)
        gram = np.linalg.norm(S_ref @ S_ref.T - np.eye(len(S_ref)))
        assert abs(basis.ortho_to_H_residual - ortho) <= 1e-13
        assert abs(basis.row_gram_residual - gram) <= 1e-13

    @pytest.mark.parametrize("shape,transform,scale", COMPLEMENT_CASES)
    def test_residuals_bound_unit_vector_values(self, shape, transform, scale):
        # the exact Frobenius norms of the computed maps z -> H S'z and
        # z -> S S'z - z, one unit vector at a time; the dense formulas on
        # the reference rows carry their own rounding, up to 10x larger
        op, _, _ = complement_case(shape, transform, scale)
        basis = fourier_complement(op)
        S_op, H_op = basis.operator, getattr(op, "base", op)
        E = np.eye(basis.p)
        spec = S_op._spectrum(S_op._apply_adjoint(E))
        assert basis.ortho_to_H_residual >= np.linalg.norm(H_op._gather(spec))
        assert basis.row_gram_residual >= np.linalg.norm(S_op._gather(spec) - E)

    def test_bounds_residuals_above_roundoff(self):
        # the probe algebra on a generic S and H, held as dense operators
        rng = np.random.default_rng(3)
        S = rng.standard_normal((30, 50)) / np.sqrt(50)
        H = rng.standard_normal((10, 50)) / np.sqrt(50)
        ortho, gram = nullspace._probe_residuals(DenseOperator(S), DenseOperator(H))
        true_ortho = np.linalg.norm(S @ H.T)
        true_gram = np.linalg.norm(S @ S.T - np.eye(30))
        assert true_ortho <= ortho <= 2.5 * true_ortho
        assert true_gram <= gram <= 2.5 * true_gram

    def test_bound_on_unit_ortho_residual(self):
        # S also holds one kept frequency: S H' has a single entry 1
        shape = (8, 8)
        H_op = MaskedFrequencyOperator(shape, lowpass_mask(shape, 16), "dct")
        missing = sorted(set(range(64)) - set(H_op.kept))
        S_op = MaskedFrequencyOperator(shape, missing + [H_op.kept[3]], "dct")
        ortho, gram = nullspace._probe_residuals(S_op, H_op)
        assert 1.0 <= ortho <= 2.5
        assert gram < 1e-13

    @pytest.mark.parametrize("shape,count", [((8, 8), 16), ((64, 64), 1024)])
    def test_eight_round_trips_whatever_p(self, shape, count, monkeypatch):
        op = MaskedFrequencyOperator(shape, lowpass_mask(shape, count), "dct")
        calls = []
        spectrum = MaskedFrequencyOperator._spectrum

        def spy(self, x):
            calls.append(x.shape)
            return spectrum(self, x)

        monkeypatch.setattr(MaskedFrequencyOperator, "_spectrum", spy)
        basis = fourier_complement(op)
        assert basis.p == op.n - count  # 48 and 3072
        basis.row_gram_residual  # the residuals are measured on first read
        assert calls == [(16, basis.n)] * 8

    @pytest.mark.parametrize("transform", ["dct", "dft"])
    def test_probe_block_moves_only_rounding(self, transform, monkeypatch):
        # the blocks draw one seeded stream; only the order of the sums changes
        op, _, _ = complement_case((15, 16), transform, 1.0)
        S_op = fourier_complement(op).operator
        small = nullspace._probe_residuals(S_op, op)
        monkeypatch.setattr(nullspace, "_PROBE_BLOCK", nullspace.RESIDUAL_PROBES)
        whole = nullspace._probe_residuals(S_op, op)
        for a, b in zip(small, whole):
            assert a == pytest.approx(b, rel=1e-12, abs=0)

    def test_residuals_repeat_exactly(self):
        op, _, _ = complement_case((15, 16), "dft", 1.0)
        a, b = fourier_complement(op), fourier_complement(op)
        assert (a.ortho_to_H_residual, a.row_gram_residual) == \
            (b.ortho_to_H_residual, b.row_gram_residual)

    def test_residuals_measured_once_on_first_read(self, monkeypatch):
        op = MaskedFrequencyOperator((16, 16), lowpass_mask((16, 16), 64), "dct")
        calls = []
        real = nullspace._probe_residuals

        def spy(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(nullspace, "_probe_residuals", spy)
        basis = fourier_complement(op)
        assert calls == []
        residuals = (basis.ortho_to_H_residual, basis.row_gram_residual)
        assert len(calls) == 1
        assert residuals == real(basis.operator, op)

    def test_lazy_basis_reads_like_a_measured_one(self):
        op, _, _ = complement_case((8, 8), "dct", 0.3)
        lazy = fourier_complement(op)
        measured = NullSpaceBasis(lazy.operator, lazy.method,
                                  *nullspace._probe_residuals(lazy.operator, op.base))
        assert repr(lazy) == repr(measured)
        assert lazy == measured
        assert same_bits(lazy.scaled(0.5).matrix, measured.scaled(0.5).matrix)
        with pytest.raises(AttributeError):
            lazy.no_such_attribute

    def test_past_dense_cap_applies_without_densifying(self):
        op = MaskedFrequencyOperator((65, 64), lowpass_mask((65, 64), 1000), "dct")
        basis = fourier_complement(op)
        x = np.random.default_rng(2).standard_normal(op.n)
        # S'S + H'H = I: the two projections split the signal exactly
        split = basis.backproject(basis.project(x)) + op.adjoint(op.forward(x))
        np.testing.assert_allclose(split, x, rtol=0, atol=1e-12)
        with pytest.raises(SizeCapError):
            basis.matrix

    def test_16x16_mri_run_matches_dense_basis(self, tmp_path, monkeypatch):
        cfg = {
            "problem": "mri", "seed": 2,
            "operator": {"shape": [16, 16], "transform": "dct",
                         "mask": {"kind": "lowpass", "count": 64}},
            "signal": {"kind": "bumps", "count": 4},
            "basis": {"method": "fourier"},
            "prior": {"kind": "oracle", "error": {"kind": "gaussian", "eps": 1e-3}},
            "denoiser": {"kind": "gaussian", "sigma": 0.4},
            "solver": {"kind": "pnp_fista", "alpha": "auto", "gamma": 1.0, "iters": 60},
            "noise": {"snr_db": 20.0},
        }
        fast = experiments.run(cfg, out_dir=str(tmp_path / "op"))

        def dense_fourier(op):
            b = fourier_complement(op)
            return NullSpaceBasis(DenseOperator(b.matrix), b.method,
                                  b.ortho_to_H_residual, b.row_gram_residual)

        monkeypatch.setattr(experiments, "fourier_complement", dense_fourier)
        dense = experiments.run(cfg, out_dir=str(tmp_path / "dense"))
        for name in ("trace_baseline", "trace_npn"):
            a, b = fast[name], dense[name]
            for col in ("err_sq", "proj_err_sq", "phi", "data_res_sq", "psnr", "ratio"):
                np.testing.assert_allclose(getattr(a, col), getattr(b, col),
                                           rtol=1e-12, atol=0)
        assert fast["theory"].rho == pytest.approx(dense["theory"].rho, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# (H x, S x) and H'u + gamma S'w through one OperatorPair
# ---------------------------------------------------------------------------

def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


PAIR_CASES = [(shape, transform, scale) for shape in [(64, 64), (15, 16), (9,)]
              for transform in ["dct", "dft"] for scale in [1.0, 0.37]]


def fallback_case(kind):
    if kind == "blur":
        op = CirculantConvOperator((16, 16), gaussian_kernel(1.5, ndim=2), "center")
        return op, toeplitz_complement(op)
    if kind == "sr":
        op = ScaledOperator(DecimatedConvOperator((16, 16), bilinear_kernel(2, ndim=2), 2), 0.37)
        return op, sr_complement(op)
    if kind == "radon":
        full = np.linspace(0.0, 180.0, 12, endpoint=False)
        op = RadonOperator(8, full[:4])
        return op, radon_complement(op, full)
    H = np.random.default_rng(3).standard_normal((6, 24))
    return DenseOperator(H), qr_nullspace(H, p=10, seed=3)


class TestOperatorPair:
    @pytest.mark.parametrize("shape,transform,scale", PAIR_CASES)
    def test_shared_images_bit_equal_to_separate(self, shape, transform, scale):
        op, _, _ = complement_case(shape, transform, scale)
        basis = fourier_complement(op)
        pair = basis.pair(op)
        assert pair._shared is not None
        rng = np.random.default_rng(9)
        x = rng.standard_normal(op.n)
        h, s = pair.forward(x)
        assert same_bits(h, op.forward(x))
        assert same_bits(s, basis.project(x))

    @pytest.mark.parametrize("shape,transform,scale", PAIR_CASES)
    def test_shared_adjoint_matches_separate_sum(self, shape, transform, scale):
        op, _, _ = complement_case(shape, transform, scale)
        basis = fourier_complement(op)
        rng = np.random.default_rng(10)
        u, w = rng.standard_normal(op.m_eff), rng.standard_normal(basis.p)
        for gamma in (0.5, 3.0):
            ref = op.adjoint(u) + gamma * basis.backproject(w)
            got = basis.pair(op).adjoint(u, w, gamma)
            assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)

    @pytest.mark.parametrize("shape,transform,scale", PAIR_CASES)
    def test_scaled_basis_shares_the_transform(self, shape, transform, scale):
        op, _, _ = complement_case(shape, transform, scale)
        basis = fourier_complement(op).scaled(0.6)
        pair = basis.pair(op)
        assert pair._shared is not None
        rng = np.random.default_rng(13)
        x, u, w = (rng.standard_normal(k) for k in (op.n, op.m_eff, basis.p))
        h, s = pair.forward(x)
        assert same_bits(h, op.forward(x))
        assert same_bits(s, basis.project(x))
        ref = op.adjoint(u) + 2.0 * basis.backproject(w)
        assert np.linalg.norm(pair.adjoint(u, w, 2.0) - ref) <= 1e-14 * np.linalg.norm(ref)

    @pytest.mark.parametrize("kind", ["blur", "sr", "radon", "cs"])
    def test_other_pairs_apply_separately_bit_for_bit(self, kind):
        op, basis = fallback_case(kind)
        pair = basis.pair(op)
        assert pair._shared is None
        rng = np.random.default_rng(11)
        x, u, w = (rng.standard_normal(k) for k in (op.n, op.m_eff, basis.p))
        h, s = pair.forward(x)
        assert same_bits(h, op.forward(x))
        assert same_bits(s, basis.project(x))
        assert same_bits(pair.adjoint(u, w, 0.7),
                         op.adjoint(u) + 0.7 * basis.backproject(w))

    def test_masks_that_share_no_transform_apply_separately(self):
        op = MaskedFrequencyOperator((8, 8), [0, 1, 2, 9], "dct")
        others = {"overlap": MaskedFrequencyOperator((8, 8), [2, 3, 4], "dct"),
                  "transform": MaskedFrequencyOperator((8, 8), [3, 4, 5], "dft"),
                  "shape": MaskedFrequencyOperator((4, 16), [3, 4, 5], "dct")}
        rng = np.random.default_rng(12)
        x, u = rng.standard_normal(64), rng.standard_normal(op.m_eff)
        for S_op in others.values():
            basis = NullSpaceBasis(S_op, "given", float("nan"), float("nan"))
            pair = basis.pair(op)
            assert pair._shared is None
            w = rng.standard_normal(basis.p)
            assert same_bits(pair.forward(x)[1], basis.project(x))
            assert same_bits(pair.adjoint(u, w, 2.0), op.adjoint(u) + 2.0 * basis.backproject(w))
        # disjoint masks of one transform share it, whether or not they cover it
        basis = NullSpaceBasis(MaskedFrequencyOperator((8, 8), [3, 4, 5], "dct"), "given",
                               float("nan"), float("nan"))
        assert basis.pair(op)._shared is not None

    def test_inputs_are_checked(self):
        op, _, _ = complement_case((8, 8), "dct", 1.0)
        pair = fourier_complement(op).pair(op)
        with pytest.raises(DimensionMismatchError):
            pair.forward(np.zeros(63))
        with pytest.raises(DimensionMismatchError):
            pair.adjoint(np.zeros(op.m_eff), np.zeros(3), 1.0)


class TestDenseBackedBases:
    def test_apply_is_the_dense_product(self):
        basis = radon_complement(RadonOperator(8, [0.0, 90.0]), [0.0, 45.0, 90.0, 135.0])
        assert isinstance(basis.operator, DenseOperator)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(basis.n)
        c = rng.standard_normal(basis.p)
        assert basis.project(x).tobytes() == (basis.matrix @ x).tobytes()
        assert basis.backproject(c).tobytes() == (basis.matrix.T @ c).tobytes()

    def test_residuals_or_a_measure_required(self):
        with pytest.raises(TypeError, match="residuals"):
            NullSpaceBasis(np.eye(2), "given", 0.0)

    @pytest.mark.parametrize("kind", ["blur", "sr", "radon", "qr"])
    def test_norm_sq_is_the_top_eigenvalue_of_the_gram(self, kind):
        _, basis = fallback_case(kind)
        S = basis.matrix
        assert basis.norm_sq == pytest.approx(np.linalg.eigvalsh(S.T @ S)[-1],
                                              rel=1e-12, abs=1e-15)
        assert "norm_sq" in vars(basis)  # kept for the next read

    def test_plain_matrix_is_wrapped(self):
        S = np.arange(6.0).reshape(2, 3)
        basis = NullSpaceBasis(S, "learned", 0.0, 0.0)
        assert isinstance(basis.operator, DenseOperator)
        assert basis.matrix is basis.operator.matrix
        assert (basis.p, basis.n) == (2, 3)


# ---------------------------------------------------------------------------
# Toeplitz and SR complements as circulant operators against dense rows
# ---------------------------------------------------------------------------

def circulant_rows(gen):
    """Reference rows of the correlation S[i, i + j] = gen[j]: row i is gen rolled by i."""
    axes = tuple(range(gen.ndim))
    return np.array([np.roll(gen, idx, axis=axes).reshape(-1)
                     for idx in np.ndindex(gen.shape)])


def circulant_case(kind, shape, factor):
    shape = tuple(shape)
    if kind == "toeplitz":
        kernel = gaussian_kernel(1.5, ndim=len(shape))
        op = CirculantConvOperator(shape, kernel, "center")
        basis = toeplitz_complement(op)
    else:
        kernel = bilinear_kernel(factor, ndim=len(shape))
        op = DecimatedConvOperator(shape, kernel, factor)
        basis = sr_complement(op)
    gen = -embed_kernel(kernel, shape, "center")
    gen.reshape(-1)[0] += 1.0
    return basis, circulant_rows(gen), op.to_dense()


CIRCULANT_CASES = [("toeplitz", (48,), 1), ("toeplitz", (16, 16), 1),
                   ("toeplitz", (15, 16), 1), ("sr", (48,), 3), ("sr", (16, 16), 2),
                   ("sr", (12, 18), 3), ("sr", (16, 16), 4)]


class TestCirculantComplementOperators:
    @pytest.mark.parametrize("kind,shape,factor", CIRCULANT_CASES)
    def test_project_matches_dense_rows(self, kind, shape, factor):
        basis, S_ref, _ = circulant_case(kind, shape, factor)
        assert isinstance(basis.operator, CirculantConvOperator)
        assert (basis.p, basis.n) == S_ref.shape
        np.testing.assert_allclose(basis.matrix, S_ref, rtol=0, atol=1e-15)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(basis.n)
        c = rng.standard_normal(basis.p)
        np.testing.assert_allclose(basis.project(x), S_ref @ x, rtol=0, atol=1e-14)
        np.testing.assert_allclose(basis.backproject(c), S_ref.T @ c, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("kind,shape,factor", CIRCULANT_CASES)
    def test_residuals_match_dense_formulas(self, kind, shape, factor):
        basis, S_ref, H = circulant_case(kind, shape, factor)
        ortho, gram = nullspace._residuals(S_ref, H_dense=H)
        assert basis.ortho_to_H_residual == pytest.approx(ortho, rel=1e-12, abs=0)
        assert basis.row_gram_residual == pytest.approx(gram, rel=1e-12, abs=0)

    def test_sr_factor_must_be_positive(self):
        with pytest.raises(DimensionMismatchError):
            sr_complement(DecimatedConvOperator(16, bilinear_kernel(2), -2))

    def test_past_dense_cap(self):
        kernel = gaussian_kernel(1.5, ndim=2)
        H = CirculantConvOperator((128, 128), kernel, "center")
        basis = toeplitz_complement(H)
        x = np.random.default_rng(3).standard_normal(basis.n)
        # S + H' = I: the complement's response is 1 - K at every bin
        np.testing.assert_allclose(basis.project(x) + H.adjoint(x), x, rtol=0, atol=1e-12)
        with pytest.raises(SizeCapError):
            basis.matrix
