"""Operator correctness: adjoint pairing, densification, linearity, factories."""

import platform

import numpy as np
import pytest
import scipy.fft

from nullprior import make_operator, operators
from nullprior.nullspace import fourier_complement
from nullprior.errors import DimensionMismatchError, NullPriorError, SizeCapError
from nullprior.operators import (
    CirculantConvOperator,
    DecimatedConvOperator,
    DenseOperator,
    LinearOperator,
    MaskedFrequencyOperator,
    RadonOperator,
    ScaledOperator,
    _csr_in_order,
    all_representatives,
    bilinear_kernel,
    canonical_representatives,
    conjugate_partner,
    dft_real_rows,
    dot_test,
    embed_kernel,
    gaussian_kernel,
    lowpass_mask,
    mask_pool,
    random_mask,
)

from references import radon_samples, radon_triplets


def sample_operators(seed=0):
    """One instance of each variant, sized small enough for dense checks."""
    rng = np.random.default_rng(seed)
    side = 8
    n = side * side
    return {
        "dense": DenseOperator(rng.standard_normal((10, 40))),
        "dct": MaskedFrequencyOperator((side, side), random_mask((side, side), 16, seed), "dct"),
        "dft": MaskedFrequencyOperator((side, side),
                                       random_mask((side, side), 12, seed, transform="dft"),
                                       "dft"),
        "blur": CirculantConvOperator((side, side), gaussian_kernel(1.5, radius=3, ndim=2), "center"),
        "sr": DecimatedConvOperator((side, side), bilinear_kernel(2, ndim=2), 2),
        "ct": RadonOperator(side, [0.0, 30.0, 45.0, 90.0, 120.0]),
    }


class TestDotTest:
    @pytest.mark.parametrize("name", ["dense", "dct", "dft", "blur", "sr", "ct"])
    def test_adjoint_pairing(self, name):
        for seed in range(5):
            op = sample_operators(seed + 1)[name]
            assert dot_test(op, trials=5, seed=seed) < 1e-10

    def test_identity_case(self):
        op = DenseOperator(np.eye(2))
        np.testing.assert_array_equal(op.forward([3.0, 4.0]), [3.0, 4.0])
        np.testing.assert_array_equal(op.adjoint([3.0, 4.0]), [3.0, 4.0])


class TestToDense:
    @pytest.mark.parametrize("name", ["dense", "dct", "dft", "blur", "sr", "ct"])
    def test_matches_forward(self, name):
        op = sample_operators(3)[name]
        H = op.to_dense()
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = rng.standard_normal(op.n)
            ref = H @ x
            got = op.forward(x)
            assert np.linalg.norm(got - ref) <= 1e-12 * max(np.linalg.norm(ref), 1.0)

    def test_identity_n3(self):
        np.testing.assert_array_equal(DenseOperator(np.eye(3)).to_dense(), np.eye(3))

    def test_circulant_rows_by_enumeration(self):
        # kernel (1,1)/2 on n=4: y[i] = (x[i] + x[i+1])/2, rows (.5,.5,0,0) shifted
        op = CirculantConvOperator(4, np.array([0.5, 0.5]), anchor="start")
        H = op.to_dense()
        expected = np.zeros((4, 4))
        for i in range(4):
            expected[i, i] = 0.5
            expected[i, (i + 1) % 4] = 0.5
        np.testing.assert_allclose(H, expected, atol=1e-14)

    def test_direct_convolution_enumeration(self):
        # independent O(n^2) oracle for the circular correlation
        rng = np.random.default_rng(5)
        n = 12
        kernel = rng.random(5)
        op = CirculantConvOperator(n, kernel, anchor="start")
        x = rng.standard_normal(n)
        expected = np.array([sum(kernel[j] * x[(i + j) % n] for j in range(5))
                             for i in range(n)])
        np.testing.assert_allclose(op.forward(x), expected, atol=1e-12)

    def test_radon_axis_aligned_is_column_sums(self):
        rng = np.random.default_rng(11)
        img = rng.random((8, 8))
        op = RadonOperator(8, [0.0])
        np.testing.assert_allclose(op.forward(img.reshape(-1)), img.sum(axis=0), atol=1e-10)

    def test_size_cap(self):
        op = CirculantConvOperator(8192, np.array([1.0]))
        with pytest.raises(SizeCapError):
            op.to_dense()


class TestLinearity:
    @pytest.mark.parametrize("name", ["dense", "dct", "dft", "blur", "sr", "ct"])
    def test_zero_and_superposition(self, name):
        op = sample_operators(2)[name]
        rng = np.random.default_rng(0)
        assert np.all(op.forward(np.zeros(op.n)) == 0.0)
        x, z = rng.standard_normal(op.n), rng.standard_normal(op.n)
        a, b = 0.7, -1.3
        lhs = op.forward(a * x + b * z)
        rhs = a * op.forward(x) + b * op.forward(z)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(rhs), 1.0)


class TestMaskedFrequency:
    def test_rows_orthonormal_after_stacking(self):
        op = sample_operators(4)["dft"]
        H = op.to_dense()
        np.testing.assert_allclose(H @ H.T, np.eye(op.m_eff), atol=1e-10)

    def test_forward_adjoint_identity_on_measurements(self):
        for name in ("dct", "dft"):
            op = sample_operators(5)[name]
            rng = np.random.default_rng(1)
            u = rng.standard_normal(op.m_eff)
            np.testing.assert_allclose(op.forward(op.adjoint(u)), u, atol=1e-10)

    def test_full_mask_is_unitary(self):
        n = 16
        op = MaskedFrequencyOperator(n, range(n), "dct")
        rng = np.random.default_rng(2)
        x = rng.standard_normal(n)
        np.testing.assert_allclose(op.adjoint(op.forward(x)), x, atol=1e-10)
        reps = all_representatives((4, 4))
        op2 = MaskedFrequencyOperator((4, 4), reps, "dft")
        assert op2.m_eff == 16
        x = rng.standard_normal(16)
        np.testing.assert_allclose(op2.adjoint(op2.forward(x)), x, atol=1e-10)

    def test_dft_real_rows_match_operator(self):
        shape = (4, 4)
        reps = all_representatives(shape)[:5]
        op = MaskedFrequencyOperator(shape, reps, "dft")
        np.testing.assert_allclose(dft_real_rows(shape, op.kept), op.to_dense(), atol=1e-12)

    @pytest.mark.parametrize("shape", [7, (5, 5), (5, 6)])
    def test_dft_stacking_odd_sizes(self, shape):
        # odd axes have no Nyquist row; only DC is self-conjugate
        reps = all_representatives(shape)
        op = MaskedFrequencyOperator(shape, reps, "dft")
        assert op.m_eff == op.n
        H = op.to_dense()
        np.testing.assert_allclose(H @ H.T, np.eye(op.n), atol=1e-10)
        assert dot_test(op, trials=3, seed=1) < 1e-12


class TestFactory:
    def test_cs_binary_entries(self):
        op = make_operator("cs", {"n": 100, "m": 10, "dist": "binary"}, seed=1)
        H = op.to_dense()
        assert H.shape == (10, 100)
        assert set(np.unique(H)) <= {0.0, 1.0}

    def test_cs_reproducible(self):
        a = make_operator("cs", {"n": 30, "m": 5}, seed=9).to_dense()
        b = make_operator("cs", {"n": 30, "m": 5}, seed=9).to_dense()
        np.testing.assert_array_equal(a, b)
        c = make_operator("cs", {"n": 30, "m": 5}, seed=10).to_dense()
        assert np.linalg.norm(a - c) > 0

    def test_mri_full_mask_unitary(self):
        op = make_operator("mri", {"shape": (4, 4), "transform": "dct",
                                   "mask": list(range(16))})
        rng = np.random.default_rng(3)
        u = rng.standard_normal(16)
        np.testing.assert_allclose(op.forward(op.adjoint(u)), u, atol=1e-12)

    def test_blur_rows_sum_to_kernel_mass(self):
        op = make_operator("blur", {"shape": (16, 16),
                                    "kernel": {"kind": "gaussian", "sigma": 2.0}})
        H = op.to_dense()
        np.testing.assert_allclose(H.sum(axis=1), 1.0, atol=1e-10)

    def test_random_mask_null_seed_is_the_operators_seed(self):
        spec = {"kind": "random", "count": 10}
        omitted = make_operator("mri", {"shape": (8, 8), "mask": spec}, seed=0)
        for _ in range(2):
            null = make_operator("mri", {"shape": (8, 8), "mask": dict(spec, seed=None)}, seed=0)
            assert null.kept == omitted.kept

    @pytest.mark.parametrize("transform", ["dct", "dft"])
    def test_mask_may_keep_its_whole_pool(self, transform):
        pool = len(mask_pool((8, 8), transform))
        assert pool == {"dct": 64, "dft": 34}[transform]
        for kind in ("lowpass", "random"):
            op = make_operator("mri", {"shape": (8, 8), "transform": transform,
                                       "mask": {"kind": kind, "count": pool}})
            assert op.m_eff == op.n

    def test_sr_bilinear_kernel_reads_its_factor(self):
        def sr_kernel(params):
            op = make_operator("sr", {"shape": (16, 16), "factor": 2, **params})
            return op.conv.kernel_full

        def bilinear(factor):
            return embed_kernel(bilinear_kernel(factor, ndim=2), (16, 16), "center")

        np.testing.assert_array_equal(
            sr_kernel({"kernel": {"kind": "bilinear", "factor": 3}}), bilinear(3))
        # without a factor it is the operator's, as without a kernel
        np.testing.assert_array_equal(sr_kernel({"kernel": {"kind": "bilinear"}}), bilinear(2))
        np.testing.assert_array_equal(sr_kernel({}), bilinear(2))

    def test_invalid_params(self):
        with pytest.raises(DimensionMismatchError):
            make_operator("cs", {"n": 5, "m": 9})
        with pytest.raises(NullPriorError):
            make_operator("cs", {"n": 5, "m": 2, "bogus": 1})
        with pytest.raises(DimensionMismatchError):
            make_operator("sr", {"shape": (9, 9), "factor": 2})
        with pytest.raises(DimensionMismatchError):
            RadonOperator(8, [0.0, 0.0])

    def test_dense_column_read(self):
        op = make_operator("cs", {"n": 10, "m": 4}, seed=7)
        H = op.to_dense()
        e1 = np.zeros(10)
        e1[0] = 1.0
        np.testing.assert_allclose(op.forward(e1), H[:, 0], atol=1e-14)


class TestKernels:
    def test_embed_center_rolls_center_to_origin(self):
        full = embed_kernel(np.array([1.0, 2.0, 3.0]), 6, anchor="center")
        np.testing.assert_array_equal(full, [2.0, 3.0, 0.0, 0.0, 0.0, 1.0])

    def test_identity_kernel_is_identity_operator(self):
        op = CirculantConvOperator(6, np.array([1.0]))
        x = np.arange(6.0)
        np.testing.assert_allclose(op.forward(x), x, atol=1e-13)

    def test_lowpass_mask_orders_by_frequency(self):
        assert lowpass_mask(8, 3, "dct") == [0, 1, 2]
        reps = lowpass_mask((4, 4), 3, "dft")
        assert reps[0] == 0


def _loop_freq_distance(flat_index, shape, wrapped):
    idx = np.unravel_index(flat_index, shape)
    if wrapped:
        return np.sqrt(sum(min(k, s - k) ** 2 for k, s in zip(idx, shape)))
    return np.sqrt(sum(k ** 2 for k in idx))


def _loop_partner(flat_index, shape):
    # the per-element conjugate_partner before it was vectorized
    idx = np.unravel_index(flat_index, shape)
    mirrored = tuple((-k) % s for k, s in zip(idx, shape))
    return int(np.ravel_multi_index(mirrored, shape))


def _loop_canonical(indices, shape):
    return sorted({min(int(k), _loop_partner(int(k), shape)) for k in indices})


def _loop_representatives(shape):
    return _loop_canonical(range(int(np.prod(shape))), shape)


def _loop_lowpass_mask(shape, count, transform):
    # the per-element sort lowpass_mask ran before it was vectorized
    wrapped = transform == "dft"
    pool = _loop_representatives(shape) if wrapped else range(int(np.prod(shape)))
    return sorted(pool, key=lambda k: (_loop_freq_distance(k, shape, wrapped), k))[:count]


class TestVectorizedMasks:
    SHAPES = [(64, 64), (15, 16), (9,), (7, 9)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_representatives_match_loop(self, shape):
        reps = all_representatives(shape)
        assert reps == _loop_representatives(shape)
        assert all(type(k) is int for k in reps)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_dft_setup_matches_loop(self, shape):
        n = int(np.prod(shape))
        rng = np.random.default_rng(12)
        for indices in (list(range(n)), rng.choice(n, size=n // 3, replace=False).tolist(),
                        [0], [n - 1, n - 1, 1]):
            reps = canonical_representatives(indices, shape)
            assert reps == _loop_canonical(indices, shape)
            assert all(type(k) is int for k in reps)
            op = MaskedFrequencyOperator(shape, indices, "dft")
            partners = [_loop_partner(k, shape) for k in op.kept]
            assert op._sc_kept.tolist() == [k for k, q in zip(op.kept, partners) if q == k]
            assert op._pair_kept.tolist() == [k for k, q in zip(op.kept, partners) if q != k]
            assert op._pair_partners.tolist() == [q for k, q in zip(op.kept, partners) if q != k]
        assert [conjugate_partner(k, shape) for k in range(n)] == [
            _loop_partner(k, shape) for k in range(n)]

    @pytest.mark.parametrize("transform", ["dct", "dft"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_kept_and_complement_match_loop(self, shape, transform):
        n = int(np.prod(shape))
        pool = range(n) if transform == "dct" else _loop_representatives(shape)
        rng = np.random.default_rng(5)
        for indices in (rng.permutation(pool)[:max(1, len(pool) // 3)].tolist(),
                        rng.permutation(pool)[:1], [float(pool[-1])]):
            op = MaskedFrequencyOperator(shape, indices, transform)
            kept = sorted(int(k) for k in indices)
            if transform == "dft":
                kept = _loop_canonical(kept, shape)
            assert op.kept == kept
            assert all(type(k) is int for k in op.kept)
            missing = sorted(set(pool) - set(kept))
            if missing:
                assert fourier_complement(op).operator.kept == missing
        for indices in ([], [-1], [n], [0, 0] if transform == "dct" else []):
            with pytest.raises(DimensionMismatchError):
                MaskedFrequencyOperator(shape, indices, transform)

    @pytest.mark.parametrize("transform", ["dct", "dft"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_lowpass_mask_matches_loop_ties_included(self, shape, transform):
        pool = (int(np.prod(shape)) if transform == "dct"
                else len(_loop_representatives(shape)))
        for count in sorted({1, 2, 3, pool // 4, pool // 2, pool - 1, pool} - {0}):
            mask = lowpass_mask(shape, count, transform)
            assert mask == _loop_lowpass_mask(shape, count, transform)
            assert all(type(k) is int for k in mask)


# ---------------------------------------------------------------------------
# loop references for the precomputed Radon matrix and the vectorized DFT path
# ---------------------------------------------------------------------------

def same_bits(a, b):
    """Equal shapes and bytes: stricter than array_equal, which lets -0.0 == 0.0."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# scipy's compiled CSR product rounds each `sum += a * x` as a multiply and
# then an add, like the np.add.at scatter, on x86-64 builds.  A build that
# fuses them into one FMA differs in the last bits, so elsewhere the Radon
# forward/adjoint comparisons are to 1e-13 relative instead of bit for bit.
# to_dense does no multiply and is compared bit for bit on every machine.
UNFUSED_CSR_PRODUCT = platform.machine().lower() in ("x86_64", "amd64")


def same_product(a, b):
    """Radon product against its scatter reference: bits where they must agree."""
    if UNFUSED_CSR_PRODUCT:
        return same_bits(a, b)
    return a.shape == b.shape and np.allclose(a, b, rtol=1e-13,
                                              atol=1e-13 * np.abs(b).max())


def scatter_radon_forward(op, x):
    """Reference: one np.add.at scatter per angle, in sample order."""
    out = np.zeros(op.m_eff)
    for a, angle in enumerate(op.angles_deg):
        idx, wts, dets = radon_samples(op.side, angle)
        acc = np.zeros(op.side)
        np.add.at(acc, dets, wts * x[idx])
        out[a * op.side:(a + 1) * op.side] = acc
    return out


def scatter_radon_adjoint(op, u):
    out = np.zeros(op.n)
    for a, angle in enumerate(op.angles_deg):
        idx, wts, dets = radon_samples(op.side, angle)
        ua = u[a * op.side:(a + 1) * op.side]
        np.add.at(out, idx, wts * ua[dets])
    return out


def loop_dft_forward(op, x):
    """Reference: the per-frequency loop over kept DFT representatives."""
    spec = scipy.fft.fftn(x.reshape(op.shape_in), norm="ortho").reshape(-1)
    out = np.empty(op.m_eff)
    j = 0
    for k in op.kept:
        if conjugate_partner(k, op.shape_in) == k:
            out[j] = spec[k].real
            j += 1
        else:
            out[j] = np.sqrt(2.0) * spec[k].real
            out[j + 1] = np.sqrt(2.0) * spec[k].imag
            j += 2
    return out


def loop_dft_adjoint(op, u):
    spec = np.zeros(op.n, dtype=complex)
    j = 0
    for k in op.kept:
        partner = conjugate_partner(k, op.shape_in)
        if partner == k:
            spec[k] = u[j]
            j += 1
        else:
            w = (u[j] + 1j * u[j + 1]) / np.sqrt(2.0)
            spec[k] = w
            spec[partner] = np.conj(w)
            j += 2
    return scipy.fft.ifftn(spec.reshape(op.shape_in), norm="ortho").real.reshape(-1)


RADON_ANGLES = [0.0, 90.0, 33.3, 135.5, 12.0, 60.0, 179.0]


class TestRadonMatchesScatter:
    @pytest.mark.parametrize("side", [8, 17, 32, 33])
    def test_forward_adjoint_bit_identical(self, side):
        op = RadonOperator(side, RADON_ANGLES)
        rng = np.random.default_rng(side)
        for _ in range(3):
            x = rng.standard_normal(op.n)
            u = rng.standard_normal(op.m_eff)
            assert same_product(op.forward(x), scatter_radon_forward(op, x))
            assert same_product(op.adjoint(u), scatter_radon_adjoint(op, u))

    @pytest.mark.parametrize("side", [8, 17, 32, 33])
    def test_to_dense_bit_identical_to_column_loop(self, side):
        op = RadonOperator(side, RADON_ANGLES)
        assert same_bits(op.to_dense(), LinearOperator.to_dense(op))

    def test_bench_geometry_bit_identical(self):
        # the limited-angle CT layout: 20 of 60 angles over [0, 180)
        op = RadonOperator(32, np.linspace(0.0, 180.0, 60, endpoint=False)[::3])
        x = np.random.default_rng(1).standard_normal(op.n)
        y = op.forward(x)
        assert same_product(y, scatter_radon_forward(op, x))
        assert same_product(op.adjoint(y), scatter_radon_adjoint(op, y))

    def test_side_128_past_dense_cap(self):
        op = RadonOperator(128, np.linspace(0.0, 180.0, 40, endpoint=False))
        assert dot_test(op, trials=3, seed=2) < 1e-12
        rng = np.random.default_rng(3)
        x, z = rng.standard_normal(op.n), rng.standard_normal(op.n)
        lhs = op.forward(0.7 * x - 1.3 * z)
        rhs = 0.7 * op.forward(x) - 1.3 * op.forward(z)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)
        assert same_product(op.forward(x), scatter_radon_forward(op, x))
        with pytest.raises(SizeCapError):
            op.to_dense()


def _csr_int64_reference(rows, cols, data, shape):
    """(data, indices, indptr) of `_csr_in_order` from an int64 stable argsort."""
    order = np.argsort(rows.astype(np.int64), kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=shape[0]))])
    return data[order], cols[order], indptr


# angle sets: the listed angles, one angle, and 60 equispaced angles, which
# span 4 blocks at side 64 and 15 at side 128
RADON_ANGLE_SETS = {"listed": RADON_ANGLES, "single": [33.3],
                    "equispaced-60": np.linspace(0.0, 180.0, 60, endpoint=False)}


class TestRadonBlockSampler:
    """The block sampler and the matrices built from it against the per-angle loop."""

    @staticmethod
    def _assert_matches_loop(op, index):
        ref = radon_triplets(op, index)
        for got, want in zip(op._triplets(), ref):
            assert same_bits(got, want)
        rows, cols, wts = ref
        for mat, want in ((op._A, _csr_in_order(rows, cols, wts, (op.m_eff, op.n))),
                          (op._At, _csr_in_order(cols, rows, wts, (op.n, op.m_eff)))):
            for name in ("data", "indices", "indptr"):
                assert same_bits(getattr(mat, name), getattr(want, name))

    @pytest.mark.parametrize("angles", sorted(RADON_ANGLE_SETS))
    @pytest.mark.parametrize("index", [np.int32, np.int64])
    @pytest.mark.parametrize("side", [8, 17, 32, 64, 128])
    def test_triplets_and_matrices_match_the_angle_loop(self, side, index, angles, monkeypatch):
        monkeypatch.setattr(operators, "_index_type", lambda size: index)
        op = RadonOperator(side, RADON_ANGLE_SETS[angles])
        assert op._triplets()[0].dtype == index
        self._assert_matches_loop(op, index)

    @pytest.mark.parametrize("per_block", [1, 2, 3, 7])
    def test_any_block_size_gives_the_same_arrays(self, per_block, monkeypatch):
        # blocks of a few angles at a side where the default takes all 7 at once
        monkeypatch.setattr(operators, "_BLOCK_SAMPLES", per_block * 17 ** 2)
        self._assert_matches_loop(RadonOperator(17, RADON_ANGLES), np.int32)

    # a block holds at most 2^16 samples (angle x detector x step), unless
    # one angle has more: from side 182 on, every block is one angle
    @pytest.mark.parametrize("side,count,sizes", [(17, 20, [20]), (64, 20, [16, 4]),
                                                  (181, 3, [2, 1]), (182, 3, [1, 1, 1])])
    def test_block_sizes(self, side, count, sizes, monkeypatch):
        seen = []
        block = operators._radon_block

        def sized(side, angles_deg, first, index):
            seen.append(len(angles_deg))
            return block(side, angles_deg, first, index)

        monkeypatch.setattr(operators, "_radon_block", sized)
        RadonOperator(side, RADON_ANGLE_SETS["equispaced-60"][:count])
        assert seen == sizes


class TestRadonStorage:
    def test_transpose_built_on_first_adjoint(self):
        op = RadonOperator(17, RADON_ANGLES)
        rng = np.random.default_rng(4)
        x, u = rng.standard_normal((3, op.n)), rng.standard_normal((3, op.m_eff))
        op.forward(x[0])
        op._apply(x)
        op.to_dense()
        assert "_At" not in vars(op)
        rows, cols, wts = op._triplets()
        eager = _csr_in_order(cols, rows, wts, (op.n, op.m_eff))
        assert same_bits(op.adjoint(u[0]), eager @ u[0])
        assert "_At" in vars(op)
        assert same_bits(op._apply_adjoint(u), (eager @ u.T).T)
        for name in ("data", "indices", "indptr"):
            assert same_bits(getattr(op._At, name), getattr(eager, name))
        for mat in (op._A, op._At):
            assert (mat.indices.dtype, mat.indptr.dtype) == (np.int32, np.int32)

    @pytest.mark.parametrize("side", [17, 32, 64])
    def test_int32_samples_give_the_arrays_of_int64_ones(self, side, monkeypatch):
        # the samples are drawn as int32 where the sizes fit, which changes
        # no index, weight or order of the matrices built from them
        angles = np.linspace(0.0, 180.0, 60, endpoint=False)[::3]
        op = RadonOperator(side, angles)
        op._At  # built before the patch below
        assert {a.dtype for a in op._triplets()[:2]} == {np.dtype(np.int32)}
        monkeypatch.setattr(operators, "_index_type", lambda size: np.int64)
        wide = RadonOperator(side, angles)
        assert {a.dtype for a in wide._triplets()[:2]} == {np.dtype(np.int64)}
        for mat, ref in ((op._A, wide._A), (op._At, wide._At)):
            assert same_bits(mat.data, ref.data)
            np.testing.assert_array_equal(mat.indices, ref.indices)
            np.testing.assert_array_equal(mat.indptr, ref.indptr)
            assert (mat.indices.dtype, ref.indices.dtype) == (np.int32, np.int64)

    # the narrowest key that holds every row index: uint8, uint16 up to
    # 65,536 rows, uint32 past them
    @pytest.mark.parametrize("n_rows", [1, 256, 257, 65_536, 65_537, 200_000])
    def test_same_permutation_as_int64_argsort(self, n_rows):
        rng = np.random.default_rng(n_rows)
        nnz = 5_000
        rows = rng.integers(0, n_rows, nnz)
        rows[:50] = n_rows - 1  # the widest key, repeated
        cols = rng.integers(0, 300, nnz)
        data = np.arange(nnz, dtype=float)  # each entry's input position
        mat = _csr_in_order(rows, cols, data, (n_rows, 300))
        ref = _csr_int64_reference(rows, cols, data, (n_rows, 300))
        for got, want in zip((mat.data, mat.indices, mat.indptr), ref):
            np.testing.assert_array_equal(got, want)
        assert (mat.indices.dtype, mat.indptr.dtype) == (np.int32, np.int32)

    def test_int64_indices_past_int32(self):
        # a column count past the int32 range needs int64 indices
        rows, cols = np.array([2, 0, 2, 1]), np.array([2**31, 5, 0, 2**31 - 1])
        data = np.array([1.0, 2.0, 3.0, 4.0])
        mat = _csr_in_order(rows, cols, data, (3, 2**31 + 1))
        ref = _csr_int64_reference(rows, cols, data, (3, 2**31 + 1))
        for got, want in zip((mat.data, mat.indices, mat.indptr), ref):
            np.testing.assert_array_equal(got, want)
        assert mat.indices.dtype == np.int64


class TestDftMatchesLoop:
    @pytest.mark.parametrize("shape", [(64, 64), (15, 16), (9,), (7, 9)])
    @pytest.mark.parametrize("kind", ["random", "lowpass"])
    def test_forward_adjoint_bit_identical(self, shape, kind):
        count = max(2, int(np.prod(shape)) // 4)
        kept = (random_mask(shape, count, 3, transform="dft") if kind == "random"
                else lowpass_mask(shape, count, "dft"))
        op = MaskedFrequencyOperator(shape, kept, "dft")
        rng = np.random.default_rng(4)
        x = rng.standard_normal(op.n)
        u = rng.standard_normal(op.m_eff)
        u[::5] = -0.0  # signed zeros take the same path as in the loop
        assert same_bits(op.forward(x), loop_dft_forward(op, x))
        assert same_bits(op.adjoint(u), loop_dft_adjoint(op, u))


# ---------------------------------------------------------------------------
# stacked applications and the batched to_dense
# ---------------------------------------------------------------------------

def column_loop_dense(op):
    """Reference: the one-unit-vector-at-a-time loop to_dense ran before batching."""
    out = np.empty((op.m_eff, op.n))
    e = np.zeros(op.n)
    for i in range(op.n):
        e[i] = 1.0
        out[:, i] = op._apply(e)
        e[i] = 0.0
    return out


def close_product(a, b):
    """BLAS sums a matrix product and a matrix-vector product in different orders."""
    return a.shape == b.shape and np.allclose(a, b, rtol=1e-13, atol=1e-13 * np.abs(b).max())


def loop_circulant(op, x, adjoint=False):
    """Reference: the single-vector circulant product before stacks."""
    response = op.response if adjoint else np.conj(op.response)
    spec = scipy.fft.fftn(x.reshape(op.shape_in))
    return scipy.fft.ifftn(spec * response).real.reshape(-1)


def stack_cases():
    blur = {shape: CirculantConvOperator(shape, gaussian_kernel(1.5, ndim=len(shape)),
                                         "center")
            for shape in [(32, 32), (16, 16), (64, 64), (48,), (15, 16)]}
    return {
        **{f"blur-{'x'.join(map(str, shape))}": op for shape, op in blur.items()},
        "sr-16x16-f2": DecimatedConvOperator((16, 16), bilinear_kernel(2, ndim=2), 2),
        "sr-12x18-f3": DecimatedConvOperator((12, 18), bilinear_kernel(3, ndim=2), 3),
        "sr-48-f3": DecimatedConvOperator(48, bilinear_kernel(3), 3),
        "scaled-blur": ScaledOperator(blur[(16, 16)], 2.5),
        "scaled-sr": ScaledOperator(DecimatedConvOperator((16, 16), bilinear_kernel(4, ndim=2), 4),
                                    0.37),
    }


class TestStackedApply:
    @pytest.mark.parametrize("name", sorted(stack_cases()))
    def test_to_dense_bit_identical_to_column_loop(self, name):
        op = stack_cases()[name]
        assert same_bits(op.to_dense(), column_loop_dense(op))

    @pytest.mark.parametrize("name", sorted(stack_cases()) + ["dense", "dct", "dft", "ct"])
    def test_stack_matches_each_vector(self, name):
        op = stack_cases()[name] if name in stack_cases() else sample_operators(2)[name]
        rng = np.random.default_rng(6)
        X = rng.standard_normal((5, op.n))
        U = rng.standard_normal((5, op.m_eff))
        fx, au = op._apply(X), op._apply_adjoint(U)
        assert fx.shape == (5, op.m_eff) and au.shape == (5, op.n)
        same = {"ct": same_product, "dense": close_product}.get(name, same_bits)
        for i in range(5):
            assert same(fx[i], op._apply(X[i]))
            assert same(au[i], op._apply_adjoint(U[i]))

    @pytest.mark.parametrize("shape", [(32, 32), (48,), (15, 16)])
    def test_single_vector_circulant_unchanged(self, shape):
        op = CirculantConvOperator(shape, gaussian_kernel(1.5, ndim=len(shape)), "center")
        x = np.random.default_rng(7).standard_normal(op.n)
        assert same_bits(op.forward(x), loop_circulant(op, x))
        assert same_bits(op.adjoint(x), loop_circulant(op, x, adjoint=True))

    def test_scaled_radon_densifies_through_stacks(self):
        base = RadonOperator(8, [0.0, 33.3, 90.0])
        assert same_bits(ScaledOperator(base, 0.5).to_dense(), 0.5 * base.to_dense())
