"""Denoiser behavior: proximal identities, nonexpansiveness, delta estimation."""

import numpy as np
import pytest
import scipy.fft
import scipy.ndimage

from nullprior.denoisers import (
    GaussianSmooth,
    Identity,
    Median,
    TVChambolle,
    TransformSoftThreshold,
    denoise,
    estimate_delta,
)
from nullprior.errors import NullPriorError

from references import iterate_cloud_images, iterate_cloud_pairs, total_variation


def random_pairs(shape, count, seed):
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal(shape), rng.standard_normal(shape))
            for _ in range(count)]


def test_identity_passthrough():
    x = np.arange(5.0)
    np.testing.assert_array_equal(Identity()(x), x)


def test_soft_threshold_single_coefficient():
    n = 16
    c = np.zeros(n)
    c[3] = 3.0
    x = scipy.fft.idct(c, type=2, norm="ortho")
    out = TransformSoftThreshold(1.0)(x)
    c_out = scipy.fft.dct(out, type=2, norm="ortho")
    assert c_out[3] == pytest.approx(2.0, abs=1e-12)
    mask = np.ones(n, bool)
    mask[3] = False
    np.testing.assert_allclose(c_out[mask], 0.0, atol=1e-12)


def test_soft_threshold_is_proximal_map():
    # tau||T D(x)||_1 + 1/2||D(x)-x||^2 <= tau||T z||_1 + 1/2||z-x||^2
    rng = np.random.default_rng(0)
    tau = 0.3
    d = TransformSoftThreshold(tau)
    x = rng.standard_normal(32)
    dx = d(x)

    def objective(z):
        return tau * np.sum(np.abs(scipy.fft.dct(z, type=2, norm="ortho"))) \
            + 0.5 * np.linalg.norm(z - x) ** 2

    best = objective(dx)
    for _ in range(100):
        z = rng.standard_normal(32)
        assert best <= objective(z) + 1e-9


def test_soft_threshold_tau_zero_returns_its_input():
    # the exact prox of a zero penalty, with no DCT round trip
    x = np.random.default_rng(3).standard_normal((8, 8))
    for transform in ("dct", "identity"):
        assert TransformSoftThreshold(0.0, transform)(x) is x


def test_soft_threshold_identity_domain_is_elementwise():
    x = np.array([-2.0, -0.5, 0.0, 0.25, 1.5])
    np.testing.assert_array_equal(TransformSoftThreshold(0.5, "identity")(x),
                                  [-1.5, 0.0, 0.0, 0.0, 1.0])


@pytest.mark.parametrize("tau,transform,match", [(-0.1, "dct", "tau must be nonnegative"),
                                                 (0.1, "wavelet", "unknown transform")])
def test_soft_threshold_refuses(tau, transform, match):
    with pytest.raises(NullPriorError, match=match):
        TransformSoftThreshold(tau, transform)


def test_tv_reduces_total_variation():
    rng = np.random.default_rng(1)
    step = np.concatenate([np.zeros(32), np.ones(32)])
    noisy = step + 0.2 * rng.standard_normal(64)
    out = TVChambolle(0.5, inner_iters=40)(noisy)
    assert total_variation(out) <= total_variation(noisy)


def test_tv_2d_shape_preserved():
    rng = np.random.default_rng(2)
    img = rng.random((12, 12))
    out = TVChambolle(0.2)(img)
    assert out.shape == (12, 12)
    assert np.all(np.isfinite(out))


def test_gaussian_smooth_nonexpansive():
    d = GaussianSmooth(1.2)
    delta = estimate_delta(d, random_pairs(64, 20, seed=5))
    assert delta <= 1e-12
    delta2d = estimate_delta(d, random_pairs((8, 8), 10, seed=6))
    assert delta2d <= 1e-12


@pytest.mark.parametrize("shape", [(37,), (16, 16), (15, 22)])
@pytest.mark.parametrize("sigma", [0.4, 1.5, 3.0, 0.0])
def test_gaussian_smooth_bit_identical_to_gaussian_filter(shape, sigma):
    x = np.random.default_rng(8).standard_normal(shape)
    out = GaussianSmooth(sigma)(x)
    assert out.shape == x.shape and out.dtype == x.dtype
    assert np.array_equal(out, scipy.ndimage.gaussian_filter(x, sigma, mode="wrap"))


def test_identity_delta_zero():
    assert estimate_delta(Identity(), random_pairs(16, 5, seed=7)) == 0.0


def test_empty_pair_list_rejected():
    with pytest.raises(NullPriorError):
        estimate_delta(Identity(), [])


def test_median_delta_reported_nonnegative():
    d = Median(3)
    pairs = random_pairs(32, 15, seed=8)
    pairs.append((np.zeros(32), np.zeros(32)))  # coincident pair skipped
    delta = estimate_delta(d, pairs)
    assert delta >= 0.0
    assert np.isfinite(delta)


def test_finite_in_finite_out():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((10, 10)) * 100
    for d in (Identity(), GaussianSmooth(2.0), TransformSoftThreshold(0.5),
              TVChambolle(1.0), Median(3)):
        assert np.all(np.isfinite(d(x)))


def test_denoise_reshapes_flat_vectors():
    rng = np.random.default_rng(10)
    x = rng.random(36)
    out = denoise(GaussianSmooth(1.0), x, shape=(6, 6))
    assert out.shape == (36,)
    ref = GaussianSmooth(1.0)(x.reshape(6, 6)).reshape(-1)
    np.testing.assert_array_equal(out, ref)


class _Counted:
    def __init__(self, denoiser):
        self.denoiser = denoiser
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.denoiser(x)


def _converging_cloud(shape, count, seed):
    """Iterates closing in on x*, ending with a repeat and with x* itself."""
    rng = np.random.default_rng(seed)
    x_star = rng.random(shape).reshape(-1)
    iterates = [np.zeros(x_star.size)]
    for k in range(count):
        iterates.append(x_star + 0.6 ** k * rng.standard_normal(x_star.size))
    iterates += [iterates[-1].copy(), x_star.copy()]
    return iterates, x_star


CLOUD_DENOISERS = [GaussianSmooth(0.6), TVChambolle(0.05), TransformSoftThreshold(0.02),
                   Median(3), Identity()]


class TestIterateCloudImages:
    @pytest.mark.parametrize("shape", [(8, 8), (30,)])
    @pytest.mark.parametrize("denoiser", CLOUD_DENOISERS, ids=lambda d: type(d).__name__)
    def test_delta_bits_and_one_call_per_point(self, denoiser, shape):
        # stretched by 1.5, so the maximum is not clipped to zero
        base = denoiser
        denoiser = lambda x: 1.5 * base(x)  # noqa: E731
        iterates, x_star = _converging_cloud(shape, 25, seed=12)
        pairs = iterate_cloud_pairs(iterates, x_star)
        reference = estimate_delta(denoiser, [(a.reshape(shape), b.reshape(shape))
                                              for a, b in pairs])
        counted = _Counted(denoiser)
        image = denoise(denoiser, x_star, shape)
        delta = estimate_delta(counted, iterate_cloud_images(counted, iterates, x_star,
                                                             image, shape))
        assert delta == reference > 0.0
        assert counted.calls == len(iterates)

    def test_pairs_match_iterate_cloud_pairs(self):
        iterates, x_star = _converging_cloud((4, 4), 5, seed=13)
        got = sorted((a.tobytes(), b.tobytes()) for a, b, _, _ in
                     iterate_cloud_images(Identity(), iterates, x_star, x_star, (4, 4)))
        want = sorted((a.tobytes(), b.tobytes()) for a, b in
                      iterate_cloud_pairs(iterates, x_star))
        assert got == want

    def test_generator_without_pairs_rejected(self):
        with pytest.raises(NullPriorError, match="at least one pair"):
            estimate_delta(Identity(), iter([]))
