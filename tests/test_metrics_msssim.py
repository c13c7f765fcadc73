"""Tests for multi-scale SSIM (metric, adjoint, loss)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ShapeError
from repro.metrics import downsample2x, ms_ssim, ms_ssim_and_grad, ssim, upsample2x_adjoint
from repro.nn import MSSSIMLoss, check_loss_gradients


class TestDownsample:
    def test_halves_dimensions(self, rng):
        assert downsample2x(rng.random((8, 12))).shape == (4, 6)

    def test_crops_odd_edges(self, rng):
        assert downsample2x(rng.random((9, 13))).shape == (4, 6)

    def test_batch(self, rng):
        assert downsample2x(rng.random((3, 8, 8))).shape == (3, 4, 4)

    def test_averages_blocks(self):
        img = np.array([[1.0, 3.0], [5.0, 7.0]])
        assert downsample2x(img)[0, 0] == 4.0

    def test_preserves_constant(self):
        np.testing.assert_allclose(downsample2x(np.full((6, 6), 0.3)), 0.3)

    def test_too_small_raises(self):
        with pytest.raises(ShapeError):
            downsample2x(np.zeros((1, 4)))

    def test_adjoint_identity(self, rng):
        """<D x, g> == <x, D^T g> — the defining adjoint property."""
        x = rng.normal(size=(9, 11))
        down = downsample2x(x)
        g = rng.normal(size=down.shape)
        lhs = float((down * g).sum())
        rhs = float((x * upsample2x_adjoint(g, x.shape)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestMsSsimMetric:
    def test_identity_is_one(self, rng):
        x = rng.random((24, 32))
        assert ms_ssim(x, x, scales=3, window_size=5) == pytest.approx(1.0)

    def test_single_scale_equals_ssim(self, rng):
        x, y = rng.random((16, 16)), rng.random((16, 16))
        assert ms_ssim(x, y, scales=1, window_size=5) == pytest.approx(
            ssim(x, y, window_size=5)
        )

    def test_batch(self, rng):
        x, y = rng.random((3, 24, 24)), rng.random((3, 24, 24))
        assert ms_ssim(x, y, scales=2, window_size=5).shape == (3,)

    def test_bounded(self, rng):
        for _ in range(5):
            value = ms_ssim(rng.random((24, 24)), rng.random((24, 24)), scales=2, window_size=5)
            assert -1.0 <= value <= 1.0

    def test_penalizes_coarse_structure_errors(self, rng):
        """A low-frequency corruption hurts MS-SSIM more than SSIM (relative
        to each metric's own sensitivity)."""
        x = rng.random((32, 32)) * 0.3 + 0.3
        # Corrupt the coarse structure: add a half-image step.
        corrupted = x.copy()
        corrupted[16:] += 0.3
        ss = ssim(x, corrupted, window_size=5)
        ms = ms_ssim(x, corrupted, scales=3, window_size=5)
        assert ms < ss + 0.05  # multi-scale must not mask the coarse error

    def test_too_many_scales_raises(self, rng):
        with pytest.raises(ConfigurationError, match="scales"):
            ms_ssim(rng.random((12, 12)), rng.random((12, 12)), scales=4, window_size=5)

    def test_zero_scales_raises(self, rng):
        with pytest.raises(ConfigurationError):
            ms_ssim(rng.random((12, 12)), rng.random((12, 12)), scales=0)


class TestMsSsimGradient:
    def test_matches_numerical(self, rng):
        from repro.nn.gradcheck import numerical_gradient, relative_error

        x = rng.random((12, 14))
        y = rng.random((12, 14))
        _, grad = ms_ssim_and_grad(x, y, scales=2, window_size=5)
        numeric = numerical_gradient(
            lambda v: float(ms_ssim(x, v, scales=2, window_size=5)), y.copy()
        )
        assert relative_error(grad, numeric) < 1e-4

    def test_gradient_near_zero_at_identity(self, rng):
        x = rng.random((16, 16))
        _, grad = ms_ssim_and_grad(x, x.copy(), scales=2, window_size=5)
        assert np.abs(grad).max() < 1e-6

    def test_batch_shapes(self, rng):
        x, y = rng.random((2, 16, 16)), rng.random((2, 16, 16))
        scores, grad = ms_ssim_and_grad(x, y, scales=2, window_size=5)
        assert scores.shape == (2,)
        assert grad.shape == x.shape


class TestMsSsimLoss:
    def test_gradcheck(self, rng):
        pred = rng.random((2, 16 * 20))
        target = rng.random((2, 16 * 20))
        check_loss_gradients(
            MSSSIMLoss((16, 20), scales=2, window_size=5), pred, target, tolerance=1e-4
        )

    def test_zero_at_identity(self, rng):
        x = rng.random((2, 16 * 16))
        loss = MSSSIMLoss((16, 16), scales=2, window_size=5)
        assert loss.forward(x, x) == pytest.approx(0.0, abs=1e-9)

    def test_per_sample(self, rng):
        loss = MSSSIMLoss((16, 16), scales=2, window_size=5)
        pred, target = rng.random((3, 256)), rng.random((3, 256))
        per = loss.per_sample(pred, target)
        assert per.shape == (3,)
        # Scored without a gradient, yet exactly the scores training sees.
        scores, _ = ms_ssim_and_grad(
            target.reshape(3, 16, 16), pred.reshape(3, 16, 16), scales=2, window_size=5
        )
        assert np.array_equal(per, 1.0 - scores)

    def test_invalid_config_raises(self):
        with pytest.raises(ConfigurationError):
            MSSSIMLoss((0, 4))
        with pytest.raises(ConfigurationError):
            MSSSIMLoss((16, 16), scales=0)


class TestMsSsimInPipeline:
    def test_one_class_msssim(self, rng):
        from repro.novelty import AutoencoderConfig, OneClassAutoencoder

        images = rng.random((20, 16, 24))
        ae = OneClassAutoencoder(
            (16, 24), loss="msssim",
            config=AutoencoderConfig(hidden=(32, 8, 32), epochs=4, batch_size=8, ssim_window=5),
            rng=0,
        )
        ae.fit(images)
        scores = ae.score(images)
        assert np.all(np.isfinite(scores))
        # Similarity convention: 1 - loss for (MS-)SSIM losses.
        np.testing.assert_allclose(ae.similarity(images), 1.0 - scores)
