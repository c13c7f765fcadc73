"""Micro-benchmarks for the numpy substrate.

Not paper artifacts — these track the throughput of the hot paths every
experiment depends on (convolution, SSIM's window kernel, SSIM + gradient,
autoencoder training steps), so performance regressions in the substrate
are visible separately from the figure-level results.
"""

import numpy as np
import pytest

from repro.metrics.ssim import ssim, ssim_and_grad
from repro.models import DenseAutoencoder
from repro.nn import Adam, Conv2d, MSELoss, SSIMLoss, Trainer
from repro.nn.backend import kernels


@pytest.fixture(scope="module")
def frames():
    return np.random.default_rng(0).random((8, 24, 64))


def test_conv2d_forward(benchmark):
    conv = Conv2d(1, 24, 5, stride=2, rng=0)
    x = np.random.default_rng(0).random((8, 1, 60, 160))
    out = benchmark(conv.forward, x)
    assert out.shape[1] == 24


def test_conv2d_backward(benchmark):
    conv = Conv2d(1, 24, 5, stride=2, rng=0)
    x = np.random.default_rng(0).random((8, 1, 60, 160))
    out = conv.forward(x)
    grad = np.ones_like(out)

    def step():
        conv.zero_grad()
        return conv.backward(grad)

    assert benchmark(step).shape == x.shape


def test_conv2d_forward_kernel_paper_geometry(benchmark):
    """The largest im2col GEMM of the paper-geometry (60x160, batch 8)
    PilotNet: stage 2, 24 -> 36 channels at 5x5 stride 2."""
    rng = np.random.default_rng(0)
    x = rng.random((8, 24, 28, 78))
    weight = rng.standard_normal((36, 24, 5, 5))
    out, cols = benchmark(kernels.conv2d_forward, x, weight, np.zeros(36), (2, 2), (0, 0))
    assert out.shape == (8, 36, 12, 37)
    assert cols.shape == (24 * 5 * 5, 8 * 12 * 37)


def test_conv_transpose2d_kernel_paper_geometry(benchmark):
    """VisualBackProp's last ones-kernel upscale back to 60x160 frames."""
    mask = np.random.default_rng(0).random((8, 1, 28, 78))
    out = benchmark(kernels.conv_transpose2d, mask, np.ones((1, 1, 5, 5)), 2, 0)
    assert out.shape == (8, 1, 59, 159)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("geometry", [(24, 64), (60, 160)], ids=["ci", "paper"])
def test_window_mean_kernel(benchmark, geometry, dtype):
    """SSIM's 11x11 window mean over the five stacked statistics of a
    batch of 8, as the similarity stage calls it."""
    stats = np.random.default_rng(0).random((5, 8) + geometry).astype(dtype)
    out = benchmark(kernels.window_mean, stats, 11)
    assert out.shape == stats.shape and out.dtype == stats.dtype


def test_ssim_metric(benchmark, frames):
    a, b = frames[:4], frames[4:]
    scores = benchmark(ssim, a, b, 9)
    assert scores.shape == (4,)


def test_ssim_with_gradient(benchmark, frames):
    a, b = frames[:4], frames[4:]
    _, grad = benchmark(ssim_and_grad, a, b, 9)
    assert grad.shape == a.shape


def test_autoencoder_train_step_mse(benchmark, frames):
    ae = DenseAutoencoder((24, 64), rng=0)
    trainer = Trainer(ae, MSELoss(), Adam(ae.parameters(), lr=1e-3))
    flat = frames.reshape(8, -1)
    loss = benchmark(trainer.train_step, flat, flat)
    assert loss >= 0.0


def test_autoencoder_train_step_ssim(benchmark, frames):
    ae = DenseAutoencoder((24, 64), rng=0)
    trainer = Trainer(ae, SSIMLoss((24, 64), window_size=9), Adam(ae.parameters(), lr=1e-3))
    flat = frames.reshape(8, -1)
    loss = benchmark(trainer.train_step, flat, flat)
    assert loss >= 0.0


def test_dataset_rendering(benchmark):
    from repro.datasets import SyntheticUdacity

    dsu = SyntheticUdacity((24, 64))
    batch = benchmark(dsu.render_batch, 8, 0)
    assert len(batch) == 8
