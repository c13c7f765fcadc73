"""SSIM's window-mean kernel against SciPy's zero-padded filters.

``scipy.ndimage`` is the test-only reference: ``uniform_filter`` for the
box window and two ``correlate1d`` passes for the Gaussian one, both with
``mode="constant"`` (zero padding), over the trailing two axes.
"""

import numpy as np
import pytest
from scipy import ndimage

from repro.exceptions import ShapeError
from repro.metrics.ssim import _gaussian_kernel
from repro.nn.backend import kernel_profile
from repro.nn.backend.kernels import window_mean
from repro.serving import PipelineScorer, load_bundle

#: Max abs deviation from SciPy (which accumulates in double) per dtype,
#: for inputs in [0, 1).
ATOL = {np.float64: 1e-13, np.float32: 1e-6}

SHAPES = [
    (24, 64),  # ci geometry, (H, W)
    (3, 24, 64),  # (N, H, W)
    (2, 13, 31),  # non-square, odd sides
    (5, 8, 60, 160),  # SSIM's stacked statistics at paper geometry
]


def _reference(x, size, weights):
    if weights is None:
        return ndimage.uniform_filter(
            x, size=(1,) * (x.ndim - 2) + (size, size), mode="constant"
        )
    rows = ndimage.correlate1d(x, weights, axis=-1, mode="constant")
    return ndimage.correlate1d(rows, weights, axis=-2, mode="constant")


def _window(kind, size):
    return None if kind == "uniform" else _gaussian_kernel(size, 1.5)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kind", ["uniform", "gaussian"])
@pytest.mark.parametrize("size", [3, 5, 7, 9, 11])
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_matches_scipy_zero_padded_filter(shape, size, kind, dtype):
    x = np.random.default_rng(size).random(shape).astype(dtype)
    weights = _window(kind, size)
    out = window_mean(x, size, weights)
    assert out.dtype == dtype and out.shape == x.shape
    np.testing.assert_allclose(out, _reference(x, size, weights), rtol=0, atol=ATOL[dtype])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kind", ["uniform", "gaussian"])
@pytest.mark.parametrize("shape", [(11, 11), (4, 9, 9)], ids=str)
def test_window_as_large_as_the_image(shape, kind, dtype):
    size = shape[-1]
    x = np.random.default_rng(1).random(shape).astype(dtype)
    weights = _window(kind, size)
    np.testing.assert_allclose(
        window_mean(x, size, weights), _reference(x, size, weights), rtol=0, atol=ATOL[dtype]
    )


def test_out_may_alias_the_input():
    x = np.random.default_rng(2).random((5, 8, 24, 64))
    expected = _reference(x, 11, None)
    result = window_mean(x, 11, out=x)
    assert result is x
    np.testing.assert_allclose(x, expected, rtol=0, atol=ATOL[np.float64])


def test_non_contiguous_input():
    x = np.random.default_rng(3).random((24, 64, 3))[..., 1]
    np.testing.assert_allclose(
        window_mean(x, 7), _reference(np.ascontiguousarray(x), 7, None), rtol=0, atol=1e-13
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        {"size": 4},
        {"size": 0},
        {"size": 5, "weights": np.ones(3) / 3},
        {"size": 5, "out": np.empty((8, 8))},
        {"size": 5, "out": np.empty((16, 32))[:, ::2]},
    ],
    ids=["even", "zero", "weights-length", "out-shape", "out-strided"],
)
def test_rejects_bad_geometry(kwargs):
    with pytest.raises(ShapeError):
        window_mean(np.zeros((16, 16)), **kwargs)


class TestProfile:
    @pytest.mark.parametrize("kind", ["uniform", "gaussian"])
    def test_flop_estimate_counts_every_tap(self, kind):
        x = np.random.default_rng(4).random((2, 12, 20))
        with kernel_profile() as profiler:
            window_mean(x, 5, _window(kind, 5))
        (row,) = profiler.snapshot()
        assert row["name"] == "window_mean"
        per_axis = 2 * 5 - 1 if kind == "gaussian" else 5
        assert row["flops"] == pytest.approx(2.0 * per_axis * x.size)

    def test_a_scored_batch_records_one_stacked_window_call(self, bundle_dir):
        scorer = PipelineScorer(load_bundle(bundle_dir).pipeline)
        h, w = scorer.image_shape
        frames = np.random.default_rng(5).random((3, h, w))
        with kernel_profile() as profiler:
            scorer.score_batch(frames)
        rows = {row["name"]: row for row in profiler.snapshot()}
        window = rows["window_mean"]
        assert window["calls"] == 1
        assert window["shapes"] == {f"(5, 3, {h}, {w}) f8": 1}
        assert window["seconds"] > 0.0 and window["flops"] > 0.0
