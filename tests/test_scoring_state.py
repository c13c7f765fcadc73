"""Scoring keeps no training state, and its peak memory stays bounded.

A compiled scoring plan never runs backward through the CNN or the
autoencoder (unless its saliency method is gradient saliency), so after a
served batch no layer may still hold a backward cache — im2col columns,
ReLU masks, layer inputs — and no parameter may hold a gradient buffer.
Forked pool replicas inherit whatever the parent retains, so this is what
bounds their memory.
"""

import tracemalloc

import numpy as np
import pytest

from repro.config import CI
from repro.datasets.adversarial import fgsm_attack
from repro.exceptions import ShapeError
from repro.nn.layers import Conv2d
from repro.nn.layers.conv import conv_output_size
from repro.novelty import AutoencoderConfig, SaliencyNoveltyPipeline
from repro.pipeline import PREPROCESS_STAGES, compute_saliency
from repro.serving import PipelineScorer, load_bundle


def _layers(pipeline):
    return list(pipeline.saliency_method.model.layers) + list(
        pipeline.one_class.autoencoder.layers
    )


def _cached(pipeline):
    """``(layer, attribute)`` pairs still holding backward state."""
    return [
        (type(layer).__name__, attr)
        for layer in _layers(pipeline)
        for attr in layer._cache_attrs
        if getattr(layer, attr) is not None
    ]


@pytest.fixture(scope="module")
def served(bundle_dir):
    """A scorer over the ci VBP bundle, loaded as a serving process does."""
    return PipelineScorer(load_bundle(bundle_dir).pipeline)


@pytest.fixture(scope="module")
def frames(dsu_test):
    return dsu_test.frames[:8]


class TestNoStaleBackwardState:
    def test_dense_autoencoder_bundle(self, served, frames):
        served.score_batch(frames)
        pipeline = served.pipeline
        assert _cached(pipeline) == []
        params = pipeline.saliency_method.model.parameters() + (
            pipeline.one_class.autoencoder.parameters()
        )
        assert params and all(p._grad is None for p in params)
        with pytest.raises(ShapeError):
            pipeline.saliency_method.model.backward(np.ones((len(frames), 1)))
        with pytest.raises(ShapeError):
            pipeline.one_class.autoencoder.backward(
                np.ones((len(frames), int(np.prod(CI.image_shape))))
            )

    def test_conv_autoencoder(self, trained_pilotnet, dsu_train, frames):
        pipeline = SaliencyNoveltyPipeline(
            trained_pilotnet,
            CI.image_shape,
            config=AutoencoderConfig(epochs=1, batch_size=16),
            architecture="conv",
            rng=0,
        ).fit(dsu_train.frames[:32])
        PipelineScorer(pipeline).score_batch(frames)
        assert _cached(pipeline) == []
        with pytest.raises(ShapeError):
            pipeline.one_class.autoencoder.backward(
                np.ones((len(frames), int(np.prod(CI.image_shape))))
            )


class TestBackwardCallersKeepTheirState:
    def test_gradient_plan_matches_standalone_gradient_saliency(
        self, trained_pilotnet, frames
    ):
        pipeline = SaliencyNoveltyPipeline(
            trained_pilotnet, CI.image_shape, saliency="gradient", rng=0
        )
        planned = pipeline.run_plan(frames, stages=PREPROCESS_STAGES).masks
        reference = compute_saliency(pipeline.saliency_method, frames)
        np.testing.assert_allclose(planned, reference, rtol=0, atol=1e-12)

    def test_fgsm_after_served_batch(self, bundle_dir, frames, dsu_test):
        scorer = PipelineScorer(load_bundle(bundle_dir).pipeline)
        model = scorer.pipeline.saliency_method.model
        targets = dsu_test.angles[: len(frames)]
        before = fgsm_attack(model, frames, targets)
        scorer.score_batch(frames)
        after = fgsm_attack(model, frames, targets)
        np.testing.assert_allclose(after, before, rtol=0, atol=1e-12)
        # fgsm's own eval-mode forward keeps the caches its backward reads.
        assert _cached(scorer.pipeline)


def test_cnn_forward_peak_is_activations_plus_one_im2col(served, frames):
    """Peak traced memory of ``cnn_forward`` at ci geometry, 8 frames: its
    activations plus the largest single im2col buffer, plus 10%."""
    pipeline = served.pipeline
    plan = pipeline.plan
    batch = pipeline._coerce_frames(frames)
    plan.run(batch, stages=("cnn_forward",))  # warm any lazy state

    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ctx = plan.run(batch, stages=("cnn_forward",))
        peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()

    activations = sum(a.nbytes for a in ctx.activations)
    largest_cols = 0
    shape = (batch.shape[0], 1) + batch.shape[1:]
    for layer in pipeline.saliency_method.model.layers:
        if isinstance(layer, Conv2d):
            (kh, kw), (sh, sw), (ph, pw) = layer.kernel_size, layer.stride, layer.padding
            out_h = conv_output_size(shape[2], kh, sh, ph)
            out_w = conv_output_size(shape[3], kw, sw, pw)
            cols = shape[1] * kh * kw * shape[0] * out_h * out_w
            largest_cols = max(largest_cols, cols * batch.itemsize)
            shape = (shape[0], layer.out_channels, out_h, out_w)
    assert largest_cols > 0
    budget = 1.1 * (activations + largest_cols)
    assert peak <= budget, (
        f"cnn_forward peaked at {peak} B, budget {budget:.0f} B "
        f"(activations {activations} B + largest im2col {largest_cols} B, +10%)"
    )
