"""Fit the two bundles the benchmark serves, in a process of its own.

Training runs apart from the measuring process so that its memory never
shows in ``peak_rss_mb``.  Usage::

    PYTHONPATH=src python3 perfbench/train_bundle.py OUT_DIR

writes ``OUT_DIR/ci`` (the ``ci`` preset, trained as ``repro bundle
--scale ci --seed 0`` does) and ``OUT_DIR/paper`` (60x160, a shape-only
fit: one CNN epoch and one autoencoder epoch on a few frames).
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.config import CI, PAPER
from repro.experiments.harness import Workbench
from repro.novelty import SaliencyNoveltyPipeline
from repro.serving import save_bundle

#: The model is part of the program under test, not an input: it is
#: always fitted from this seed, and only the frames follow ``--seed``.
MODEL_SEED = 0

#: Paper geometry with a training budget that only fixes shapes.
PAPER_SHAPE_ONLY = PAPER.with_overrides(n_train=16, cnn_epochs=1, ae_epochs=1, batch_size=16)


def fit(scale) -> SaliencyNoveltyPipeline:
    workbench = Workbench(scale, seed=MODEL_SEED)
    pipeline = SaliencyNoveltyPipeline(
        workbench.steering_model("dsu"),
        scale.image_shape,
        loss="ssim",
        config=workbench.autoencoder_config(),
        rng=MODEL_SEED,
    )
    pipeline.fit(workbench.batch("dsu", "train").frames)
    return pipeline


def main(out: Path) -> None:
    save_bundle(fit(CI), out / "ci")
    save_bundle(fit(PAPER_SHAPE_ONLY), out / "paper")


if __name__ == "__main__":
    main(Path(sys.argv[1]))
