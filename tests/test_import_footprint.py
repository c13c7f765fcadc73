"""A serving process loads neither SciPy nor the stdlib HTTP server.

SciPy backs only offline helpers (perturbations, augmentation filters,
experiment diagnostics), and ``http.server`` only the opt-in Prometheus
endpoint.  Every serving process, each forked pool replica included,
would otherwise carry their modules and heap.  The check runs in a fresh
interpreter, so modules imported by other tests cannot mask a regression.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules a scoring process must not have loaded.
UNWANTED = ("scipy", "http.server")

_SCRIPT = f"""
import json, sys
import numpy as np
import repro, repro.cli, repro.serving
from repro.serving import PipelineScorer, load_bundle

scorer = PipelineScorer(load_bundle(sys.argv[1]).pipeline)
h, w = scorer.image_shape
verdicts = scorer.score_batch(np.random.default_rng(0).random((4, h, w)))
print(json.dumps({{
    "scored": len(verdicts.scores),
    "loaded": [name for name in {UNWANTED!r} if name in sys.modules],
}}))
"""


def test_scoring_process_loads_no_scipy_or_http_server(bundle_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(bundle_dir)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["scored"] == 4
    assert report["loaded"] == []
