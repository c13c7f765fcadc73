"""Lint-style test: the serving stack does each job one way.

Two jobs had second copies under ``src/repro/serving/``:

* **The threshold verdict.**  The paper's decision (score past the 99th
  percentile threshold) is the compiled plan's ``verdict`` stage, which
  :class:`~repro.serving.engine.PipelineScorer` runs in process and in
  every pool replica.  A serving module calling ``.predict(`` or
  ``.novelty_margin(`` itself would be a second verdict path that can
  drift from the plan's.
* **The hot-swap shape check.**  ``PipelineScorer.reload``,
  ``WorkerPool.reload`` and ``ServingEngine.set_scorer`` share one
  function that raises the shape-mismatch ``DeploymentError``.

This test walks each module's AST and flags both.
"""

import ast
from pathlib import Path

import pytest

SERVING = Path(__file__).resolve().parent.parent / "src" / "repro" / "serving"
VERDICT_CALLS = ("predict", "novelty_margin")


def _verdict_calls(tree: ast.AST):
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in VERDICT_CALLS
        ):
            yield node


def _raises_shape_deployment_error(function: ast.AST) -> bool:
    for node in ast.walk(function):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
            continue
        func = node.exc.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name != "DeploymentError":
            continue
        texts = [
            part.value
            for arg in node.exc.args
            for part in ast.walk(arg)
            if isinstance(part, ast.Constant) and isinstance(part.value, str)
        ]
        if any("shape" in text for text in texts):
            return True
    return False


def _shape_check_functions(tree: ast.AST, module: str):
    """Qualified names of the innermost functions raising the shape error."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                before = len(found)
                visit(child, name)
                if (
                    not isinstance(child, ast.ClassDef)
                    and len(found) == before
                    and _raises_shape_deployment_error(child)
                ):
                    found.append(name)
            else:
                visit(child, prefix)

    visit(tree, module)
    return found


def _modules():
    files = sorted(SERVING.glob("*.py"))
    assert files, "serving package not found — did the layout move?"
    return files


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", _modules(), ids=lambda p: p.name)
def test_no_verdict_outside_the_plan(path):
    offenders = [f"{path.name}:{node.lineno}" for node in _verdict_calls(_parse(path))]
    assert not offenders, (
        "serving computes a threshold verdict outside the compiled plan "
        "(score through PipelineScorer instead): " + ", ".join(offenders)
    )


def test_one_hot_swap_shape_check():
    raisers = [
        name
        for path in _modules()
        for name in _shape_check_functions(_parse(path), path.stem)
    ]
    assert len(raisers) == 1, (
        "the hot-swap shape DeploymentError must be raised by exactly one "
        f"function, found {raisers}"
    )


def test_lint_catches_both_patterns():
    source = (
        "class Scorer:\n"
        "    def reload(self, other):\n"
        "        if other.shape != self.shape:\n"
        "            raise DeploymentError(f'hot-swap shape mismatch {other}')\n"
        "        return self.detector.predict(scores)\n"
        "def set_scorer(engine, scorer):\n"
        "    raise errors.DeploymentError('scorer swap shape mismatch')\n"
        "def close(engine):\n"
        "    raise DeploymentError('no reload method')\n"
        "margins = detector.novelty_margin(scores)\n"
    )
    tree = ast.parse(source)
    assert sorted(node.lineno for node in _verdict_calls(tree)) == [5, 10]
    assert _shape_check_functions(tree, "m") == ["m.Scorer.reload", "m.set_scorer"]
