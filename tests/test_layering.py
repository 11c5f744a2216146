"""The row evaluator stays out of the runtime.

``repro.expr.evaluator`` compiles expressions into per-row Python
closures.  It serves the §3.4 oracle (the centralized row run the
distributed outputs must equal) and the row partitioner.  The runtime —
every module under ``src/repro/runtime/`` and the streaming wrappers in
``engine/streaming.py`` — evaluates over columns with
``repro.expr.vectorizer`` instead, so none of it may import the
evaluator.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
EVALUATOR = "repro.expr.evaluator"
RUNTIME = sorted((SRC / "repro" / "runtime").rglob("*.py")) + [
    SRC / "repro" / "engine" / "streaming.py"
]


def _imports(path, root):
    """Every module ``path`` imports (and every name it imports from a
    module, as ``module.name``), with relative imports resolved against
    its package under ``root``."""
    package = list(path.relative_to(root).with_suffix("").parts[:-1])
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def evaluator_importers(paths, root):
    return [
        path
        for path in paths
        if any(
            name == EVALUATOR or name.startswith(EVALUATOR + ".")
            for name in _imports(path, root)
        )
    ]


def test_runtime_does_not_import_the_row_evaluator():
    offenders = evaluator_importers(RUNTIME, SRC)
    assert not offenders, "the row evaluator is imported by:\n" + "\n".join(
        f"  {path.relative_to(SRC)}" for path in offenders
    )


def test_scanner_flags_every_import_form(tmp_path):
    """Known-bad companion: a temporary runtime module importing the
    evaluator relatively, absolutely, or as a name is flagged; one that
    imports only the vectorizer is not."""
    runtime = tmp_path / "repro" / "runtime"
    runtime.mkdir(parents=True)
    bad = {
        "relative.py": "from ..expr.evaluator import compile_key\n",
        "named.py": "from ..expr import evaluator\n",
        "absolute.py": "import repro.expr.evaluator\n",
    }
    for name, text in bad.items():
        (runtime / name).write_text(text)
    (runtime / "good.py").write_text("from ..expr.vectorizer import vectorize_key\n")
    flagged = evaluator_importers(sorted(runtime.glob("*.py")), tmp_path)
    assert sorted(path.name for path in flagged) == sorted(bad)
