"""The row engine stays out of the runtime.

``repro.expr.evaluator`` compiles expressions into per-row Python
closures (``repro.expr`` re-exports ``compile_key``, ``compile_expr`` and
``evaluate`` from it), and ``repro.engine.operators`` with
``repro.engine.variants.build_variant_operator`` are the row operators
built on it.  Together they serve the §3.4 oracle, the centralized row
run the distributed outputs must equal.  The runtime — every module
under ``src/repro/runtime/``, ``cluster/``, ``partitioning/`` and
``traces/``, and the streaming wrappers in ``engine/streaming.py`` —
runs kernels over columns with ``repro.expr.vectorizer`` instead, and
the front end it compiles from (``gsql/``) checks function calls
against the vectorizer's names, so none of it may import them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
EVALUATOR = (
    "repro.expr.evaluator",
    "repro.expr.compile_key",
    "repro.expr.compile_expr",
    "repro.expr.evaluate",
)
ROW_OPERATORS = (
    "repro.engine.operators",
    "repro.engine.variants.build_variant_operator",
)
RUNTIME = [
    path
    for package in ("runtime", "cluster", "partitioning", "traces", "gsql")
    for path in sorted((SRC / "repro" / package).rglob("*.py"))
] + [SRC / "repro" / "engine" / "streaming.py"]


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


def importers(paths, root, forbidden):
    """The ``paths`` that import a ``forbidden`` module or name (or
    anything under one)."""
    return [
        path
        for path in paths
        if any(
            name == banned or name.startswith(banned + ".")
            for name in _imports(path, root)
            for banned in forbidden
        )
    ]


def _report(what, offenders):
    return f"{what} is imported by:\n" + "\n".join(
        f"  {path.relative_to(SRC)}" for path in offenders
    )


def test_runtime_does_not_import_the_row_evaluator():
    offenders = importers(RUNTIME, SRC, EVALUATOR)
    assert not offenders, _report("the row evaluator", offenders)


def test_runtime_does_not_import_the_row_operators():
    offenders = importers(RUNTIME, SRC, ROW_OPERATORS)
    assert not offenders, _report("a row operator", offenders)


def test_scanner_flags_every_import_form(tmp_path):
    """Known-bad companion: a temporary runtime module importing the
    evaluator or a row operator relatively, absolutely, as a name, or
    through the ``repro.expr`` package's re-export is flagged; one that
    imports only the vectorizer, a kernel builder or another ``repro.expr``
    name is not."""
    runtime = tmp_path / "repro" / "runtime"
    runtime.mkdir(parents=True)
    bad = {
        "relative.py": "from ..expr.evaluator import compile_key\n",
        "named.py": "from ..expr import evaluator\n",
        "absolute.py": "import repro.expr.evaluator\n",
        "reexport.py": "from ..expr import compile_key\n",
        "reexport_absolute.py": "from repro.expr import evaluate, parse_scalar\n",
        "operators.py": "from ..engine.operators import JoinOp\n",
        "operators_named.py": "from ..engine import operators\n",
        "variant_operator.py": (
            "from ..engine.variants import build_variant_operator\n"
        ),
    }
    for name, text in bad.items():
        (runtime / name).write_text(text)
    (runtime / "good.py").write_text(
        "from ..expr.vectorizer import vectorize_key\n"
        "from ..expr import expressions, parse_scalar\n"
        "from ..engine.variants import build_variant_kernel, is_sliding\n"
    )
    flagged = importers(
        sorted(runtime.glob("*.py")), tmp_path, EVALUATOR + ROW_OPERATORS
    )
    assert sorted(path.name for path in flagged) == sorted(bad)


def test_scanner_covers_the_front_end(tmp_path):
    """Known-bad companion for ``gsql/``: an analyzer taking the names it
    accepts from the row evaluator's table is flagged; one taking them
    from the vectorizer is not."""
    assert SRC / "repro" / "gsql" / "analyzer.py" in RUNTIME
    gsql = tmp_path / "repro" / "gsql"
    gsql.mkdir(parents=True)
    (gsql / "analyzer.py").write_text("from ..expr.evaluator import _SCALAR_FUNCS\n")
    (gsql / "parser.py").write_text("from ..expr.vectorizer import SCALAR_FUNCTIONS\n")
    flagged = importers(sorted(gsql.glob("*.py")), tmp_path, EVALUATOR)
    assert [path.name for path in flagged] == ["analyzer.py"]
