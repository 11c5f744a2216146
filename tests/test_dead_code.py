"""No dead definitions under ``src/repro``.

Every function, method and class defined there must be named somewhere
in a Python file under ``src/``, ``tests/``, ``benchmarks/`` or
``examples/`` outside its own definition.  A mention counts wherever it
is — a call, an attribute, a string handed to ``getattr`` — so the
check only catches names nothing could be reaching.  Dunder names are
exempt: Python calls them.

A second scan leaves ``tests/`` out of the corpus: what it finds is
code only tests reach.  Those definitions are frozen in
:data:`TEST_ONLY`, so a new one fails the scan; an entry goes when its
definition goes or gains a caller outside the tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ("src", "tests", "benchmarks", "examples")
RUNTIME_CORPUS = ("src", "benchmarks", "examples")

#: ``(module under src/repro, name)`` of each definition only tests name.
TEST_ONLY = {
    ("advisor.py", "minimum_hosts"),
    ("distopt/plan_ir.py", "parents_of"),
    ("distopt/plan_ir.py", "ops_for"),
    ("distopt/plan_ir.py", "network_edges"),
    ("distopt/render.py", "render_summary"),
    ("engine/panes.py", "is_tumbling"),
    ("gsql/types.py", "is_numeric"),
    ("gsql/types.py", "type_from_name"),
    ("plan/dag.py", "descends_to_source_only_via"),
    ("runtime/backend.py", "cached_operators"),
    ("runtime/flowcontrol.py", "static_host"),
    ("runtime/flowcontrol.py", "partitions_on"),
    ("runtime/metrics.py", "host_cpu_series"),
    ("runtime/metrics.py", "conserves"),
    ("runtime/session.py", "mean_host_cpu_load"),
    ("workloads/experiments.py", "delivered_fraction"),
    ("workloads/experiments.py", "mean_recall"),
}
WORD = re.compile(r"[A-Za-z_]\w*")


def _definitions(path):
    """``(name, first line, last line)`` of each def and class in
    ``path``, decorators included."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        yield node.name, first, node.end_lineno


def dead_definitions(modules, corpus):
    """``(path, line, name)`` of each definition in ``modules`` whose
    name appears in no file of ``corpus`` outside the line spans of the
    definitions carrying that name."""
    spans = {}
    for path in modules:
        for name, first, last in _definitions(path):
            spans.setdefault(name, []).append((path, first, last))
    referenced = set()
    for path in corpus:
        for number, line in enumerate(path.read_text().splitlines(), 1):
            for word in set(WORD.findall(line)):
                if word in referenced or word not in spans:
                    continue
                if not any(
                    where == path and first <= number <= last
                    for where, first, last in spans[word]
                ):
                    referenced.add(word)
    return sorted(
        (where, first, name)
        for name, places in spans.items()
        if name not in referenced
        for where, first, _ in places
    )


def _python_files(*roots):
    return [path for root in roots for path in sorted(root.rglob("*.py"))]


def test_every_definition_is_referenced():
    dead = dead_definitions(
        _python_files(ROOT / "src" / "repro"),
        _python_files(*(ROOT / name for name in CORPUS)),
    )
    assert not dead, "defined but never referenced:\n" + "\n".join(
        f"  {where.relative_to(ROOT)}:{line} {name}" for where, line, name in dead
    )


def test_no_new_test_only_definitions():
    package = ROOT / "src" / "repro"
    test_only = {
        (where.relative_to(package).as_posix(), name)
        for where, _, name in dead_definitions(
            _python_files(package),
            _python_files(*(ROOT / name for name in RUNTIME_CORPUS)),
        )
    }
    assert test_only <= TEST_ONLY, "named only by tests:\n" + "\n".join(
        f"  {where} {name}" for where, name in sorted(test_only - TEST_ONLY)
    )
    assert TEST_ONLY <= test_only, "no longer test-only, drop from TEST_ONLY:\n" + (
        "\n".join(f"  {where} {name}" for where, name in sorted(TEST_ONLY - test_only))
    )


def test_scanner_flags_an_unreferenced_function(tmp_path):
    """Known-bad companion: a function only its own body names is dead;
    the function, class and method the module does reach are not."""
    module = tmp_path / "module.py"
    module.write_text(
        "def used():\n"
        "    return 1\n"
        "\n"
        "\n"
        "def orphan():\n"
        "    return orphan()\n"
        "\n"
        "\n"
        "class Holder:\n"
        "    def method(self):\n"
        "        return used()\n"
        "\n"
        "\n"
        "Holder().method()\n"
    )
    assert dead_definitions([module], [module]) == [(module, 5, "orphan")]


def test_scanner_flags_a_test_only_function(tmp_path):
    """Known-bad companion: a function only a test names is found by the
    scan without the tests, and not by the scan with them."""
    module = tmp_path / "module.py"
    module.write_text("def helper():\n    return 1\n")
    test = tmp_path / "test_module.py"
    test.write_text("from module import helper\n\n\nassert helper() == 1\n")
    assert dead_definitions([module], [module]) == [(module, 1, "helper")]
    assert dead_definitions([module], [module, test]) == []
