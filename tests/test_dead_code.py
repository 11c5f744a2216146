"""No dead definitions under ``src/repro``.

Every function, method and class defined there must be named somewhere
in a Python file under ``src/``, ``tests/``, ``benchmarks/`` or
``examples/`` outside its own definition.  A mention counts wherever it
is — a call, an attribute, a string handed to ``getattr`` — so the
check only catches names nothing could be reaching.  Dunder names are
exempt: Python calls them.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ("src", "tests", "benchmarks", "examples")
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
