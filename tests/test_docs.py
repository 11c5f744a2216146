"""The docs describe the tree that exists."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_design_module_inventory_matches_tree():
    """DESIGN.md §3 names every ``src/repro/**/*.py`` and nothing else.

    Inside the section's code block a directory is an entry ending in
    ``/`` at indent 2 and a file an entry ending in ``.py`` at indent 2
    (top level) or 4 (inside the last directory); deeper lines continue
    a description.
    """
    design = (ROOT / "DESIGN.md").read_text()
    section = design.split("## 3. Module inventory")[1].split("\n## ")[0]
    block = section.split("```")[1]
    listed, directory = set(), ""
    for indent, name in re.findall(r"^( {2}| {4})(\S+)", block, re.MULTILINE):
        if name.endswith("/"):
            directory = name
        elif name.endswith(".py"):
            listed.add((directory if len(indent) == 4 else "") + name)
    package = ROOT / "src" / "repro"
    actual = {p.relative_to(package).as_posix() for p in package.rglob("*.py")}
    assert listed == actual, (
        f"not in DESIGN.md §3: {sorted(actual - listed)}; "
        f"listed but absent: {sorted(listed - actual)}"
    )
