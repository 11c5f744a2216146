"""The docs describe the tree that exists."""

import pathlib
import re
import shlex

import pytest

from repro.cli import build_parser

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


DOCS = ("README.md", "DESIGN.md")


def _prose_and_code(name):
    """(prose, fenced code) of one document, backslash continuations
    joined so a wrapped command reads as the one line the shell sees."""
    text = re.sub(r"\\\n\s*", " ", (ROOT / name).read_text())
    pieces = text.split("```")
    return "\n".join(pieces[0::2]), "\n".join(pieces[1::2])


def _quoted_commands():
    """Every ``python -m repro <args>`` in the docs, as argv lists: the
    lines of fenced blocks (a trailing ``# comment`` dropped) and the
    inline code spans of the prose."""
    for name in DOCS:
        prose, code = _prose_and_code(name)
        quoted = re.findall(r"python -m repro (\S.*)", code)
        quoted += re.findall(r"`python -m repro ([^`]+)`", prose)
        for arguments in quoted:
            yield name, shlex.split(arguments, comments=True)


def test_quoted_commands_parse():
    """A removed or renamed flag cannot linger in a quoted command:
    every one of them parses under the CLI's own parser."""
    commands = list(_quoted_commands())
    assert len(commands) >= 15  # the README alone quotes that many
    parser = build_parser()
    for name, argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"{name}: `python -m repro {' '.join(argv)}` does not parse")


def test_mentioned_flags_exist(capsys):
    """Prose mentions like ```repro timeline --queue-limit N`` name
    flags the subcommand really has (``--a/--b`` lists included)."""
    mentions = []
    for name in DOCS:
        prose, _ = _prose_and_code(name)
        for command, rest in re.findall(r"`repro (\w+)([^`]*)`", prose):
            mentions += [
                (name, command, flag) for flag in re.findall(r"--[a-z-]+", rest)
            ]
    assert mentions
    for name, command, flag in mentions:
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        options = re.findall(r"--[a-z-]+", capsys.readouterr().out)
        assert flag in options, f"{name}: `repro {command}` has no {flag}"
