"""Every command CI, the verify recipe and the docs name must exist.

Deleting a module, subcommand, flag or script without updating the files
that tell people (and CI runners) to run it leaves a red step nobody
sees until push.  ``docs/history/`` is left out: it names removed
commands on purpose.
"""

import argparse
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
#: The run recipes: each names both modules and scripts.
RECIPES = [".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"]
SOURCES = RECIPES + ["README.md", "DESIGN.md", "EXPERIMENTS.md"] + sorted(
    path.relative_to(ROOT).as_posix() for path in (ROOT / "docs").glob("*.md")
)

_MODULE = re.compile(r"\bpython3? -m (repro(?:\.\w+)+)")
_SCRIPT = re.compile(r"\bpython3? ([\w./-]+\.py)\b")
#: A command's arguments: up to a closing backtick or an unescaped
#: newline (a trailing backslash continues the line).
_TAIL = re.compile(r"(?:[^`\n\\]|\\\n|\\(?!\n))*")
#: Where the shell takes over from the command's own arguments.
_SHELL = re.compile(r"\s(?:[|;&<>#)]|\d?>)")
#: Modules whose ``__main__`` runs on import: where their parser lives.
_PARSER_HOME = {"repro.experiments": "repro.experiments.runner"}


def _commands(text):
    """``(module, argument words)`` for each ``python -m repro.X``."""
    for match in _MODULE.finditer(text):
        tail = _TAIL.match(text, match.end()).group().replace("\\\n", " ")
        tail = _SHELL.split(" " + tail, maxsplit=1)[0]
        yield match.group(1), tail.split()


def _options(parser):
    return {s for action in parser._actions for s in action.option_strings}


def _stale_words(module, words):
    """The subcommand or flags in ``words`` the module's parser lacks."""
    parser = importlib.import_module(
        _PARSER_HOME.get(module, module + ".__main__")).build_parser()
    options = _options(parser)
    subparsers = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
    positional = [w for w in words if not w.startswith("-")]
    stale = []
    if subparsers and positional:
        choices = subparsers[0].choices
        if positional[0] not in choices:
            return [positional[0]]
        options |= _options(choices[positional[0]])
    for word in words:
        flag = word.split("=", 1)[0]
        if flag.startswith("--") and flag not in options:
            stale.append(flag)
    return stale


@pytest.mark.parametrize("source", SOURCES)
def test_named_commands_exist(source):
    text = (ROOT / source).read_text()
    modules, scripts = set(_MODULE.findall(text)), set(_SCRIPT.findall(text))
    if source in RECIPES:
        assert modules and scripts, f"{source} names no command: pattern rotted?"
    missing = [
        f"python -m {module}"
        for module in sorted(modules)
        if not (ROOT / "src" / module.replace(".", "/") / "__main__.py").is_file()
    ] + [
        f"python {script}"
        for script in sorted(scripts)
        if not (ROOT / script).is_file()
    ]
    assert not missing, f"{source} names commands that do not exist: {missing}"
    stale = [
        f"python -m {module} {' '.join(words)}: {bad}"
        for module, words in _commands(text)
        if f"python -m {module}" not in missing
        for bad in _stale_words(module, words)
    ]
    assert not stale, f"{source} names subcommands or flags that do not exist: {stale}"
