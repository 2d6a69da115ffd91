"""Every command CI, the verify recipe and the docs name must exist.

Deleting a module or script without updating the files that tell people
(and CI runners) to run it leaves a red step nobody sees until push.
``docs/history/`` is left out: it names removed commands on purpose.
"""

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
