"""DESIGN.md's knob budget names every knob there is, and no other.

Each ``EngineConfig`` field, ``HealthConfig`` field and ``python -m
repro.hotpotato`` flag must have a row in the "Knob budget" table citing
what needs it; a row for a knob that no longer exists is stale.  A new
knob therefore arrives with its reason, and a deleted one takes its row
with it.
"""

import dataclasses
import re
from pathlib import Path

from repro.core.config import EngineConfig
from repro.health import HealthConfig
from repro.hotpotato.__main__ import build_parser

DESIGN = Path(__file__).resolve().parent.parent / "DESIGN.md"
#: The knob in a row's first cell: ``Class.field`` or ``--flag``.
_ROW = re.compile(r"^\| `((?:EngineConfig|HealthConfig)\.\w+|--[\w-]+)` \|(.*)\|$")


def _table_rows() -> dict[str, str]:
    text = DESIGN.read_text()
    section = text.split("\n## Knob budget\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        match = _ROW.match(line)
        if match:
            rows[match.group(1)] = match.group(2)
    return rows


def _knobs() -> set[str]:
    fields = {
        f"{cls.__name__}.{f.name}"
        for cls in (EngineConfig, HealthConfig)
        for f in dataclasses.fields(cls)
    }
    flags = {
        s for action in build_parser()._actions for s in action.option_strings
        if s.startswith("--") and s != "--help"
    }
    return fields | flags


def test_every_knob_has_a_row_and_every_row_a_knob():
    rows, knobs = _table_rows(), _knobs()
    assert sorted(knobs - set(rows)) == [], "knobs without a budget row"
    assert sorted(set(rows) - knobs) == [], "budget rows for deleted knobs"


def test_every_row_cites_a_reason():
    for knob, cells in _table_rows().items():
        default, reason = (c.strip() for c in cells.split("|", 1))
        assert default and reason, f"{knob}: row needs a default and a reason"


def test_budget_holds():
    # ROADMAP item 8's exit criterion: at most 24 config fields and 24 flags.
    knobs = _knobs()
    assert len([k for k in knobs if not k.startswith("--")]) <= 24
    assert len([k for k in knobs if k.startswith("--")]) <= 24
