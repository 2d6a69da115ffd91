"""DESIGN.md's knob budget names every knob there is, and no other.

Each ``EngineConfig`` field, ``HealthConfig`` field, ``SweepParams``
field, ``python -m repro.hotpotato`` flag and ``python -m
repro.experiments`` flag must have a row in the "Knob budget" table
citing what needs it; a row for a knob that no longer exists is stale.
A new knob therefore arrives with its reason, and a deleted one takes
its row with it.
"""

import dataclasses
import re
from pathlib import Path

from repro.core.config import EngineConfig
from repro.experiments.common import SweepParams
from repro.experiments.runner import build_parser as sweep_parser
from repro.health import HealthConfig
from repro.hotpotato.__main__ import build_parser

DESIGN = Path(__file__).resolve().parent.parent / "DESIGN.md"
#: A sweep flag's row names its command; a bare flag is repro.hotpotato's.
SWEEP = "repro.experiments "
#: The knob in a row's first cell: ``Class.field``, ``--flag`` or
#: ``repro.experiments --flag``.
_ROW = re.compile(
    r"^\| `((?:EngineConfig|HealthConfig|SweepParams)\.\w+"
    r"|(?:repro\.experiments )?--[\w-]+)` \|(.*)\|$"
)


def _table_rows() -> dict[str, str]:
    text = DESIGN.read_text()
    section = text.split("\n## Knob budget\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        match = _ROW.match(line)
        if match:
            rows[match.group(1)] = match.group(2)
    return rows


def _flags(parser, prefix: str = "") -> set[str]:
    return {
        prefix + s for action in parser._actions for s in action.option_strings
        if s.startswith("--") and s != "--help"
    }


def _fields(*classes) -> set[str]:
    return {f"{cls.__name__}.{f.name}" for cls in classes for f in dataclasses.fields(cls)}


def _knobs() -> set[str]:
    return (
        _fields(EngineConfig, HealthConfig, SweepParams)
        | _flags(build_parser()) | _flags(sweep_parser(), SWEEP)
    )


def test_every_knob_has_a_row_and_every_row_a_knob():
    rows, knobs = _table_rows(), _knobs()
    assert sorted(knobs - set(rows)) == [], "knobs without a budget row"
    assert sorted(set(rows) - knobs) == [], "budget rows for deleted knobs"


def test_every_row_cites_a_reason():
    for knob, cells in _table_rows().items():
        default, reason = (c.strip() for c in cells.split("|", 1))
        assert default and reason, f"{knob}: row needs a default and a reason"


def test_budget_holds():
    # ROADMAP item 8's counts: config fields, the two commands' flags and
    # the sweep's parameters may only go down.
    assert len(_fields(EngineConfig, HealthConfig)) <= 19
    assert len(_fields(SweepParams)) <= 11
    assert len(_flags(build_parser())) <= 24
    assert len(_flags(sweep_parser())) <= 17


def test_sweep_batch_help_says_what_its_row_says():
    # SweepParams.optimism() raises the windowed sweeps' batch to 2^20,
    # so --batch reaches only the runs its budget row names.
    row = _table_rows()[SWEEP + "--batch"]
    reaches = row.split("`SweepParams.batch_size`:", 1)[1].strip()
    help_text = " ".join(sweep_parser().format_help().split())
    assert reaches in help_text
