"""The deterministic half of ``benchmarks/hook_overhead.py``, in tier-1.

The script gates what attaching a hook costs in wall time; that number
means nothing unless the hooked run commits the same events and the hook
was really consulted.  Those two facts do not depend on the clock, so
they are asserted here for every row of the script's table on a tiny
workload (the timing itself runs as its own CI step).
"""

import pytest

from benchmarks.hook_overhead import GATES, deterministic_failures
from repro.hotpotato.config import HotPotatoConfig

TINY = HotPotatoConfig(n=4, duration=10.0, injector_fraction=1.0)


@pytest.mark.parametrize("gate", GATES, ids=[g.id for g in GATES])
def test_hooked_run_commits_identically_and_hook_is_live(gate, tmp_path):
    assert deterministic_failures(gate, TINY, tmp_path) == []


def test_dead_hook_is_reported(tmp_path):
    dead = GATES[0]._replace(live=lambda hook: False)
    (failure,) = deterministic_failures(dead, TINY, tmp_path)
    assert dead.name in failure and dead.expects in failure
