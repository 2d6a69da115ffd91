"""Unit tests for HotPotatoConfig validation and derived values."""

import pytest

from repro.errors import ConfigurationError
from repro.hotpotato.config import HotPotatoConfig


def test_defaults():
    cfg = HotPotatoConfig()
    assert cfg.n == 8
    assert cfg.num_routers == 64
    assert cfg.absorb_sleeping
    assert cfg.topology == "torus"
    assert cfg.arrival_jitter


def test_upgrade_probabilities_match_paper():
    cfg = HotPotatoConfig(n=10)
    assert cfg.sleeping_upgrade_p == pytest.approx(1 / 240)  # 1/(24n)
    assert cfg.active_upgrade_p == pytest.approx(1 / 160)  # 1/(16n)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=1),
        dict(duration=0.0),
        dict(injector_fraction=-0.1),
        dict(injector_fraction=1.1),
        dict(initial_fill=2.0),
        dict(jitter_slots=0),
        dict(sleeping_upgrade_scale=0.0),
        dict(active_upgrade_scale=-1.0),
        dict(topology="hexagon"),
    ],
)
def test_invalid_configs(kwargs):
    with pytest.raises(ConfigurationError):
        HotPotatoConfig(**kwargs)


def test_frozen():
    cfg = HotPotatoConfig()
    with pytest.raises(AttributeError):
        cfg.n = 16
