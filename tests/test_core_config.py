"""Unit tests for engine configuration validation."""

import pytest

from repro.core.config import EngineConfig
from repro.errors import ConfigurationError


def test_defaults_valid():
    cfg = EngineConfig(end_time=10.0)
    assert cfg.n_pes == 1
    assert cfg.rollback == "reverse"
    assert cfg.transport == "immediate"
    assert cfg.gvt == "synchronous"
    assert cfg.window is None


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(end_time=0.0),
        dict(end_time=-1.0),
        dict(end_time=10.0, n_pes=0),
        dict(end_time=10.0, n_pes=4, n_kps=2),
        dict(end_time=10.0, batch_size=0),
        dict(end_time=10.0, gvt_interval=0),
        dict(end_time=10.0, window=0.0),
        dict(end_time=10.0, window=-1.0),
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        EngineConfig(**kwargs)


def test_deleted_splay_queue_rejected():
    with pytest.raises(ConfigurationError, match="'heap' or 'ladder'"):
        EngineConfig(end_time=10.0, queue="splay")


def test_frozen():
    cfg = EngineConfig(end_time=1.0)
    with pytest.raises(AttributeError):
        cfg.end_time = 2.0
