"""Unit tests for engine configuration validation."""

import dataclasses

import pytest

from repro.core.config import EngineConfig
from repro.errors import ConfigurationError


def test_defaults_valid():
    cfg = EngineConfig(end_time=10.0)
    assert cfg.n_pes == 1
    assert cfg.n_kps == 1
    assert cfg.rollback == "reverse"
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


@pytest.mark.parametrize(
    "kwargs, names",
    [
        (dict(rollback="bogus"), ("'bogus'", "'reverse'", "'copy'")),
        (dict(mapping="bogus"), ("'bogus'", "'block'", "'striped'", "'random'")),
    ],
    ids=["rollback", "mapping"],
)
def test_unknown_choice_refused_up_front_naming_the_choices(kwargs, names):
    # Not a bare ValueError from make_strategy / a late one from
    # build_mapping: the CLI's exit-2-before-fork contract covers these.
    with pytest.raises(ConfigurationError) as excinfo:
        EngineConfig(end_time=5.0, **kwargs)
    assert all(name in str(excinfo.value) for name in names)


@pytest.mark.parametrize(
    "name", ["queue", "transport", "gvt", "cancellation", "pool", "parallelism"]
)
def test_queue_transport_gvt_are_not_fields(name):
    # The kernel has one pending queue, one in-process transport, one
    # in-process GVT estimator, one cancellation mode (aggressive) and
    # always pools events, and ``procs >= 2`` alone selects process
    # mode; none of them is a knob.
    with pytest.raises(TypeError, match=name):
        EngineConfig(end_time=10.0, **{name: "anything"})


def test_field_names_are_pinned():
    # A new knob must show up as a diff of this list (ROADMAP aim 2:
    # every knob is justified by a measurement or a paper claim).
    assert [f.name for f in dataclasses.fields(EngineConfig)] == [
        "end_time", "n_pes", "n_kps", "batch_size", "window", "gvt_interval",
        "mapping", "rollback", "adaptive", "procs", "seed", "paranoid", "cost",
    ]


def test_frozen():
    cfg = EngineConfig(end_time=1.0)
    with pytest.raises(AttributeError):
        cfg.end_time = 2.0


def test_kps_default_to_one_per_pe():
    # The one configuration the default newly accepts: n_pes alone.
    assert EngineConfig(end_time=10.0, n_pes=4).n_kps == 4
    assert EngineConfig(end_time=10.0, n_pes=4, n_kps=16).n_kps == 16
