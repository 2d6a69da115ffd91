"""Unit tests for model construction: injector placement, stats collection."""

from repro.core.engine import run_sequential
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.model import HotPotatoModel, choose_injectors
from repro.hotpotato.policy import BuschHotPotatoPolicy
from repro.net import MeshTopology, TorusTopology


def test_choose_injectors_exact_counts():
    for frac, expected in [(0.0, 0), (0.25, 16), (0.5, 32), (0.75, 48), (1.0, 64)]:
        cfg = HotPotatoConfig(n=8, injector_fraction=frac)
        assert sum(choose_injectors(cfg)) == expected


def test_choose_injectors_spread_evenly():
    cfg = HotPotatoConfig(n=8, injector_fraction=0.5)
    marks = choose_injectors(cfg)
    # Every aligned pair of routers contains exactly one injector.
    for i in range(0, 64, 2):
        assert sum(marks[i : i + 2]) == 1


def test_choose_injectors_probabilistic_mode():
    cfg = HotPotatoConfig(n=16, injector_fraction=0.5, exact_injectors=False)
    marks = choose_injectors(cfg)
    count = sum(marks)
    assert 0 < count < 256
    assert 256 * 0.3 < count < 256 * 0.7  # loose binomial bound
    # Deterministic under the layout seed.
    assert marks == choose_injectors(cfg)
    other = HotPotatoConfig(
        n=16, injector_fraction=0.5, exact_injectors=False, layout_seed=7
    )
    assert marks != choose_injectors(other)


def test_model_builds_dense_router_population():
    model = HotPotatoModel(HotPotatoConfig(n=4))
    lps = model.build()
    assert [lp.id for lp in lps] == list(range(16))
    assert model.grid == (4, 4)
    assert isinstance(model.topo, TorusTopology)


def test_mesh_mode():
    model = HotPotatoModel(HotPotatoConfig(n=4, topology="mesh"))
    assert isinstance(model.topo, MeshTopology)
    result = run_sequential(model, 20.0)
    assert result.model_stats["delivered"] > 0


def test_default_policy_is_busch():
    model = HotPotatoModel(HotPotatoConfig(n=4))
    assert isinstance(model.policy, BuschHotPotatoPolicy)


def test_collect_stats_shape():
    cfg = HotPotatoConfig(n=4, duration=20.0, injector_fraction=0.5)
    result = run_sequential(HotPotatoModel(cfg), cfg.duration)
    ms = result.model_stats
    for key in (
        "delivered",
        "injected",
        "initial_packets",
        "avg_delivery_time",
        "avg_inject_wait",
        "max_inject_wait",
        "deflection_rate",
        "per_router",
        "policy",
    ):
        assert key in ms
    assert ms["policy"] == "busch"
    assert ms["n"] == 4
    assert ms["injectors"] == 8
    assert len(ms["per_router"]) == 16
    assert ms["initial_packets"] == 64  # full fill: 4 per router
