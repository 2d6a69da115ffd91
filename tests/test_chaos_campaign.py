"""Chaos harness: episodes are deterministic, invariants hold, campaigns
resume from their journal."""

import dataclasses
import json

import pytest

from repro.chaos import (
    DISTURBANCES,
    EpisodeRecipe,
    derive_recipe,
    run_campaign,
    run_episode,
)

CAMPAIGN_SEED = 0xC4A05


def _recipe(disturbance: str, **overrides) -> EpisodeRecipe:
    base = dict(
        episode=0, seed=123, n=4, load=0.5, duration=12.0,
        fault=None, adversary=None, disturbance=disturbance,
        strike_boundary=10, hard_kill=False,
    )
    base.update(overrides)
    return EpisodeRecipe(**base)


def test_derive_recipe_is_deterministic():
    a = derive_recipe(CAMPAIGN_SEED, 3)
    b = derive_recipe(CAMPAIGN_SEED, 3)
    assert a == b
    assert a != derive_recipe(CAMPAIGN_SEED, 4)
    assert a != derive_recipe(CAMPAIGN_SEED + 1, 3)


def test_derived_recipes_are_well_formed():
    for index in range(16):
        recipe = derive_recipe(CAMPAIGN_SEED, index)
        assert recipe.episode == index
        assert recipe.n in (4, 8)
        assert 0.0 < recipe.load <= 1.0
        assert recipe.duration > 0
        assert recipe.disturbance in DISTURBANCES
        assert recipe.strike_boundary >= 8


@pytest.mark.parametrize("disturbance", DISTURBANCES)
def test_episode_upholds_invariants(disturbance, tmp_path):
    result = run_episode(_recipe(disturbance), tmp_path / "work")
    assert result.violations == []
    assert result.committed > 0
    if disturbance == "watchdog_restore":
        assert result.actions, "forced watchdog episode recorded no recovery"


def test_episode_hard_kill_resume(tmp_path):
    """Deleting the newest snapshot still converges from the older one."""
    result = run_episode(
        _recipe("kill_resume", hard_kill=True, strike_boundary=20,
                duration=16.0),
        tmp_path / "work",
    )
    assert result.violations == []


def test_episode_with_faults_and_adversary(tmp_path):
    result = run_episode(
        _recipe(
            "none",
            fault={"link_rate": 0.05, "seed": 9},
            adversary={"strategy": "hotspot", "rate": 1.0, "seed": 11},
        ),
        tmp_path / "work",
    )
    assert result.violations == []


def test_campaign_journals_and_resumes(tmp_path):
    out = tmp_path / "campaign"
    first = run_campaign(seed=CAMPAIGN_SEED, episodes=2, out_dir=out)
    assert first.ok
    assert first.episodes == 2
    assert first.skipped == 0

    journal = out / "episodes.jsonl"
    lines = [json.loads(l) for l in journal.read_text().splitlines()]
    assert [doc["episode"] for doc in lines] == [0, 1]
    assert all(doc["ok"] for doc in lines)
    # The journal captures the full recipe, so a campaign is auditable.
    assert lines[0]["recipe"] == dataclasses.asdict(
        derive_recipe(CAMPAIGN_SEED, 0)
    )

    # Resuming skips the journaled episodes and runs only the new one.
    second = run_campaign(seed=CAMPAIGN_SEED, episodes=3, out_dir=out)
    assert second.ok
    assert second.episodes == 3
    assert second.skipped == 2
    lines = [json.loads(l) for l in journal.read_text().splitlines()]
    assert [doc["episode"] for doc in lines] == [0, 1, 2]


def test_campaign_counts_journaled_violations(tmp_path):
    """A journaled violation keeps failing the campaign on resume."""
    out = tmp_path / "campaign"
    out.mkdir()
    fake = {"t": "episode", "episode": 0, "ok": False, "violations": ["x"]}
    (out / "episodes.jsonl").write_text(json.dumps(fake) + "\n")
    totals = run_campaign(seed=CAMPAIGN_SEED, episodes=1, out_dir=out)
    assert totals.episodes == 1
    assert totals.skipped == 1
    assert totals.violations == 1
    assert not totals.ok


def test_chaos_cli_smoke(tmp_path, capsys):
    from repro.chaos.__main__ import main

    out = tmp_path / "cli"
    assert main(["--episodes", "1", "--out-dir", str(out), "--quiet"]) == 0
    assert (out / "episodes.jsonl").exists()
    assert "0 violation(s)" in capsys.readouterr().out
