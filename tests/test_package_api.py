"""Tests for the public package surface: imports, lazy attributes, errors."""

import pytest

import repro
from repro.errors import (
    ConfigurationError,
    ModelError,
    ReproError,
    RollbackError,
    SchedulingError,
    TopologyError,
)


def test_version():
    assert repro.__version__ == "1.0.0"


def test_top_level_exports_exist():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_lazy_hotpotato_attributes():
    assert repro.HotPotatoConfig is not None
    assert repro.HotPotatoModel is not None
    assert repro.HotPotatoSimulation is not None


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        repro.NoSuchThing


def test_experiments_lazy_attributes():
    import repro.experiments as exp

    assert "fig3" in exp.EXPERIMENTS
    assert callable(exp.run_experiment)
    with pytest.raises(AttributeError):
        exp.nope


@pytest.mark.parametrize(
    "exc",
    [ConfigurationError, SchedulingError, RollbackError, TopologyError, ModelError],
)
def test_error_hierarchy(exc):
    assert issubclass(exc, ReproError)
    assert issubclass(ReproError, Exception)


def test_errors_catchable_as_base():
    with pytest.raises(ReproError):
        raise SchedulingError("x")


def test_console_script_entry_point_importable():
    from repro.experiments.runner import main

    assert callable(main)


def test_models_package():
    from repro.models import PholdConfig, PholdLP, PholdModel

    assert PholdConfig and PholdLP and PholdModel


LAZY_PACKAGES = [
    "repro", "repro.core", "repro.obs", "repro.ckpt", "repro.mp",
    "repro.rng", "repro.vt",
]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_lazy_export_resolves(package):
    import importlib

    pkg = importlib.import_module(package)
    for name in pkg.__all__:
        assert getattr(pkg, name) is not None, f"{package}.{name}"
        assert name in dir(pkg)
    with pytest.raises(AttributeError):
        getattr(pkg, "no_such_export")


def _imports(*flags):
    """``-X importtime`` of one CLI run: (module names in log order, stderr)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro.hotpotato",
         "--n", "4", "--duration", "8", "--seed", "7", *flags],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return [
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and not line.endswith("imported package")
    ]


@pytest.mark.parametrize(
    "flags, unused",
    [
        ((), (
            "repro.core.optimistic", "repro.core.conservative", "repro.mp",
            "repro.ckpt.state", "repro.ckpt.snapshot", "repro.obs.recorder",
            "repro.obs.critpath", "repro.obs.forensics", "repro.health",
        )),
        (("--processors", "2"), (
            "repro.core.conservative", "repro.mp", "repro.ckpt.state",
            "repro.obs.critpath", "repro.health",
        )),
    ],
    ids=["sequential", "time-warp"],
)
def test_a_run_imports_only_what_it_uses(flags, unused):
    loaded = set(_imports(*flags))
    assert "repro.hotpotato.handlers" in loaded
    for name in unused:
        assert not any(m == name or m.startswith(name + ".") for m in loaded), name


@pytest.mark.parametrize("hooked", [False, True], ids=["plain", "every-hook"])
def test_process_mode_compiles_nothing_after_fork(tmp_path, hooked):
    """Parent and workers share one importtime log: a module imported
    after fork shows once per worker, and the resource tracker of
    named shared memory would be a second interpreter (a second site)."""
    from collections import Counter

    hooks = () if not hooked else (
        "--metrics-out", str(tmp_path / "run.jsonl"),
        "--trace-out", str(tmp_path / "run.jsonl"),
        "--spans-out", str(tmp_path / "run.jsonl"),
        "--checkpoint-dir", str(tmp_path / "ckpt"), "--watchdog",
    )
    counts = Counter(_imports("--processors", "2", "--procs", "2", *hooks))
    assert counts["site"] == 1
    assert counts["repro.mp.runtime"] == 1
    assert "multiprocessing.shared_memory" not in counts
    again = {m: n for m, n in counts.items() if m.startswith("repro") and n > 1}
    assert not again
