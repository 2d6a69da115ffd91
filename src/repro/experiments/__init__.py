"""Experiment harness: one module per figure of the report's evaluation.

Each module declares its sweep points (``points(params)``) and builds its
table from their results (``table(params, results)``);
:func:`repro.experiments.runner.run_sweep` runs each distinct point of a
sweep once.  See DESIGN.md's per-experiment index for the id → figure
mapping, and ``python -m repro.experiments all`` to regenerate
everything.
"""

from repro.experiments.common import SweepParams
from repro.experiments.report import Table

__all__ = ["SweepParams", "Table", "EXPERIMENTS", "run_experiment"]


def __getattr__(name: str):
    # figures.py imports every experiment module; load lazily so that
    # `from repro.experiments import Table` stays cheap.
    if name in ("EXPERIMENTS", "run_experiment", "experiment_ids"):
        from repro.experiments import figures

        return getattr(figures, name)
    raise AttributeError(f"module 'repro.experiments' has no attribute {name!r}")
