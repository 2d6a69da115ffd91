"""Reversible random number generation (ROSS ``tw_rand`` analog).

See :mod:`repro.rng.streams` for the per-LP stream API and
:mod:`repro.rng.lcg` for the underlying invertible generator.
"""

from repro._lazy import lazy_index

__all__, __getattr__, __dir__ = lazy_index(globals(), {
    "repro.rng.lcg": (
        "INCREMENT", "MASK64", "MULTIPLIER", "MULTIPLIER_INV", "affine_pow",
        "lcg_jump", "lcg_next", "lcg_output", "lcg_prev", "splitmix64",
    ),
    "repro.rng.streams": ("ReversibleStream", "derive_seed"),
})
