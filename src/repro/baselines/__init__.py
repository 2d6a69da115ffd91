"""Baseline algorithms the hot-potato algorithm is compared against.

* Deflection policies (:mod:`repro.baselines.policies`) plug into the same
  bufferless router as the Busch et al. algorithm;
* the buffered, flow-controlled store-and-forward network
  (:mod:`repro.baselines.buffered`) provides the "with flow control"
  contrast implied by the paper's title.
"""

from repro.baselines.buffered import BufferedConfig, BufferedModel, BufferedRouterLP
from repro.baselines.policies import (
    POLICIES,
    GreedyPolicy,
    RandomDeflectionPolicy,
    TwoChoicePolicy,
    make_policy,
)

__all__ = [
    "BufferedConfig",
    "BufferedModel",
    "BufferedRouterLP",
    "GreedyPolicy",
    "POLICIES",
    "RandomDeflectionPolicy",
    "TwoChoicePolicy",
    "make_policy",
]
