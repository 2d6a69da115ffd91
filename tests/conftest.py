"""Hypothesis profiles for the suite.

``default`` is derandomized and keeps no example database, so tier-1
draws the same examples on every run and on every host.  ``soak`` is
random, draws 200 examples per test that does not set its own count and
prints the blob that replays a failure; CI runs the generative oracle
under it::

    python -m pytest tests/test_generative_oracle.py --hypothesis-profile=soak
"""

from hypothesis import settings

settings.register_profile("default", derandomize=True, database=None)
settings.register_profile(
    "soak", derandomize=False, max_examples=200, print_blob=True
)
