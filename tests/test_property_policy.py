"""Property-based tests for routing policies over random situations.

Every registered policy (``repro.baselines.POLICIES``) is checked, on a
torus with up to two statically failed links: a failed link is dropped
from ``route_info``'s good links and never offered as free, so a policy
may face a packet whose only progress direction is dead.
"""

from hypothesis import assume, given
from hypothesis import strategies as st

from repro.baselines import POLICIES as REGISTRY
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.packet import Priority
from repro.hotpotato.policy import BuschHotPotatoPolicy
from repro.net import DIRECTIONS, TorusTopology
from repro.rng.streams import ReversibleStream

POLICIES = tuple(REGISTRY[name]() for name in sorted(REGISTRY))
BASELINES = tuple(p for p in POLICIES if p.name != "busch")
#: Two-choice may deflect with a good link free (both samples claimed,
#: the compass-order fallback lands elsewhere): that is its rule.
TAKE_FREE_GOOD = tuple(p for p in POLICIES if p.name != "two-choice")
#: RNG draws one decision may take (two-choice samples two candidates).
MAX_DRAWS = {"two-choice": 2}

N = 8
CFG = HotPotatoConfig(n=N)


@st.composite
def situations(draw):
    # Failures and destinations are biased toward the packet's node and
    # its row and column, so "the only good link is dead" comes up often.
    node = draw(st.integers(min_value=0, max_value=N * N - 1))
    failed = draw(
        st.lists(
            st.tuples(
                st.one_of(
                    st.just(node), st.integers(min_value=0, max_value=N * N - 1)
                ),
                st.integers(min_value=0, max_value=3),
            ),
            max_size=2,
        )
    )
    topo = TorusTopology(N, failed_links=failed)
    offset = st.one_of(st.just(0), st.integers(min_value=0, max_value=N - 1))
    row, col = topo.coords(node)
    dest = topo.node_id((row + draw(offset)) % N, (col + draw(offset)) % N)
    assume(dest != node)
    free = tuple(
        draw(st.booleans()) and topo.neighbor(node, d) is not None
        for d in DIRECTIONS
    )
    assume(any(free))  # bufferless invariant: at least one free link
    priority = Priority(draw(st.integers(min_value=0, max_value=3)))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return topo, node, dest, free, priority, seed


def _route(policy, sit, stream=None):
    topo, node, dest, free, priority, seed = sit
    rng = ReversibleStream(seed) if stream is None else stream
    return policy.route(topo, node, dest, priority, free, rng, CFG)


def _good(sit):
    topo, node, dest = sit[:3]
    return set(topo.route_info(node, dest)[0])


@given(situations())
def test_decision_is_a_plain_six_tuple(sit):
    for policy in POLICIES:
        out = _route(policy, sit)
        assert type(out) is tuple and len(out) == 6, policy.name
        assert type(out[1]) is int, policy.name


@given(situations())
def test_chosen_direction_is_always_free(sit):
    free = sit[3]
    for policy in POLICIES:
        d, *_ = _route(policy, sit)
        assert free[d], f"{policy.name} chose a busy link"


@given(situations())
def test_deflected_flag_matches_goodness(sit):
    good = _good(sit)
    for policy in POLICIES:
        d, _, deflected, *_ = _route(policy, sit)
        assert deflected == (d not in good), policy.name


@given(situations())
def test_good_link_taken_whenever_one_is_free(sit):
    free = sit[3]
    good_free = [d for d in _good(sit) if free[d]]
    for policy in TAKE_FREE_GOOD:
        _, _, deflected, *_ = _route(policy, sit)
        if good_free:
            assert not deflected, (
                f"{policy.name} deflected although a good link was free"
            )


@given(situations())
def test_priority_transitions_are_legal(sit):
    priority = sit[4]
    _, new, deflected, _, demoted, _ = _route(BuschHotPotatoPolicy(), sit)
    if priority == Priority.SLEEPING:
        assert new in (Priority.SLEEPING, Priority.ACTIVE)
    elif priority == Priority.ACTIVE:
        assert new in (Priority.ACTIVE, Priority.EXCITED)
        if new == Priority.EXCITED:
            assert deflected
    elif priority == Priority.EXCITED:
        assert new in (Priority.ACTIVE, Priority.RUNNING)
    else:  # RUNNING
        assert new in (Priority.ACTIVE, Priority.RUNNING)
        if new == Priority.ACTIVE:
            assert demoted


@given(situations())
def test_baseline_policies_never_change_priority(sit):
    for policy in BASELINES:
        _, new, _, upgraded, demoted, _ = _route(policy, sit)
        assert new == Priority.ACTIVE
        assert not upgraded and not demoted


@given(situations())
def test_rng_draw_counts_bounded(sit):
    for policy in POLICIES:
        stream = ReversibleStream(sit[5])
        _route(policy, sit, stream)
        assert stream.count <= MAX_DRAWS.get(policy.name, 1), policy.name
