"""Property-based tests for torus geometry (DESIGN.md invariant 6)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.directions import DIRECTIONS
from repro.net.mesh import MeshTopology
from repro.net.torus import TorusTopology
from tests.net_checks import assert_route_info_matches_methods

dims = st.integers(min_value=2, max_value=16)


@st.composite
def torus_and_two_nodes(draw):
    rows = draw(dims)
    cols = draw(dims)
    t = TorusTopology(rows, cols)
    a = draw(st.integers(min_value=0, max_value=t.num_nodes - 1))
    b = draw(st.integers(min_value=0, max_value=t.num_nodes - 1))
    return t, a, b


@given(torus_and_two_nodes())
def test_distance_symmetry(tab):
    t, a, b = tab
    assert t.distance(a, b) == t.distance(b, a)


@given(torus_and_two_nodes())
def test_distance_identity(tab):
    t, a, b = tab
    assert (t.distance(a, b) == 0) == (a == b)


@st.composite
def torus_and_three_nodes(draw):
    rows = draw(dims)
    cols = draw(dims)
    t = TorusTopology(rows, cols)
    nodes = [
        draw(st.integers(min_value=0, max_value=t.num_nodes - 1)) for _ in range(3)
    ]
    return (t, *nodes)


@given(torus_and_three_nodes())
def test_triangle_inequality(tabc):
    t, a, b, c = tabc
    assert t.distance(a, c) <= t.distance(a, b) + t.distance(b, c)


@given(torus_and_two_nodes())
def test_neighbors_are_at_distance_one(tab):
    t, a, _ = tab
    for d in DIRECTIONS:
        assert t.distance(a, t.neighbor(a, d)) in (0, 1)  # 0 on 2-rings


@given(torus_and_two_nodes())
def test_good_dirs_strictly_decrease_distance(tab):
    t, a, b = tab
    base = t.distance(a, b)
    for d in t.good_dirs(a, b):
        assert t.distance(t.neighbor(a, d), b) == base - 1


@given(torus_and_two_nodes())
def test_some_good_dir_exists_unless_at_destination(tab):
    t, a, b = tab
    if a != b:
        assert t.good_dirs(a, b)


@given(torus_and_two_nodes())
def test_homerun_follows_good_links(tab):
    t, a, b = tab
    if a == b:
        return
    d = t.homerun_dir(a, b)
    # The home-run hop always makes progress (it is a greed path).
    assert t.distance(t.neighbor(a, d), b) == t.distance(a, b) - 1


@given(torus_and_two_nodes())
def test_homerun_terminates_within_diameter(tab):
    t, a, b = tab
    node, hops = a, 0
    while node != b:
        node = t.neighbor(node, t.homerun_dir(node, b))
        hops += 1
        assert hops <= t.diameter() + 1
    assert hops == t.distance(a, b)


@st.composite
def large_grid_and_pairs(draw):
    """A torus or mesh of up to 256×256 and a few node pairs; in half the
    draws some of the sampled sources have a failed link."""
    rows = draw(st.integers(min_value=2, max_value=256))
    cols = draw(st.integers(min_value=2, max_value=256))
    cls = draw(st.sampled_from([TorusTopology, MeshTopology]))
    node = st.integers(min_value=0, max_value=rows * cols - 1)
    pairs = draw(st.lists(st.tuples(node, node), min_size=1, max_size=8))
    failed = []
    if draw(st.booleans()):
        for src, _ in pairs[:3]:
            d = draw(st.sampled_from(DIRECTIONS))
            r, c = divmod(src, cols)
            if cls.wraps or (
                0 <= r + d.delta[0] < rows and 0 <= c + d.delta[1] < cols
            ):
                failed.append((src, d))
    return cls(rows, cols, failed_links=failed), pairs


@settings(deadline=None, max_examples=30)
@given(large_grid_and_pairs())
def test_route_info_matches_methods_at_paper_scale(grid_and_pairs):
    topo, pairs = grid_and_pairs
    for src, dst in pairs:
        assert_route_info_matches_methods(topo, src, dst)
        # The reverse pair reads the slot on the other side of the table.
        assert_route_info_matches_methods(topo, dst, src)
