"""Network topology substrate: grid directions, torus and mesh geometry.

The :class:`~repro.net.torus.TorusTopology` and
:class:`~repro.net.mesh.MeshTopology` classes share a duck-typed protocol
(:class:`GridTopology`) consumed by the routing models: id/coordinate
arithmetic, neighbor lookup, distance, good links, home-run paths and the
turn predicate.  Both answer ``route_info`` — the four routing values of a
pair at once — from the displacement table of
:class:`~repro.net.geometry.DisplacementRouting`.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.net.directions import DIRECTIONS, NO_DIRECTION, Direction
from repro.net.mesh import MeshTopology
from repro.net.torus import TorusTopology

__all__ = [
    "DIRECTIONS",
    "Direction",
    "GridTopology",
    "MeshTopology",
    "NO_DIRECTION",
    "TOPOLOGIES",
    "TorusTopology",
]

#: Named topology registry: the single place scenario files, CLIs and
#: configs resolve a topology name to its class.  Future shapes register
#: here (and in HotPotatoConfig.TOPOLOGY_NAMES).
TOPOLOGIES: dict[str, type] = {
    "torus": TorusTopology,
    "mesh": MeshTopology,
}


@runtime_checkable
class GridTopology(Protocol):
    """Structural protocol implemented by torus and mesh topologies."""

    rows: int
    cols: int
    num_nodes: int
    wraps: bool

    def coords(self, node: int) -> tuple[int, int]:
        """(row, col) of a node id."""

    def node_id(self, row: int, col: int) -> int:
        """Node id at (row, col)."""

    def neighbor(self, node: int, direction: Direction) -> int | None:
        """Node one hop away, or None off a mesh edge."""

    def distance(self, src: int, dst: int) -> int:
        """Hop distance between two nodes."""

    def diameter(self) -> int:
        """Maximum distance between any two nodes."""

    def good_dirs(self, src: int, dst: int) -> tuple[Direction, ...]:
        """Directions whose hop strictly decreases distance to dst."""

    def homerun_dir(self, src: int, dst: int) -> Direction | None:
        """Next hop of the one-bend row-first path."""

    def is_turning(self, src: int, dst: int) -> bool:
        """True at the home-run path's row-to-column bend."""

    def route_info(
        self, src: int, dst: int
    ) -> tuple[tuple[Direction, ...], Direction | None, bool, int]:
        """``(good_dirs, homerun_dir, is_turning, distance)`` in one lookup.

        Equal to the four methods above called separately.  Implementations
        keep no per-pair state: the answer is a function of the
        displacement ``dst − src`` and of the failed links at ``src``.
        """
