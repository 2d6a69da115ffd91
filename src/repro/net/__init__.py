"""Network topology substrate: grid directions and the torus / mesh geometry.

:class:`~repro.net.grid.GridTopology` is the one grid class the routing
models consume: id/coordinate arithmetic, neighbor lookup, distance, good
links, home-run paths, the turn predicate, and ``route_info`` — the four
routing values of a pair at once, read from a displacement-indexed table.
:class:`TorusTopology` and :class:`MeshTopology` differ only in whether
the grid wraps.
"""

from __future__ import annotations

from repro.net.directions import DIRECTIONS, NO_DIRECTION, Direction
from repro.net.grid import GridTopology, MeshTopology, TorusTopology

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
#: configs resolve a topology name to its class.
TOPOLOGIES: dict[str, type[GridTopology]] = {
    "torus": TorusTopology,
    "mesh": MeshTopology,
}
