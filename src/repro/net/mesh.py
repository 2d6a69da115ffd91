"""N×N rectangular mesh topology (no wraparound).

The theoretical analysis in Busch, Herlihy & Wattenhofer uses the plain
mesh "because it makes the problem more tractable" (§1.1); the simulation
uses the torus.  We provide both so the theoretical configuration can be
simulated too.  The API mirrors :class:`repro.net.torus.TorusTopology`
except that :meth:`neighbor` returns ``None`` off the edge and good/home-run
directions never point off the grid.  ``route_info`` is the same
displacement-table lookup (:class:`~repro.net.geometry.DisplacementRouting`).
"""

from __future__ import annotations

from repro.errors import TopologyError
from repro.net.directions import DIRECTIONS, Direction
from repro.net.geometry import DisplacementRouting
from repro.net.torus import _normalize_failed

__all__ = ["MeshTopology"]


class MeshTopology(DisplacementRouting):
    """A rows × cols mesh of routers; edge nodes have fewer usable links.

    ``failed_links`` marks boot-time-known permanent link failures, with
    the same both-endpoint masking semantics as
    :class:`~repro.net.torus.TorusTopology`.
    """

    #: Mesh edges do not wrap; ``neighbor`` may return ``None``.
    wraps = False

    def __init__(
        self,
        rows: int,
        cols: int | None = None,
        *,
        failed_links=None,
    ) -> None:
        if cols is None:
            cols = rows
        if rows < 2 or cols < 2:
            raise TopologyError(
                f"mesh dimensions must be >= 2, got {rows}x{cols}"
            )
        self.rows = rows
        self.cols = cols
        self.num_nodes = rows * cols
        self._failed: frozenset[tuple[int, int]] = frozenset()
        if failed_links:
            self._failed = _normalize_failed(self, failed_links)
        self._build_route_table()

    @property
    def failed_links(self) -> frozenset[tuple[int, int]]:
        """Masked ``(node, direction)`` endpoint pairs (both ends listed)."""
        return self._failed

    # ------------------------------------------------------------------
    def coords(self, node: int) -> tuple[int, int]:
        """(row, col) of a node id."""
        self._check(node)
        return divmod(node, self.cols)

    def node_id(self, row: int, col: int) -> int:
        """Node id of (row, col); raises if off-grid."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise TopologyError(f"({row}, {col}) outside {self.rows}x{self.cols} mesh")
        return row * self.cols + col

    def neighbor(self, node: int, direction: Direction) -> int | None:
        """Neighbor one hop away, or ``None`` when the hop leaves the grid

        or crosses a failed link."""
        self._check(node)
        if self._failed and (node, direction) in self._failed:
            return None
        r, c = divmod(node, self.cols)
        dr, dc = direction.delta
        nr, nc = r + dr, c + dc
        if 0 <= nr < self.rows and 0 <= nc < self.cols:
            return nr * self.cols + nc
        return None

    def neighbors(self, node: int) -> tuple[int | None, int | None, int | None, int | None]:
        """All four neighbor slots, ``None`` where the grid ends."""
        return tuple(self.neighbor(node, d) for d in DIRECTIONS)  # type: ignore[return-value]

    def degree(self, node: int) -> int:
        """Number of real links at this node (2 at corners, 3 on edges)."""
        return sum(1 for d in DIRECTIONS if self.neighbor(node, d) is not None)

    def _check(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise TopologyError(
                f"node id {node} out of range for {self.rows}x{self.cols} mesh"
            )

    # ------------------------------------------------------------------
    def signed_row_delta(self, src_row: int, dst_row: int) -> int:
        """Signed row displacement (no wrap, so just the difference)."""
        return dst_row - src_row

    def signed_col_delta(self, src_col: int, dst_col: int) -> int:
        """Signed column displacement."""
        return dst_col - src_col

    def distance(self, src: int, dst: int) -> int:
        """Manhattan distance."""
        sr, sc = self.coords(src)
        dr, dc = self.coords(dst)
        return abs(dr - sr) + abs(dc - sc)

    def diameter(self) -> int:
        """Maximum distance between any two nodes: 2(N-1) for N×N (§1.1)."""
        return (self.rows - 1) + (self.cols - 1)

    # ------------------------------------------------------------------
    def good_dirs(self, src: int, dst: int) -> tuple[Direction, ...]:
        """Directions that strictly decrease Manhattan distance to dst."""
        sr, sc = self.coords(src)
        dr, dc = self.coords(dst)
        out: list[Direction] = []
        if dc > sc:
            out.append(Direction.EAST)
        elif dc < sc:
            out.append(Direction.WEST)
        if dr > sr:
            out.append(Direction.SOUTH)
        elif dr < sr:
            out.append(Direction.NORTH)
        if self._failed:
            out = [d for d in out if (src, d) not in self._failed]
        return tuple(out)

    def homerun_dir(self, src: int, dst: int) -> Direction | None:
        """Next hop of the one-bend row-first path (see torus docstring)."""
        sr, sc = self.coords(src)
        dr, dc = self.coords(dst)
        if dc > sc:
            return Direction.EAST
        if dc < sc:
            return Direction.WEST
        if dr > sr:
            return Direction.SOUTH
        if dr < sr:
            return Direction.NORTH
        return None

    def is_turning(self, src: int, dst: int) -> bool:
        """True at the row→column bend of the home-run path."""
        sr, sc = self.coords(src)
        dr, dc = self.coords(dst)
        return sc == dc and sr != dr

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MeshTopology({self.rows}x{self.cols})"
