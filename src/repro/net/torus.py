"""N×N (and R×C) torus topology with hot-potato routing geometry.

The simulation "emulates the topology by restricting where a router can
route a packet" (§3.1.3): routers are numbered row-major and neighbor ids
are computed arithmetically with wraparound, e.g. an eastward send from LP
``x`` goes to ``((x // C) * C) + ((x + 1) % C)``.  This module centralises
that arithmetic plus the routing geometry the algorithm needs:

* *good links* — directions that bring a packet closer to its destination,
* *home-run paths* — the one-bend row-then-column path used by Excited and
  Running packets, and
* the *turn* predicate — Running packets can only be deflected while turning
  from the row phase to the column phase.

The per-pair methods below are the definition; the routers' hot path asks
for all four values at once through ``route_info``, which
:class:`~repro.net.geometry.DisplacementRouting` answers from one table
indexed by the displacement between the two nodes.
"""

from __future__ import annotations

from repro.errors import TopologyError
from repro.net.directions import DIRECTIONS, Direction
from repro.net.geometry import DisplacementRouting

__all__ = ["TorusTopology"]


class TorusTopology(DisplacementRouting):
    """A rows × cols torus of routers with four bidirectional links each.

    Parameters
    ----------
    rows, cols:
        Grid dimensions; ``cols`` defaults to ``rows`` (the paper's N×N
        case).  Both must be at least 2 so every node has four distinct
        links... except that 2 is allowed even though opposite directions
        then reach the same neighbor, which the algorithm tolerates.
    failed_links:
        Optional iterable of ``(node, direction)`` pairs naming links
        that are permanently out of service (failures known at network
        boot; see :mod:`repro.faults`).  Each failure masks the link on
        *both* endpoints: ``neighbor`` returns ``None`` across it and
        good directions never point into it, so ``route_info`` plans
        around the failure.  ``distance`` stays geometric — the paper's
        potential-function arguments are about the healthy grid, and a
        faulted network no longer guarantees them.

    Notes
    -----
    Node ids are row-major: ``id = r * cols + c``.  Rows grow southward,
    columns grow eastward (see :class:`repro.net.directions.Direction`).
    On the torus the maximum distance between nodes is about ``N`` rather
    than ``2N`` for the mesh (§1.1), which is why the simulation uses it.
    """

    #: This topology wraps around; used by models to decide if ``neighbor``
    #: can ever return ``None``.
    wraps = True

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
                f"torus dimensions must be >= 2, got {rows}x{cols}"
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
    # Id / coordinate arithmetic.
    # ------------------------------------------------------------------
    def coords(self, node: int) -> tuple[int, int]:
        """(row, col) of a node id."""
        self._check(node)
        return divmod(node, self.cols)

    def node_id(self, row: int, col: int) -> int:
        """Node id of (row, col); coordinates are taken modulo the grid."""
        return (row % self.rows) * self.cols + (col % self.cols)

    def neighbor(self, node: int, direction: Direction) -> int | None:
        """The node one hop away, or ``None`` across a failed link.

        On a healthy torus the hop always exists (wraparound)."""
        self._check(node)
        if self._failed and (node, direction) in self._failed:
            return None
        r, c = divmod(node, self.cols)
        dr, dc = direction.delta
        return ((r + dr) % self.rows) * self.cols + (c + dc) % self.cols

    def neighbors(self, node: int) -> tuple[int, int, int, int]:
        """All four neighbor ids, indexed by :class:`Direction`."""
        return tuple(self.neighbor(node, d) for d in DIRECTIONS)  # type: ignore[return-value]

    def _check(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise TopologyError(
                f"node id {node} out of range for {self.rows}x{self.cols} torus"
            )

    # ------------------------------------------------------------------
    # Distance geometry.
    # ------------------------------------------------------------------
    def signed_row_delta(self, src_row: int, dst_row: int) -> int:
        """Minimal signed row displacement from src to dst on the ring.

        Positive means southward.  For even rings the antipodal tie
        (|delta| == rows/2) resolves to the positive (southward) direction,
        deterministically.
        """
        return _ring_delta(src_row, dst_row, self.rows)

    def signed_col_delta(self, src_col: int, dst_col: int) -> int:
        """Minimal signed column displacement; positive means eastward."""
        return _ring_delta(src_col, dst_col, self.cols)

    def distance(self, src: int, dst: int) -> int:
        """Torus (wraparound Manhattan) distance between two nodes."""
        sr, sc = self.coords(src)
        dr, dc = self.coords(dst)
        return abs(_ring_delta(sr, dr, self.rows)) + abs(
            _ring_delta(sc, dc, self.cols)
        )

    def diameter(self) -> int:
        """Maximum distance between any two nodes."""
        return self.rows // 2 + self.cols // 2

    # ------------------------------------------------------------------
    # Routing geometry.
    # ------------------------------------------------------------------
    def good_dirs(self, src: int, dst: int) -> tuple[Direction, ...]:
        """Directions whose single hop strictly decreases distance to dst.

        These are the paper's *good links* (§1.2.4).  The result is empty
        iff ``src == dst``; otherwise it has one or two entries (row and/or
        column progress).  Order is deterministic: horizontal progress
        first, matching the home-run (row-first) orientation.
        """
        sr, sc = self.coords(src)
        dr, dc = self.coords(dst)
        out: list[Direction] = []
        cd = _ring_delta(sc, dc, self.cols)
        if cd > 0:
            out.append(Direction.EAST)
            if 2 * cd == self.cols:
                # Antipodal column: both directions make progress; EAST is
                # the canonical pick but WEST is equally good.
                out.append(Direction.WEST)
        elif cd < 0:
            out.append(Direction.WEST)
        rd = _ring_delta(sr, dr, self.rows)
        if rd > 0:
            out.append(Direction.SOUTH)
            if 2 * rd == self.rows:
                out.append(Direction.NORTH)
        elif rd < 0:
            out.append(Direction.NORTH)
        if self._failed:
            out = [d for d in out if (src, d) not in self._failed]
        return tuple(out)

    def homerun_dir(self, src: int, dst: int) -> Direction | None:
        """The next hop of the *home-run* (one-bend, row-first) path.

        The home-run path moves within the row toward the destination
        column (east/west), then turns and follows the column (north/south)
        to the destination node (§1.2.4).  Returns ``None`` when
        ``src == dst``.
        """
        sr, sc = self.coords(src)
        dr, dc = self.coords(dst)
        cd = _ring_delta(sc, dc, self.cols)
        if cd > 0:
            return Direction.EAST
        if cd < 0:
            return Direction.WEST
        rd = _ring_delta(sr, dr, self.rows)
        if rd > 0:
            return Direction.SOUTH
        if rd < 0:
            return Direction.NORTH
        return None

    def is_turning(self, src: int, dst: int) -> bool:
        """True when a home-run packet at ``src`` is at its *turn*: it has

        reached the destination column but not yet the destination row.
        Running packets may only be deflected at this step (§1.2.5).
        """
        sr, sc = self.coords(src)
        dr, dc = self.coords(dst)
        return _ring_delta(sc, dc, self.cols) == 0 and sr != dr

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TorusTopology({self.rows}x{self.cols})"


def _normalize_failed(topo, failed_links) -> frozenset:
    """Normalise ``(node, direction)`` failures to both link endpoints.

    Shared by torus and mesh; called from ``__init__`` before the mask is
    installed, so ``topo.neighbor`` still sees the healthy grid.
    """
    failed: set[tuple[int, int]] = set()
    for node, direction in failed_links:
        try:
            d = Direction(direction)
        except ValueError:
            raise TopologyError(
                f"failed link ({node}, {direction!r}): direction must be 0..3"
            ) from None
        if not 0 <= node < topo.num_nodes:
            raise TopologyError(
                f"failed link names node {node}, out of range for {topo!r}"
            )
        peer = topo.neighbor(node, d)
        if peer is None:
            raise TopologyError(
                f"failed link ({node}, {d.name}) does not exist in {topo!r}"
            )
        failed.add((node, int(d)))
        failed.add((peer, int(d.opposite)))
    return frozenset(failed)


def _ring_delta(src: int, dst: int, size: int) -> int:
    """Minimal signed displacement from src to dst on a ring of ``size``.

    Result lies in ``(-size/2, size/2]``: antipodal ties resolve to the
    positive direction so the choice is deterministic.
    """
    d = (dst - src) % size
    return d if d <= size // 2 else d - size
