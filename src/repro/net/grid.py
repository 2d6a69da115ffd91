"""The N×N (and R×C) grid of routers, torus or mesh, and its routing geometry.

Routers are numbered row-major and neighbor ids are computed
arithmetically (§3.1.3: an eastward send from LP ``x`` goes to
``((x // C) * C) + ((x + 1) % C)`` on the torus).  The simulation uses the
torus; the analysis of Busch, Herlihy & Wattenhofer uses the mesh
"because it makes the problem more tractable" (§1.1).  One class states
both: :class:`GridTopology` reads ``wraps`` wherever they differ, and
:class:`TorusTopology` / :class:`MeshTopology` only set it.  Besides the
arithmetic it states the routing geometry: *good links* (directions that
bring a packet closer), the *home-run* path (one bend, row first, used by
Excited and Running packets) and the *turn* predicate (where a Running
packet may be deflected).  The per-pair methods are the definition;
the routers ask for all four values at once through
:meth:`GridTopology.route_info`, one read of a displacement-indexed table.
"""

from __future__ import annotations

from repro.errors import TopologyError
from repro.net.directions import DIRECTIONS, Direction

__all__ = ["GridTopology", "MeshTopology", "TorusTopology"]


class GridTopology:
    """A rows × cols grid of routers with up to four bidirectional links each.

    Parameters
    ----------
    rows, cols:
        Grid dimensions; ``cols`` defaults to ``rows`` (the paper's N×N
        case).  Both must be at least 2 (on a 2-wide torus opposite
        directions reach the same neighbor, which the algorithm tolerates).
    failed_links:
        Optional iterable of ``(node, direction)`` pairs naming links
        that are permanently out of service (failures known at network
        boot; see :mod:`repro.faults`).  Each failure masks the link on
        *both* endpoints: ``neighbor`` returns ``None`` across it and
        good directions never point into it, so ``route_info`` plans
        around the failure.  ``distance`` stays geometric — the paper's
        potential-function arguments are about the healthy grid, and a
        faulted network no longer guarantees them.

    Node ids are row-major: ``id = r * cols + c``; rows grow southward,
    columns eastward (:class:`~repro.net.directions.Direction`).  A mesh
    edge node has fewer links: ``neighbor`` returns ``None`` off the
    grid, and good and home-run directions never point there.
    """

    #: True for the torus (every coordinate wraps), False for the mesh.
    wraps: bool

    def __init__(
        self, rows: int, cols: int | None = None, *, failed_links=None
    ) -> None:
        if cols is None:
            cols = rows
        if rows < 2 or cols < 2:
            raise TopologyError(
                f"{self._shape} dimensions must be >= 2, got {rows}x{cols}"
            )
        self.rows = rows
        self.cols = cols
        self.num_nodes = rows * cols
        self._failed: frozenset[tuple[int, int]] = frozenset()
        if failed_links:
            self._failed = self._normalize_failed(failed_links)
        self._build_route_table()

    @property
    def _shape(self) -> str:
        return "torus" if self.wraps else "mesh"

    @property
    def failed_links(self) -> frozenset[tuple[int, int]]:
        """Masked ``(node, direction)`` endpoint pairs (both ends listed)."""
        return self._failed

    def coords(self, node: int) -> tuple[int, int]:
        """(row, col) of a node id."""
        if not 0 <= node < self.num_nodes:
            raise TopologyError(
                f"node id {node} out of range for {self.rows}x{self.cols} "
                f"{self._shape}"
            )
        return divmod(node, self.cols)

    def node_id(self, row: int, col: int) -> int:
        """Node id of (row, col): taken modulo a torus, refused off a mesh."""
        if self.wraps:
            row %= self.rows
            col %= self.cols
        elif not (0 <= row < self.rows and 0 <= col < self.cols):
            raise TopologyError(
                f"({row}, {col}) outside {self.rows}x{self.cols} mesh"
            )
        return row * self.cols + col

    def neighbor(self, node: int, direction: Direction) -> int | None:
        """The node one hop away, or ``None`` off a mesh edge or across a
        failed link."""
        r, c = self.coords(node)
        if self._failed and (node, direction) in self._failed:
            return None
        dr, dc = direction.delta
        r += dr
        c += dc
        if self.wraps:
            return (r % self.rows) * self.cols + c % self.cols
        if 0 <= r < self.rows and 0 <= c < self.cols:
            return r * self.cols + c
        return None

    def neighbors(self, node: int) -> tuple[int | None, ...]:
        """All four neighbor slots, indexed by :class:`Direction`."""
        return tuple(self.neighbor(node, d) for d in DIRECTIONS)

    def degree(self, node: int) -> int:
        """Number of usable links (4 on a healthy torus; 2 at a mesh
        corner, 3 on a mesh edge)."""
        return sum(nb is not None for nb in self.neighbors(node))

    def delta(self, src: int, dst: int) -> tuple[int, int]:
        """Minimal signed (row, col) displacement from src to dst.

        Positive means southward / eastward.  On a torus each component
        lies in ``(-size/2, size/2]``: the antipodal tie of an even ring
        resolves to the positive direction, deterministically.
        """
        sr, sc = self.coords(src)
        dr, dc = self.coords(dst)
        return (
            _axis_delta(dr - sr, self.rows, self.wraps),
            _axis_delta(dc - sc, self.cols, self.wraps),
        )

    def distance(self, src: int, dst: int) -> int:
        """Hop distance: Manhattan, with wraparound on the torus."""
        rd, cd = self.delta(src, dst)
        return abs(rd) + abs(cd)

    def diameter(self) -> int:
        """Maximum distance between any two nodes: 2(N-1) on an N×N mesh,
        about N on the torus (§1.1)."""
        if self.wraps:
            return self.rows // 2 + self.cols // 2
        return (self.rows - 1) + (self.cols - 1)

    def good_dirs(self, src: int, dst: int) -> tuple[Direction, ...]:
        """Directions whose single hop strictly decreases distance to dst.

        These are the paper's *good links* (§1.2.4): none at ``dst``, else
        row and/or column progress (both ways at a torus antipodal tie),
        horizontal first, matching the home-run (row-first) orientation.
        """
        rd, cd = self.delta(src, dst)
        out = _progress(cd, self.cols, self.wraps, Direction.EAST, Direction.WEST)
        out += _progress(rd, self.rows, self.wraps, Direction.SOUTH, Direction.NORTH)
        if self._failed:
            out = tuple([d for d in out if (src, d) not in self._failed])
        return out

    def homerun_dir(self, src: int, dst: int) -> Direction | None:
        """The next hop of the *home-run* (one-bend, row-first) path.

        It moves within the row to the destination column, then turns and
        follows the column to ``dst`` (§1.2.4); ``None`` at ``dst``.
        """
        rd, cd = self.delta(src, dst)
        if cd:
            return Direction.EAST if cd > 0 else Direction.WEST
        if rd:
            return Direction.SOUTH if rd > 0 else Direction.NORTH
        return None

    def is_turning(self, src: int, dst: int) -> bool:
        """True when a home-run packet at ``src`` is at its *turn*: it has
        reached the destination column but not yet the destination row.
        Running packets may only be deflected at this step (§1.2.5).
        """
        rd, cd = self.delta(src, dst)
        return cd == 0 and rd != 0

    def _build_route_table(self) -> None:
        """Fill the displacement table, node linearisation and fault masks.

        On a grid the four routing values of a pair depend only on the
        displacement (Δrow, Δcol), never on where the pair sits, so one
        table with a slot per displacement — ``(2·rows−1)·(2·cols−1)``
        slots — answers every pair, with no state kept per pair.  A node's
        linear coordinate is ``row·(2·cols−1) + col``, so the difference
        of two of them encodes (Δrow, Δcol) uniquely in ``±(slots−1)/2``;
        negative differences index the table from its end, which is why
        no offset is added.  Displacements that are the same move on the
        torus ring (Δ and Δ ± size) share one entry.
        """
        rows, cols = self.rows, self.cols
        width = 2 * cols - 1
        row_steps = _axis_steps(rows, self.wraps, Direction.SOUTH, Direction.NORTH)
        col_steps = _axis_steps(cols, self.wraps, Direction.EAST, Direction.WEST)
        table: list = [None] * ((2 * rows - 1) * width)
        entries: dict[tuple[int, int], tuple] = {}
        goods: dict[tuple, tuple] = {}
        for raw_r, (rd, good_r) in enumerate(row_steps, 1 - rows):
            base = raw_r * width
            for raw_c, (cd, good_c) in enumerate(col_steps, 1 - cols):
                info = entries.get((rd, cd))
                if info is None:
                    # Horizontal progress first: the head of the good
                    # links is the home-run (row-first) hop.
                    good = good_c + good_r
                    good = goods.setdefault(good, good)
                    info = entries[rd, cd] = (
                        good,
                        good[0] if good else None,
                        cd == 0 and rd != 0,
                        abs(cd) + abs(rd),
                    )
                table[base + raw_c] = info
        self._route_table = table
        self._lin = [
            (node // cols) * width + node % cols for node in range(self.num_nodes)
        ]
        #: Failed directions per node, for the nodes that have any.
        self._blocked_at: dict[int, set[int]] = {}
        for node, direction in self._failed:
            self._blocked_at.setdefault(node, set()).add(direction)

    @property
    def displacement_table(self) -> tuple[list, list]:
        """``(table, lin)`` with ``table[lin[dst] - lin[src]]`` equal to
        ``route_info(src, dst)`` for every source without a failed link —
        for a loop that inlines the read (the sequential band program,
        which reads a failed link as claimed).  Both lists are read-only.
        """
        return self._route_table, self._lin

    def route_info(
        self, src: int, dst: int
    ) -> tuple[tuple[Direction, ...], Direction | None, bool, int]:
        """``(good_dirs, homerun_dir, is_turning, distance)`` for one pair.

        One table read on the displacement ``dst − src``; equal to calling
        the four methods separately, which the tests assert for every pair
        of several grid shapes.  Nothing is stored per pair: a source with
        a failed link gets the healthy entry with its dead directions
        dropped from the good links (home-run hop, turn and distance stay
        geometric).
        """
        lin = self._lin
        info = self._route_table[lin[dst] - lin[src]]
        if self._blocked_at:
            blocked = self._blocked_at.get(src)
            if blocked is not None:
                good = tuple([d for d in info[0] if d not in blocked])
                return (good, info[1], info[2], info[3])
        return info

    def _normalize_failed(self, failed_links) -> frozenset:
        """Normalise ``(node, direction)`` failures to both link endpoints.

        Called from ``__init__`` before the mask is installed, so
        ``neighbor`` still sees the healthy grid.
        """
        failed: set[tuple[int, int]] = set()
        for node, direction in failed_links:
            try:
                d = Direction(direction)
            except ValueError:
                raise TopologyError(
                    f"failed link ({node}, {direction!r}): direction must be 0..3"
                ) from None
            if not 0 <= node < self.num_nodes:
                raise TopologyError(
                    f"failed link names node {node}, out of range for {self!r}"
                )
            peer = self.neighbor(node, d)
            if peer is None:
                raise TopologyError(
                    f"failed link ({node}, {d.name}) does not exist in {self!r}"
                )
            failed.add((node, int(d)))
            failed.add((peer, int(d.opposite)))
        return frozenset(failed)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.rows}x{self.cols})"


class TorusTopology(GridTopology):
    """The torus: every row and column wraps around (the simulated network)."""

    wraps = True


class MeshTopology(GridTopology):
    """The mesh: no wraparound (the network of the theoretical analysis)."""

    wraps = False


def _axis_delta(raw: int, size: int, wraps: bool) -> int:
    """Minimal signed displacement of a raw coordinate difference along
    one axis: itself on a mesh, in ``(-size/2, size/2]`` on a ring."""
    if wraps:
        raw %= size
        if raw > size // 2:
            raw -= size
    return raw


def _progress(delta: int, size: int, wraps: bool, forward, backward) -> tuple:
    """The directions along one axis that shrink a signed ``delta``: both
    at a ring's antipodal tie, ``forward`` first."""
    if delta > 0:
        return (forward, backward) if wraps and 2 * delta == size else (forward,)
    return (backward,) if delta < 0 else ()


def _axis_steps(size: int, wraps: bool, forward, backward) -> list:
    """``(signed minimal delta, good directions)`` for each raw coordinate
    difference ``1−size .. size−1`` along one axis, in that order."""
    steps = []
    for raw in range(1 - size, size):
        delta = _axis_delta(raw, size, wraps)
        steps.append((delta, _progress(delta, size, wraps, forward, backward)))
    return steps
