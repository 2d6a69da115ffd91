"""Displacement-indexed routing geometry shared by torus and mesh.

On a grid the good links, the home-run hop, the turn predicate and the
distance of a (src, dst) pair depend only on the displacement
(Δrow, Δcol) between the two nodes, never on where the pair sits.  So a
topology answers every :meth:`DisplacementRouting.route_info` query from
one table with a slot per displacement — ``(2·rows−1)·(2·cols−1)`` slots,
built once in the constructor — instead of keeping state per pair.
"""

from __future__ import annotations

from repro.net.directions import Direction

__all__ = ["DisplacementRouting"]


class DisplacementRouting:
    """Mixin giving a grid topology its ``route_info`` method.

    The host class supplies ``rows``, ``cols``, ``num_nodes``, ``wraps``,
    ``signed_row_delta``/``signed_col_delta`` and the normalised
    ``_failed`` endpoint set, then calls :meth:`_build_route_table` at the
    end of its ``__init__``.
    """

    def _build_route_table(self) -> None:
        """Fill the displacement table, node linearisation and fault masks.

        A node's linear coordinate is ``row·(2·cols−1) + col``, so the
        difference of two of them encodes (Δrow, Δcol) uniquely in
        ``±(slots−1)/2``; negative differences index the table from its
        end, which is why no offset is added.  Displacements that are the
        same move on the torus ring (Δ and Δ ± size) share one entry.
        """
        rows, cols = self.rows, self.cols
        width = 2 * cols - 1
        row_steps = _axis_steps(
            self.signed_row_delta, rows, self.wraps, Direction.SOUTH, Direction.NORTH
        )
        col_steps = _axis_steps(
            self.signed_col_delta, cols, self.wraps, Direction.EAST, Direction.WEST
        )
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
        which a fault plan switches off).  Both lists are read-only.
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


def _axis_steps(delta_of, size: int, wraps: bool, forward, backward) -> list:
    """``(signed minimal delta, good directions)`` per step along one axis.

    One item for each raw coordinate difference ``1−size .. size−1``, in
    that order.  Only a wrapping axis has antipodal ties, where both
    directions make progress and ``forward`` is listed first.
    """
    steps = []
    for raw in range(1 - size, size):
        delta = delta_of(0, raw) if raw >= 0 else delta_of(-raw, 0)
        if delta > 0:
            good = (forward, backward) if wraps and 2 * delta == size else (forward,)
        elif delta < 0:
            good = (backward,)
        else:
            good = ()
        steps.append((delta, good))
    return steps
