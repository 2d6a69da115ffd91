"""Compiled per-node fault views: O(log k) "is this up at step s?" queries.

A :class:`~repro.faults.plan.FaultPlan` is authored as a list of timed
toggle events; routers need the opposite view — *given a step, which of
my links are usable and am I alive?* — and they need it cheap, because
the question sits on the routing hot path.  :func:`compile_node_views`
does the expensive work once, up front:

* link toggles are normalised to **both** endpoints of the physical link
  (a down link can be neither sent on nor claimed from either side),
* a crashed router blocks its neighbors' links *toward* it for the crash
  interval (sending into a dead router is sending into the void), merged
  by interval union with the links' own down intervals,
* each affected node gets a :class:`NodeFaults` view whose queries are a
  ``bisect`` into a sorted tuple of boundary steps — down iff the count
  of boundaries at or before the step is odd.

Nodes untouched by the plan get **no view at all** (the dict simply has
no entry), so the router keeps its ``faults is None`` fast path and a
faults-off run executes exactly the code it executes today.

Static failures — links down from step 0 that never heal — are split out
by :func:`static_failed_links` and applied to the topology itself
(``failed_links=``), modelling failures known at network boot that
``route_info`` plans around; they are excluded from the dynamic views so
the two mechanisms never double-count.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.faults.plan import CRASH, LINK_DOWN, LINK_KINDS, FaultPlan, FaultPlanError
from repro.net.directions import DIRECTIONS, Direction

__all__ = ["NodeFaults", "compile_node_views", "static_failed_links"]

_Interval = tuple[int, int | None]  # [start, end) with None = forever


class NodeFaults:
    """Read-only fault state of one router, queryable by time step.

    ``bounds`` tuples hold the sorted boundary steps of the down
    intervals; state at ``step`` is *down* iff ``bisect_right(bounds,
    step)`` is odd (intervals are closed-open: down at the down step,
    up again at the up step).
    """

    __slots__ = ("_crash", "_dirs")

    def __init__(
        self,
        crash_bounds: tuple[int, ...],
        dir_bounds: tuple[tuple[int, ...], ...],
    ) -> None:
        self._crash = crash_bounds
        self._dirs = dir_bounds

    def crashed(self, step: int) -> bool:
        """True when this router is crashed at ``step``."""
        return bool(bisect_right(self._crash, step) & 1)

    def usable(self, direction: int, step: int) -> bool:
        """True when the link in ``direction`` is up (and its far router

        alive) at ``step``."""
        return not bisect_right(self._dirs[direction], step) & 1

    def mask(
        self, base: tuple[bool, bool, bool, bool], step: int
    ) -> tuple[bool, bool, bool, bool]:
        """``base`` (the contention free-mask) with faulted links forced

        ``False``.  Called on the router hot path, but only for nodes the
        plan actually touches."""
        d = self._dirs
        return (
            base[0] and not bisect_right(d[0], step) & 1,
            base[1] and not bisect_right(d[1], step) & 1,
            base[2] and not bisect_right(d[2], step) & 1,
            base[3] and not bisect_right(d[3], step) & 1,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeFaults(crash={self._crash}, dirs={self._dirs})"


# ----------------------------------------------------------------------
# Interval algebra on boundary tuples.
# ----------------------------------------------------------------------
def _to_intervals(bounds) -> list[_Interval]:
    seq = list(bounds)
    if len(seq) % 2:
        seq.append(None)
    return [(seq[i], seq[i + 1]) for i in range(0, len(seq), 2)]


def _union(intervals: list[_Interval]) -> list[_Interval]:
    out: list[_Interval] = []
    for start, end in sorted(intervals, key=lambda iv: iv[0]):
        if out:
            cur_start, cur_end = out[-1]
            if cur_end is None or start <= cur_end:
                if cur_end is not None and (end is None or end > cur_end):
                    out[-1] = (cur_start, end)
                continue
        out.append((start, end))
    return out


def _to_bounds(intervals: list[_Interval]) -> tuple[int, ...]:
    bounds: list[int] = []
    for start, end in intervals:
        bounds.append(start)
        if end is not None:
            bounds.append(end)
    return tuple(bounds)


# ----------------------------------------------------------------------
def static_failed_links(plan: FaultPlan) -> tuple[tuple[int, int], ...]:
    """The plan's *static* link failures: down at step 0, never healed.

    Returned as sorted ``(node, direction)`` pairs ready for the
    topologies' ``failed_links=`` parameter; :func:`compile_node_views`
    excludes exactly these from the dynamic views.
    """
    toggles: dict[tuple[int, int], list] = {}
    for ev in plan.events:
        if ev.kind in LINK_KINDS:
            toggles.setdefault((ev.node, ev.direction), []).append(ev)
    return tuple(
        sorted(
            key
            for key, evs in toggles.items()
            if len(evs) == 1 and evs[0].kind == LINK_DOWN and evs[0].step == 0
        )
    )


def compile_node_views(plan: FaultPlan, topo) -> dict[int, "NodeFaults"]:
    """Compile a validated plan against a topology into per-node views.

    Returns a dict holding entries **only** for nodes the plan affects;
    every other node keeps ``faults = None`` and pays nothing.  Raises
    :class:`~repro.faults.plan.FaultPlanError` when a link event names a
    link that does not exist (mesh boundary, or masked as a static
    failure in ``topo``).
    """
    plan.validate(num_nodes=topo.num_nodes)
    static = set(static_failed_links(plan))

    # Own-link down intervals, normalised to both endpoints.
    link_iv: dict[tuple[int, int], list[_Interval]] = {}
    toggles: dict[tuple[int, int], list[int]] = {}
    for ev in sorted(plan.events, key=lambda e: e.step):
        if ev.kind not in LINK_KINDS:
            continue
        key = (ev.node, ev.direction)
        if key in static:
            continue  # handled by the topology's failed_links mask
        toggles.setdefault(key, []).append(ev.step)
    for (node, dnum), bounds in toggles.items():
        direction = Direction(dnum)
        peer = topo.neighbor(node, direction)
        if peer is None:
            raise FaultPlanError(
                f"link fault on ({node}, {direction.name}): no such link "
                f"in {topo!r}"
            )
        for end_node, end_dir in ((node, dnum), (peer, int(direction.opposite))):
            link_iv.setdefault((end_node, end_dir), []).extend(
                _to_intervals(bounds)
            )

    # Crash intervals per router.
    crash_steps: dict[int, list[int]] = {}
    for ev in sorted(plan.events, key=lambda e: e.step):
        if ev.kind in LINK_KINDS:
            continue
        crash_steps.setdefault(ev.node, []).append(ev.step)
    crash_iv = {node: _to_intervals(bounds) for node, bounds in crash_steps.items()}

    # A crashed router blackholes its neighbors' links toward it.
    for node, intervals in crash_iv.items():
        for direction in DIRECTIONS:
            peer = topo.neighbor(node, direction)
            if peer is None:
                continue
            link_iv.setdefault((peer, int(direction.opposite)), []).extend(
                intervals
            )

    views: dict[int, NodeFaults] = {}
    affected = {node for node, _ in link_iv} | set(crash_iv)
    empty: tuple[int, ...] = ()
    for node in sorted(affected):
        dirs = tuple(
            _to_bounds(_union(link_iv.get((node, d), []))) for d in range(4)
        )
        crash = _to_bounds(_union(crash_iv.get(node, [])))
        views[node] = NodeFaults(crash, dirs if any(dirs) else (empty,) * 4)
    return views
