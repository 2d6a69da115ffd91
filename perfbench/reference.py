"""The reference load: what one unit of this host's speed is, right now.

A fixed pure-Python churn of heap, dict and small objects -- the same kind
of work the simulator does -- that ``run.py`` runs as a child before and
after every measured pair of runs.  Timings are reported scaled by
``REFERENCE_S / (the reference's wall time around them)``: on this class of
host the same code runs up to 40 % slower in one quarter-hour than in the
next, and a child of this shape slows down with the simulator where a tight
arithmetic loop does not.  ``steadiness.py`` measures what the scaling buys,
on the same runs scaled and raw; the README has its last figures.

Changing anything below changes the unit of every timing metric, and makes
results incomparable with earlier ones.
"""

import heapq
import random

#: Wall time of this load on the unloaded development host: the speed at
#: which a scaled second is a real second.
REFERENCE_S = 0.35


class Cell:
    __slots__ = ("hits", "tag", "log")

    def __init__(self, tag: int) -> None:
        self.hits = 0
        self.tag = tag
        self.log = [tag]


def churn() -> int:
    rnd = random.Random(1)
    heap: list = []
    seen: dict = {}
    cells = [Cell(i) for i in range(50_000)]
    for i in range(250_000):
        heapq.heappush(heap, (rnd.random() * 100.0, i, cells[i % 50_000]))
        if len(heap) > 2_000:
            ts, j, cell = heapq.heappop(heap)
            cell.hits += 1
            seen[j % 4096] = (ts, cell.tag)
            cell.log.append(j)
            if len(cell.log) > 4:
                cell.log.clear()
    return len(seen)


if __name__ == "__main__":
    churn()
