"""Scale smoke: memory stays linear in the LP population, flat in duration.

Runs ``python -m repro.hotpotato --n N --duration 4 --processors 4
--batch 64`` as a child, then the same torus with ``--processors 1``, and
fails unless (a) the optimistic child's peak RSS is under the budget and
(b) the eight model lines of the two runs are byte-identical.  Four steps,
not one: the sequential engine hands over to its band program at step 1
(docs/KERNEL.md), so a one-step run compares only INIT and the first
INJECT; three more steps set the Time Warp kernel's per-event RouterLP
handlers against the band program at this size.  Then runs the 64×64
torus sequentially for 2 and for 8 steps and fails unless (c) the two
peak RSS values are within ``--flat-rss-mb`` of each other.  All of that
runs at ``--batch 64`` and so never rolls back; two more checks cover the
regime where events die outside the pool: (d) the 16×16 torus at ``--batch
2048`` for 200 steps (about half of what it executes is undone) stays
under ``--rollback-rss-mb``, and (e) one process that runs that
configuration twice and one that runs it ten times peak within
``--flat-rss-mb`` of each other.  Last, (f): the objects a collection
would walk right after a sequential run, counted in a child
(``len(gc.get_objects())``), at 64×64 and at 8×8 differ by at most
``TRACKED_SLACK``::

    PYTHONPATH=src python benchmarks/scale_smoke.py                 # CI: n=128, 400 MB
    PYTHONPATH=src python benchmarks/scale_smoke.py --n 256 --max-rss-mb 1024

With one LP-length dispatch table per compiled closure (the state before
docs/KERNEL.md's "per-kernel vs per-LP" split) the n=128 run needs more
than 4 GB, so budget (a) catches any quadratic term coming back.  At full
load the packet population is constant, so anything that makes (c) fail is
state kept per simulated step — the per-(src, dst) routing cache that
``repro.net`` once had cost 17 MB over these six steps.  (d) and (e) are
about who frees what (docs/KERNEL.md, "Who frees an Event"): an engine
pauses the cyclic collector while it runs, so an ``Event`` that only a
collection could free stays for the whole run — when every event and its
heap entry referred to each other (before PR 24) and the collector ran,
(d) peaked at 39 MB, not 29 — and a finished engine, which *is* cyclic,
has to be collected before the next one runs or (e) grows by 5 MB a run.
(f) is about who walks what: ``run`` freezes what it leaves alive, so no
later generation pass, and not the interpreter's exit collection, scans a
finished run; left unfrozen, that scan grows with the population (0.17 s
after a 64×64 Time Warp run, 0.85 s at 128×128).
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time

#: The simulated results every engine must reproduce byte for byte.
MODEL_LINES = (
    "events committed", "packets injected", "packets delivered",
    "avg delivery time", "max delivery time", "avg wait to inject",
    "max wait to inject", "deflection rate",
)


#: Simulated steps of the set-up / identity runs (see the module docstring).
STEPS = 4

#: Torus side of the duration-leak check: growth per simulated step shows
#: at any size, and 64×64 keeps the two extra children to a few seconds.
FLAT_N = 64


#: Check (e)'s child: ``argv[1]`` rollback-heavy Time Warp runs in one
#: process, each engine dropped before the next is built.
LOOP = """
import sys
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.simulation import HotPotatoSimulation
sim = HotPotatoSimulation(HotPotatoConfig(n=16, duration=20.0, injector_fraction=1.0))
for _ in range(int(sys.argv[1])):
    sim.run_parallel(n_pes=4, n_kps=16, batch_size=2048)
"""


#: Check (f)'s child: the objects a collection would walk right after one
#: ``argv[1]`` × ``argv[1]`` sequential run, its result still held.
TRACKED = """
import gc, sys
from repro.hotpotato.config import HotPotatoConfig
from repro.hotpotato.simulation import HotPotatoSimulation
cfg = HotPotatoConfig(n=int(sys.argv[1]), duration=2.0, injector_fraction=1.0)
result = HotPotatoSimulation(cfg).run()
print(len(gc.get_objects()))
"""

#: Most check (f)'s two counts may differ: a frozen run leaves ~0 at any
#: size, an unfrozen one 15,714 at 8×8 and 124,577 at 64×64.
TRACKED_SLACK = 1000


def child(cmd: list[str]) -> tuple[str, float, float]:
    """Run one child to completion: (stdout, wall seconds, peak RSS in MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    with proc.stdout:
        out = proc.stdout.read()
    # wait4 reports this child's rusage; RUSAGE_CHILDREN only the largest
    # of all children so far.
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - t0
    if proc.returncode:
        raise SystemExit(f"{' '.join(cmd)}: exit status {proc.returncode}")
    return out, wall, usage.ru_maxrss / 1024


def run(n: int, duration: int, *flags: str) -> tuple[list[str], float, float]:
    """``python -m repro.hotpotato``: (model lines, wall seconds, peak RSS in MB)."""
    cmd = [sys.executable, "-m", "repro.hotpotato", "--n", str(n)]
    cmd += ["--duration", str(duration), *flags]
    out, wall, rss_mb = child(cmd)
    lines = [
        line for line in out.splitlines()
        if line.split(":")[0].strip() in MODEL_LINES
    ]
    if len(lines) != len(MODEL_LINES):
        raise SystemExit(f"{' '.join(cmd)}: not {len(MODEL_LINES)} model lines:\n{out}")
    return lines, wall, rss_mb


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=128, help="torus side (LPs = n*n)")
    ap.add_argument("--max-rss-mb", type=float, default=400.0)
    ap.add_argument(
        "--flat-rss-mb", type=float, default=8.0,
        help=f"most the n={FLAT_N} sequential peak RSS may differ between "
             "--duration 2 and --duration 8, and the in-process loop's "
             "between 2 and 10 runs",
    )
    ap.add_argument(
        "--rollback-rss-mb", type=float, default=33.0,
        help="peak RSS budget of --n 16 --duration 200 --processors 4 "
             "--batch 2048 (28.7 MB measured + 15 %%; 39.1 MB before PR 24)",
    )
    args = ap.parse_args()

    opt_lines, opt_wall, rss_mb = run(
        args.n, STEPS, "--processors", "4", "--batch", "64"
    )
    seq_lines, seq_wall, seq_rss_mb = run(args.n, STEPS, "--processors", "1")

    print(
        f"n={args.n} ({args.n * args.n:,} LPs), {STEPS} steps: optimistic 4-PE "
        f"{opt_wall:.2f} s, peak RSS {rss_mb:.0f} MB (budget "
        f"{args.max_rss_mb:.0f}); sequential {seq_wall:.2f} s, peak RSS "
        f"{seq_rss_mb:.0f} MB"
    )
    if opt_lines != seq_lines:
        both = opt_lines + ["--"] + seq_lines
        raise SystemExit("model lines differ:\n" + "\n".join(both))
    if rss_mb >= args.max_rss_mb:
        raise SystemExit(f"peak RSS {rss_mb:.0f} MB is over the budget")

    _, _, short_mb = run(FLAT_N, 2, "--processors", "1")
    _, _, long_mb = run(FLAT_N, 8, "--processors", "1")
    print(
        f"n={FLAT_N} sequential peak RSS: {short_mb:.1f} MB after 2 steps, "
        f"{long_mb:.1f} MB after 8 (may differ by {args.flat_rss_mb:.0f})"
    )
    if abs(long_mb - short_mb) > args.flat_rss_mb:
        raise SystemExit("peak RSS grows with simulated duration")

    _, wall, rss_mb = run(16, 200, "--processors", "4", "--batch", "2048")
    print(
        f"n=16 --batch 2048, 200 steps: {wall:.2f} s, peak RSS {rss_mb:.1f} MB "
        f"(budget {args.rollback_rss_mb:.0f})"
    )
    if rss_mb >= args.rollback_rss_mb:
        raise SystemExit("rollback-heavy peak RSS is over the budget")

    _, _, two_mb = child([sys.executable, "-c", LOOP, "2"])
    _, _, ten_mb = child([sys.executable, "-c", LOOP, "10"])
    print(
        f"n=16 --batch 2048 in one process: peak RSS {two_mb:.1f} MB after 2 "
        f"runs, {ten_mb:.1f} MB after 10 (may differ by {args.flat_rss_mb:.0f})"
    )
    if ten_mb - two_mb > args.flat_rss_mb:
        raise SystemExit("finished engines pile up across runs")

    small, large = (
        int(child([sys.executable, "-c", TRACKED, str(n)])[0]) for n in (8, FLAT_N)
    )
    print(
        f"objects a collection walks after a sequential run: {small:,} at 8×8, "
        f"{large:,} at {FLAT_N}×{FLAT_N} (may differ by {TRACKED_SLACK:,})"
    )
    if abs(large - small) > TRACKED_SLACK:
        raise SystemExit("a finished run is left to the cyclic collector")
    print("scale smoke ok")


if __name__ == "__main__":
    main()
