"""Scale smoke: Time Warp set-up stays linear in the LP population.

Runs ``python -m repro.hotpotato --n N --duration 1 --processors 4
--batch 64`` as a child, then the same torus with ``--processors 1``, and
fails unless (a) the optimistic child's peak RSS is under the budget and
(b) the eight model lines of the two runs are byte-identical::

    PYTHONPATH=src python benchmarks/scale_smoke.py                 # CI: n=128, 400 MB
    PYTHONPATH=src python benchmarks/scale_smoke.py --n 256 --max-rss-mb 1024

With one LP-length dispatch table per compiled closure (the state before
docs/KERNEL.md's "per-kernel vs per-LP" split) the n=128 run needs more
than 4 GB, so the budget catches any quadratic term coming back.
"""

from __future__ import annotations

import argparse
import resource
import subprocess
import sys
import time

#: The simulated results every engine must reproduce byte for byte.
MODEL_LINES = (
    "events committed", "packets injected", "packets delivered",
    "avg delivery time", "max delivery time", "avg wait to inject",
    "max wait to inject", "deflection rate",
)


def run(n: int, *flags: str) -> tuple[list[str], float]:
    """Run one child to completion; returns its model lines and wall seconds."""
    cmd = [sys.executable, "-m", "repro.hotpotato", "--n", str(n), "--duration", "1"]
    cmd += flags
    t0 = time.perf_counter()
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    wall = time.perf_counter() - t0
    lines = [
        line for line in out.splitlines()
        if line.split(":")[0].strip() in MODEL_LINES
    ]
    if len(lines) != len(MODEL_LINES):
        raise SystemExit(f"{' '.join(cmd)}: not {len(MODEL_LINES)} model lines:\n{out}")
    return lines, wall


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=128, help="torus side (LPs = n*n)")
    ap.add_argument("--max-rss-mb", type=float, default=400.0)
    args = ap.parse_args()

    opt_lines, opt_wall = run(args.n, "--processors", "4", "--batch", "64")
    # Only one child has been waited for so far, so this is its own peak.
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    seq_lines, seq_wall = run(args.n, "--processors", "1")

    print(
        f"n={args.n} ({args.n * args.n:,} LPs): optimistic 4-PE {opt_wall:.2f} s, "
        f"peak RSS {rss_mb:.0f} MB (budget {args.max_rss_mb:.0f}); "
        f"sequential {seq_wall:.2f} s"
    )
    if opt_lines != seq_lines:
        both = opt_lines + ["--"] + seq_lines
        raise SystemExit("model lines differ:\n" + "\n".join(both))
    if rss_mb >= args.max_rss_mb:
        raise SystemExit(f"peak RSS {rss_mb:.0f} MB is over the budget")
    print("scale smoke ok")


if __name__ == "__main__":
    main()
