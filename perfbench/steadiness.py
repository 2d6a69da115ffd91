"""Is the benchmark steady enough for its own bounds?  The acceptance check
of ``BENCHMARK.json``, run the way its driver runs it.

    python3 perfbench/steadiness.py [--seeds 10] [--seconds T]

Two passes; in each, every workload is run ``--seeds`` times through the
``BENCHMARK.json`` command, every time with another ``--seed``.  Per
end-to-end metric and workload it prints each pass's median and *spread*
(first-to-third-quartile distance over the median, by
``statistics.quantiles(values, n=4)``) and by how much the second median is
worse than the first, all against the metric's bound.  Beside each timing
metric it prints the same figures for the raw, unscaled, seconds of the very
same runs: the measurement that justifies ``reference.py``, or stops
justifying it.  Exits 1 when a spread or a shift exceeds its bound.

Run it after any change to the benchmark.  Everything is saved to
``perfbench/out/steadiness-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PASSES = 2


def invoke(spec: dict, workload: str, seed: int, seconds: int) -> dict:
    """One run of the BENCHMARK.json command: its metrics, scaled and raw."""
    start = time.monotonic()
    proc = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    took = time.monotonic() - start
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} --seed {seed}: exit status {proc.returncode}")
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} --seed {seed}: {result['failed']} failed runs")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    setups, walls = zip(*detail["raw_rounds"])
    raw = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups)}
    raw["events_per_s"] = statistics.median(
        detail["committed"] / (wall - setup) for setup, wall in detail["raw_rounds"])
    return {"workload": workload, "seed": seed, "took_s": took, "values": values,
            "raw": raw, **detail}


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def figures(metric: dict, passes: list[list[float]]) -> tuple[list[float], list[float], float]:
    """Per-pass medians and spreads, and the share of the first median by
    which the second is worse."""
    medians = [statistics.median(p) for p in passes]
    delta = medians[1] - medians[0] if metric["better"] == "lower" else medians[0] - medians[1]
    return medians, [spread(p) for p in passes], delta / medians[0]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10, help="runs per workload and pass")
    ap.add_argument("--seconds", type=int, help="default: BENCHMARK.json's run_seconds")
    args = ap.parse_args(argv)
    if args.seeds < 2:
        ap.error("a spread needs at least two seeds")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    runs = []
    for p in range(PASSES):
        for i in range(args.seeds):
            for name in names:
                runs.append({"pass": p, **invoke(spec, name, 1 + p * args.seeds + i, seconds)})
            print(f"pass {p + 1}/{PASSES} seed {i + 1}/{args.seeds} done", file=sys.stderr)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", time.strftime("steadiness-%Y%m%d-%H%M%S.json"))
    with open(path, "w") as fh:
        json.dump({"seconds": seconds, "runs": runs}, fh, indent=1)

    took = [r["took_s"] for r in runs]
    print(f"{len(runs)} runs of --seconds {seconds}: {statistics.median(took):.1f} s each "
          f"(median), {max(took):.1f} s the longest, {sum(took):.0f} s in all")
    print(f"{'workload':18} {'metric':13} {'bound':>5}  {'medians':>21} {'spreads':>13} "
          f"{'shift':>6}   raw seconds of the same runs: spreads, shift")
    beyond = []
    for name in names:
        for metric in spec["end_to_end"]:
            key = metric["name"]
            mine = [r for r in runs if r["workload"] == name]
            medians, spreads, shift = figures(
                metric, [[r["values"][key] for r in mine if r["pass"] == p] for p in range(PASSES)])
            worst = max(spreads) if key != "setup_s" else 0.0  # its spread is not gated
            flag = ("  BEYOND THE BOUND" if max(worst, shift) > metric["bound"]
                    else "  above a third of it" if max(worst, shift) > metric["bound"] / 3
                    else "")
            if max(worst, shift) > metric["bound"]:
                beyond.append(f"{name} {key}")
            raw = ""
            if key in mine[0]["raw"]:
                _, raw_spreads, raw_shift = figures(
                    metric, [[r["raw"][key] for r in mine if r["pass"] == p] for p in range(PASSES)])
                raw = f"   {raw_spreads[0]:>6.1%} {raw_spreads[1]:>6.1%} {raw_shift:>+7.1%}"
            print(f"{name:18} {key:13} {metric['bound']:>5.0%}  "
                  f"{medians[0]:>10,.4g} {medians[1]:>10,.4g} "
                  f"{spreads[0]:>6.1%} {spreads[1]:>6.1%} {shift:>+6.1%}{raw}{flag}")
    print(f"\nsaved to {os.path.relpath(path)}")
    if beyond:
        print("BEYOND THE BOUND: " + ", ".join(beyond))
    return 1 if beyond else 0


if __name__ == "__main__":
    sys.exit(main())
