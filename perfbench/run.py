"""The repo benchmark: five exec-to-exit hot-potato workloads, measured
end to end and layer by layer.  See ``perfbench/README.md``.

    PYTHONPATH=src python perfbench/run.py                 # full report
    PYTHONPATH=src python perfbench/run.py --sets 2        # same-code A/B
    PYTHONPATH=src python perfbench/run.py --quick         # self-test
    python perfbench/run.py --compare A.json B.json
    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

The last form is the one ``BENCHMARK.json`` names: one workload, measured
for T seconds, one JSON object on the last line of standard output.

Every measurement is taken from outside the program: by timing
``python -m repro.hotpotato`` children (one at a time, each in its own
session, see ``hygiene.py``), by reading the recording the program writes
with ``--spans-out/--metrics-out`` (``layers.py``), and by timed calls
into the layers' public functions (``probes.py``, also a child).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path[:0] = [HERE, SRC]
import hygiene  # noqa: E402
import layers  # noqa: E402
from reference import REFERENCE_S  # noqa: E402


class Workload(NamedTuple):
    """One command tail of ``python -m repro.hotpotato``.  All run the
    torus at full injection load; ``BENCHMARK.json`` says why each exists."""

    name: str
    n: int
    duration: int  #: simulated steps of the full report
    short: int  #: steps when a run must fit the driver's budget
    flags: tuple[str, ...]

    @property
    def sequential(self) -> bool:
        return self.flags == ("--processors", "1")

    @property
    def repeatable(self) -> bool:
        """In-process Time Warp undoes the same events on every run; with
        worker processes the count depends on their relative timing."""
        return not self.sequential and "--procs" not in self.flags


TW = ("--processors", "4", "--batch", "64")
WORKLOADS = (
    Workload("seq-n32", 32, 120, 30, ("--processors", "1")),
    Workload("opt-n32", 32, 120, 30, TW + ("--gvt-interval", "16")),
    Workload("opt-rollback-n16", 16, 200, 50, ("--processors", "4", "--batch", "2048")),
    Workload("mp-p2-n32", 32, 120, 30, TW + ("--gvt-interval", "16", "--procs", "2")),
    Workload("opt-n64-scale", 64, 8, 4, TW),
)
BY_NAME = {w.name: w for w in WORKLOADS}

#: The simulated results every engine must reproduce byte for byte.
MODEL_LINES = (
    "events committed", "packets injected", "packets delivered",
    "avg delivery time", "max delivery time", "avg wait to inject",
    "max wait to inject", "deflection rate",
)
#: setup_s may also move this many seconds before it counts as changed.
SETUP_FLOOR_S = 0.05
MIN_ROUNDS = 3
#: Suite-level numbers that are reported and never gated.
INFORMATIONAL = {
    "derived.tw_overhead": "ratio",
    "derived.mp_speedup_vs_opt": "ratio",
    "derived.mp_speedup_vs_seq": "ratio",
    "host.calib_s": "s",
    "host.calib_max_over_min": "ratio",
    "host.nproc": "count",
    "host.loadavg_start": "load",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if [w["name"] for w in spec["workloads"]] != [w.name for w in WORKLOADS]:
        raise BenchError("BENCHMARK.json and run.py name different workloads")
    return spec


def summary(values: list[float]) -> dict:
    """Median, quartiles and count, as the benchmark reports every timing."""
    q1, med, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    )
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


class Bench:
    """Runs children, checks them against the oracle, keeps the tally."""

    def __init__(self, seed: int, short: bool, probe_scale: float = 1.0) -> None:
        if not os.path.isdir(os.path.join(SRC, "repro", "hotpotato")):
            raise BenchError(f"no program to measure: {SRC}/repro/hotpotato is missing")
        self.seed = seed
        self.short = short
        self.probe_scale = probe_scale
        self.timeout_s = 45.0 if short else 180.0
        self.sandbox = hygiene.Sandbox(OUT)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p
        )
        # str hashes are salted per process otherwise, and set order with
        # them: one source of run-to-run difference the user can also pin.
        self.env["PYTHONHASHSEED"] = "0"
        self.oracles: dict[tuple[int, int], dict] = {}
        self.undone: dict[str, int] = {}
        self.attempted: dict[str, int] = {}
        self.failures: list[tuple[str, str]] = []  # (workload, what happened)
        self.calib: list[float] = []  # wall of every reference run, in order
        # One untimed child first, so no timed one pays for writing the
        # interpreter's bytecode cache.
        self._spawn("warm-up", "run", ["-m", "repro.hotpotato", "--n", "4", "--duration", "1",
                                       "--processors", "2", "--procs", "2"])

    def duration(self, wl: Workload) -> int:
        return wl.short if self.short else wl.duration

    def failed(self, name: str) -> int:
        return sum(1 for workload, _ in self.failures if workload == name)

    def _spawn(self, name: str, kind: str, args: list[str]) -> hygiene.Child | None:
        """One python child; None, with the reason recorded, if it failed."""
        self.attempted[name] = self.attempted.get(name, 0) + 1
        child = self.sandbox.run(
            [sys.executable, *args], env=self.env, cwd=ROOT, timeout_s=self.timeout_s
        )
        if child.ok:
            return child
        why = (
            f"timed out after {self.timeout_s:.0f} s" if child.timed_out
            else f"exit status {child.status}" if child.status
            else "left behind " + ", ".join(child.leaks)
        )
        self._fail(name, kind, why + "".join(
            "\n    " + ln for ln in child.stderr.splitlines()[-5:]))
        return None

    def _fail(self, name: str, kind: str, why: str) -> None:
        self.failures.append((name, f"{kind} run: {why}"))
        print(f"FAILED {name} {kind} run: {why}", file=sys.stderr)

    def hotpotato(self, wl: Workload, kind: str, duration: int, extra=()) -> dict | None:
        """One checked run of a workload's command at ``duration`` steps."""
        child = self._spawn(wl.name, kind, [
            "-m", "repro.hotpotato", "--n", str(wl.n), "--duration", str(duration),
            "--seed", str(self.seed), *wl.flags, *extra,
        ])
        if child is None:
            return None
        lines = {
            key: ln for ln in child.stdout.splitlines()
            for key in MODEL_LINES + ("events rolled back",) if ln.startswith(f"  {key} ")
        }
        model = tuple(lines.get(key) for key in MODEL_LINES)
        if None in model:
            self._fail(wl.name, kind, "printed no result")
            return None
        run = {
            "wall_s": child.wall_s, "cpu_s": child.cpu_s, "rss_mb": child.rss_mb,
            "committed": _count(model[0]), "model": model,
        }
        if kind == "setup":
            return run
        if not wl.sequential:
            run["rolled_back"] = _count(lines["events rolled back"])
        oracle = self.oracle(wl, duration, own=model if wl.sequential else None)
        if oracle is None or model != oracle["model"]:
            self._fail(wl.name, kind, "simulated results differ from the sequential oracle")
            return None
        if wl.repeatable and self.undone.setdefault(wl.name, run["rolled_back"]) != run["rolled_back"]:
            self._fail(wl.name, kind, f"rolled back {run['rolled_back']:,} events, "
                                      f"{self.undone[wl.name]:,} on an earlier run")
            return None
        return run

    def oracle(self, wl: Workload, duration: int, own=None) -> dict | None:
        """What ``--processors 1`` prints for this size and seed.  A
        sequential workload's first run is its own oracle (``own``), so its
        later runs must repeat it; the others get one untimed run."""
        key = (wl.n, duration)
        if key not in self.oracles:
            if own is not None:
                self.oracles[key] = {"model": own, "makespan_s": None}
            else:
                seq = wl._replace(flags=("--processors", "1"))
                rec = os.path.join(OUT, "oracle.jsonl")
                run = self.hotpotato(seq, "oracle", duration, ("--metrics-out", rec))
                if run is None:
                    return None
                self.oracles[key]["makespan_s"] = _recording(rec).stats["makespan_seconds"]
        return self.oracles[key]

    def reference(self) -> float | None:
        """Wall time of the reference load (``reference.py``), run now."""
        child = self._spawn("reference", "load", [os.path.join(HERE, "reference.py")])
        if child is None:
            return None
        self.calib.append(child.wall_s)
        return child.wall_s

    def scaled(self, body):
        """``body()`` run between two runs of the reference load, and the
        factor that turns wall times measured in between into seconds at
        the reference host speed (None if a reference run failed)."""
        before = self.calib[-1] if self.calib else self.reference()
        result = body()
        after = self.reference()
        if before is None or after is None:
            return result, None
        return result, REFERENCE_S / ((before + after) / 2)

    def round(self, wl: Workload) -> tuple[dict, dict] | None:
        """One set-up run and one full run, back to back, so whatever the
        host is doing at the moment weighs on both alike.  ``scaled_s`` is
        each run's wall time at the reference host speed.  None if any of
        the runs failed."""
        pair, scale = self.scaled(lambda: (
            self.hotpotato(wl, "setup", 1),
            self.hotpotato(wl, "timed", self.duration(wl)),
        ))
        if None in pair or scale is None:
            return None
        for run in pair:
            run["scaled_s"] = run["wall_s"] * scale
        return pair

    def traced(self, wl: Workload, rounds: list[tuple[dict, dict]]) -> dict | None:
        """The per-layer metrics of one extra, traced, run of ``wl``, beside
        the untraced ``rounds`` it is compared with."""
        rec = os.path.join(OUT, f"{wl.name}.jsonl")
        run, scale = self.scaled(lambda: self.hotpotato(
            wl, "traced", self.duration(wl), ("--spans-out", rec, "--metrics-out", rec)))
        if run is None or scale is None:
            return None
        recording = _recording(rec)
        # The phases are in the traced run's own, unscaled, seconds; so the
        # set-up time is brought to what it would have taken just then.
        setup_s = statistics.median(s["scaled_s"] for s, _ in rounds) / scale
        out = layers.kernel_metrics(recording, traced_wall_s=run["wall_s"], setup_s=setup_s)
        out["kernel.untraced_share"] = out["kernel.untraced_s"] / run["wall_s"]
        oracle = self.oracle(wl, self.duration(wl))
        if wl.sequential:  # its own oracle: the other workloads of its size use this
            oracle["makespan_s"] = out["costmodel.makespan_s"]
        # None when the sequential workload's traced run failed.
        out["costmodel.predicted_speedup"] = (
            oracle["makespan_s"] / out["costmodel.makespan_s"] if oracle["makespan_s"] else None)
        out["trace.overhead_ratio"] = (
            run["wall_s"] * scale / statistics.median(f["scaled_s"] for _, f in rounds))
        out["proc.cpu_s"] = statistics.median(f["cpu_s"] for _, f in rounds)
        out["mp.cpu_utilisation"] = statistics.median(
            f["cpu_s"] / (recording.stats["procs"] * f["wall_s"]) for _, f in rounds)
        return out

    def probes(self) -> dict | None:
        """The layer probes and the checkpoint probe: one checkpointed
        ``opt-n32`` run for the snapshot phase, then ``probes.py``."""
        wl = BY_NAME["opt-n32"]
        ckpt_dir = os.path.join(OUT, "ckpt")
        rec = os.path.join(OUT, "ckpt.jsonl")
        shutil.rmtree(ckpt_dir, ignore_errors=True)
        run = self.hotpotato(wl._replace(name="probes"), "checkpointed", self.duration(wl), (
            "--checkpoint-dir", ckpt_dir, "--checkpoint-every", "4", "--spans-out", rec))
        if run is None:
            return None
        count, seconds = layers.self_times(_recording(rec).spans).get("snapshot", (0, 0.0))
        snapshots = sorted(os.listdir(ckpt_dir))
        latest = os.path.join(ckpt_dir, snapshots[-1])
        out = {
            "ckpt.snapshot_s": seconds,
            "ckpt.snapshot_n": count,
            "ckpt.snapshot_mb": os.path.getsize(latest) / 1e6,
        }
        child = self._spawn("probes", "probes.py", [
            os.path.join(HERE, "probes.py"), "--scale", str(self.probe_scale),
            "--seed", str(self.seed), "--snapshot", latest,
        ])
        shutil.rmtree(ckpt_dir, ignore_errors=True)
        if child is None:
            return None
        out.update(json.loads(child.stdout.splitlines()[-1]))
        return out


def _count(line: str) -> int:
    return int(line.split(":")[1].split()[0].replace(",", ""))


def _recording(path: str):
    from repro.obs import load_recording  # not at the top: src/ may be absent

    return load_recording(path)


def end_to_end(rounds: list[tuple[dict, dict]]) -> dict:
    """The end-to-end metrics of one workload from its (set-up, full) rounds."""
    wall = summary([full["scaled_s"] for _, full in rounds])
    setup = summary([setup["scaled_s"] for setup, _ in rounds])
    return {
        "wall_s": wall,
        "setup_s": setup,
        "raw_wall_s": summary([full["wall_s"] for _, full in rounds]),
        # Per round, so that it has quartiles too: a round's two runs are
        # back to back, under the same host conditions.
        "events_per_s": summary([
            full["committed"] / (full["scaled_s"] - setup["scaled_s"])
            for setup, full in rounds
        ]),
        "peak_rss_mb": summary([full["rss_mb"] for _, full in rounds]),
    }


def spread(stat: dict) -> float:
    """Interquartile distance over the median."""
    return (stat["q3"] - stat["q1"]) / stat["median"]


def worse_by(metric: dict, base: float, new: float) -> float:
    """Share of ``base`` by which ``new`` is worse; negative when better."""
    delta = new - base if metric["better"] == "lower" else base - new
    if metric["name"] == "setup_s" and abs(delta) <= SETUP_FLOOR_S:
        return 0.0
    return delta / base


# ---------------------------------------------------------------------------
# The mode BENCHMARK.json names: one workload, one JSON line.
# ---------------------------------------------------------------------------
def run_one(spec: dict, args) -> int:
    wl = BY_NAME[args.workload]
    bench = Bench(args.seed, short=True)
    if args.trace:
        pair = bench.round(wl)
        probes = bench.probes()
        metrics = bench.traced(wl, [pair]) if pair else None
        if metrics is not None and probes is not None:
            metrics.update(probes)
        listed = spec["per_layer"]
    else:
        rounds = []
        start = time.monotonic()
        while len(rounds) < MIN_ROUNDS or time.monotonic() - start < args.seconds:
            pair = bench.round(wl)
            if pair is not None:
                rounds.append(pair)
            elif len(bench.failures) >= MIN_ROUNDS:
                break
        metrics = None
        if rounds:
            stats = end_to_end(rounds)
            for name, stat in stats.items():
                print(f"{wl.name:18} {name:13} {_fmt(stat)}")
            metrics = {name: stat["median"] for name, stat in stats.items()}
            print(f"{wl.name:18} reference     {_fmt(summary(bench.calib))}  "
                  f"(timings are scaled to {REFERENCE_S} s)")
        listed = spec["end_to_end"]
    attempted = sum(bench.attempted.values())
    print(f"{wl.name:18} failed_runs   {len(bench.failures)} of {attempted}")
    if metrics is None:
        raise BenchError("no run of the workload succeeded")
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise BenchError(f"not measured: {', '.join(missing)}")
    if not args.trace:  # what steadiness.py compares the scaled medians with
        print(json.dumps({
            "raw_rounds": [[setup["wall_s"], full["wall_s"]] for setup, full in rounds],
            "reference_s": bench.calib,
            "committed": rounds[0][1]["committed"],
        }))
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": attempted,
        "failed": len(bench.failures),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed
        },
    }))
    return 1 if bench.failures else 0


# ---------------------------------------------------------------------------
# The full report.
# ---------------------------------------------------------------------------
def run_suite(spec: dict, args) -> int:
    bench = Bench(args.seed, short=args.quick,
                  probe_scale=0.1 if args.quick else 1.0)
    loadavg_start = os.getloadavg()[0]
    repeats = 1 if args.quick else args.repeats
    rounds: dict[str, list[list]] = {w.name: [[] for _ in range(args.sets)] for w in WORKLOADS}
    # Rounds alternate between the sets (A1 B1 A2 B2 ...), and every round
    # visits every workload, so drift of the host lands on all alike.
    for rep in range(repeats):
        for s in range(args.sets):
            for wl in WORKLOADS:
                pair = bench.round(wl)
                if pair is not None:
                    rounds[wl.name][s].append(pair)
            print(f"round {rep + 1}/{repeats} set {'AB'[s]} done", file=sys.stderr)
    if not all(r for sets in rounds.values() for r in sets):
        raise BenchError("a workload has no successful run")
    workloads = {}
    for wl in WORKLOADS:
        both = [pair for r in rounds[wl.name] for pair in r]
        workloads[wl.name] = {
            "sets": [end_to_end(r) for r in rounds[wl.name]],
            "pooled": end_to_end(both),
            "layers": bench.traced(wl, both) or {},
            "attempted": bench.attempted[wl.name],
            "failed": bench.failed(wl.name),
        }
    wall = {n: w["pooled"]["wall_s"]["median"] for n, w in workloads.items()}
    result = {
        "meta": {
            "seed": args.seed, "repeats": repeats, "sets": args.sets,
            "scale": "short" if args.quick else "full",
            "comparable": not args.quick,
            "durations": {w.name: bench.duration(w) for w in WORKLOADS},
        },
        "workloads": workloads,
        "probes": bench.probes() or {},
        "derived": {
            "derived.tw_overhead": wall["opt-n32"] / wall["seq-n32"],
            "derived.mp_speedup_vs_opt": wall["opt-n32"] / wall["mp-p2-n32"],
            "derived.mp_speedup_vs_seq": wall["seq-n32"] / wall["mp-p2-n32"],
        },
        "host": {
            "host.nproc": os.cpu_count(),
            "host.loadavg_start": loadavg_start,
            "host.calib_s": statistics.median(bench.calib),
            "host.calib_max_over_min": max(bench.calib) / min(bench.calib),
        },
        "failures": bench.failures,
    }
    path = os.path.join(OUT, time.strftime("result-%Y%m%d-%H%M%S.json"))
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    disagree = report(spec, result)
    print(f"\nresult written to {os.path.relpath(path)}")
    if bench.failures:
        print(f"{len(bench.failures)} FAILED RUN(S):")
        for name, what in bench.failures:
            print(f"  {name} {what}")
    return 1 if bench.failures or disagree else 0


def _cell(value) -> str:
    if value is None:
        return f"{'-':>17}"
    return f"{value:>17,}" if isinstance(value, int) else f"{value:>17,.6g}"


def _fmt(stat: dict) -> str:
    return f"{stat['median']:>12,.4g} [{stat['q1']:,.4g}, {stat['q3']:,.4g}] n={stat['n']}"


def report(spec: dict, result: dict) -> list[str]:
    """Print every metric by name; return the set-A/set-B disagreements."""
    meta = result["meta"]
    print(f"\nperfbench  seed={meta['seed']:#x}  scale={meta['scale']}  "
          f"repeats={meta['repeats']}  sets={meta['sets']}")
    if not meta["comparable"]:
        print("--quick self-test: these numbers are NOT COMPARABLE with a full run's")
    print("\nend-to-end  (median [q1, q3] n per set; bound = share of the "
          "median by which a metric may worsen)")
    print(f"{'workload':18} {'metric':13} {'unit':5} {'better':6} {'bound':>6}  sets")
    disagree = []
    for name, wl in result["workloads"].items():
        for metric in spec["end_to_end"]:
            stats = [s[metric["name"]] for s in wl["sets"]]
            flags = []
            if any(spread(s) > metric["bound"] for s in stats):
                flags.append("unresolved")
            if len(stats) == 2:
                a, b = stats[0]["median"], stats[1]["median"]
                diff = max(worse_by(metric, a, b), worse_by(metric, b, a))
                flags.append(f"B/A={b / a:.3f} (A={a:.4g})")
                if diff > metric["bound"]:
                    flags.append("SETS DISAGREE")
                    disagree.append(f"{name} {metric['name']}")
            print(f"{name:18} {metric['name']:13} {metric['unit']:5} {metric['better']:6} "
                  f"{metric['bound']:>6.0%}  " + "  |  ".join(_fmt(s) for s in stats)
                  + ("  " + " ".join(flags) if flags else ""))
        print(f"{name:18} {'raw_wall_s':13} {'s':5} {'lower':6} {'-':>6}  "
              + "  |  ".join(_fmt(s["raw_wall_s"]) for s in wl["sets"]))
        print(f"{name:18} {'failed_runs':13} {'count':5} {'lower':6} {'any':>6}  "
              f"{wl['failed']} of {wl['attempted']}")
    print("\nper layer  (one traced run per workload)")
    names = list(result["workloads"])
    print(f"{'metric':30} {'unit':6} " + " ".join(f"{n:>17}" for n in names))
    probe_names = set(result["probes"])
    for metric in spec["per_layer"]:
        if metric["name"] in probe_names:
            continue
        cells = [result["workloads"][n]["layers"].get(metric["name"]) for n in names]
        print(f"{metric['name']:30} {metric['unit']:6} "
              + " ".join(_cell(c) for c in cells))
    print(f"{'kernel.untraced_s / traced wall':37} " + " ".join(
        f"{result['workloads'][n]['layers'].get('kernel.untraced_share', float('nan')):>17.1%}"
        for n in names))
    units = {m["name"]: m["unit"] for m in spec["per_layer"]} | INFORMATIONAL
    print("\nprobes, derived and host  (informational, never gated)")
    for group in ("probes", "derived", "host"):
        for key, value in result[group].items():
            print(f"{key:30} {units[key]:6} {_cell(value)}")
    if disagree:
        print("\nSETS DISAGREE beyond the bound on: " + ", ".join(disagree))
    return disagree


def compare(spec: dict, path_a: str, path_b: str) -> int:
    """Apply the bounds to two saved results: B is the change, A its base."""
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    if a["meta"]["durations"] != b["meta"]["durations"] or a["meta"]["seed"] != b["meta"]["seed"]:
        print("the two results measured different inputs; nothing to compare")
        return 2
    print(f"{'workload':18} {'metric':13} {'unit':5} {'bound':>6} {'A (base)':>12} "
          f"{'B':>12} {'B/A':>7}  verdict")
    regressed = 0
    for name, wa in a["workloads"].items():
        wb = b["workloads"][name]
        for metric in spec["end_to_end"]:
            sa, sb = wa["pooled"][metric["name"]], wb["pooled"][metric["name"]]
            worse = worse_by(metric, sa["median"], sb["median"])
            if max(spread(sa), spread(sb)) > metric["bound"]:
                verdict = "unresolved (spread wider than the bound)"
            elif worse > metric["bound"]:
                verdict = "REGRESSED"
                regressed += 1
            else:
                verdict = "ok"
            print(f"{name:18} {metric['name']:13} {metric['unit']:5} {metric['bound']:>6.0%} "
                  f"{sa['median']:>12,.4g} {sb['median']:>12,.4g} "
                  f"{sb['median'] / sa['median']:>7.3f}  {verdict}")
        if wb["failed"] > wa["failed"]:
            print(f"{name:18} failed_runs   {wa['failed']} of {wa['attempted']} -> "
                  f"{wb['failed']} of {wb['attempted']}  REGRESSED")
            regressed += 1
    return 1 if regressed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=lambda s: int(s, 0), default=0x5EED)
    ap.add_argument("--repeats", type=int, default=5, help="timed rounds per set (default 5)")
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1,
                    help="2: run the rounds as interleaved sets A and B and "
                    "exit non-zero unless their medians agree within the bounds")
    ap.add_argument("--quick", action="store_true",
                    help="self-test: 1 repeat, short durations, small probes")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    ap.add_argument("--workload", choices=sorted(BY_NAME))
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        spec = load_spec()
        if args.compare:
            return compare(spec, *args.compare)
        code = run_one(spec, args) if args.workload else run_suite(spec, args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    left = hygiene.descendants()
    if left:
        raise AssertionError(f"run.py still has descendants: {left}")
    return code


if __name__ == "__main__":
    sys.exit(main())
