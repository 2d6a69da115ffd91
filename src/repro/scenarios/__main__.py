"""``python -m repro.scenarios`` — validate and inspect scenario files.

Subcommands::

    python -m repro.scenarios validate examples/scenarios/*.json
    python -m repro.scenarios show examples/scenarios/adversarial_hotspot.json

``validate`` loads, validates *and compiles* each file (compilation
catches errors referential validation cannot, like an out-of-range
scripted destination or a fault plan naming a router the grid lacks).
``show`` prints the resolved scenario — identity hash, topology,
expanded adversary size, fault events.  ``python -m repro.hotpotato
--scenario FILE --engine seq|cons|opt`` runs one.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ConfigurationError
from repro.scenarios.compile import compile_scenario
from repro.scenarios.spec import load_scenario

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Validate and inspect declarative scenario files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser(
        "validate", help="load + validate + compile scenario files"
    )
    p_validate.add_argument("files", nargs="+", metavar="FILE")

    p_show = sub.add_parser("show", help="print one resolved scenario")
    p_show.add_argument("file", metavar="FILE")
    return parser


# ----------------------------------------------------------------------
def cmd_validate(files: list[str]) -> int:
    failures = 0
    for path in files:
        try:
            compiled = compile_scenario(load_scenario(path))
        except (ConfigurationError, OSError) as exc:
            print(f"FAIL  {path}: {exc}")
            failures += 1
            continue
        sim = compiled.sim
        extras = []
        if sim.injection_plan is not None:
            extras.append(
                f"adversary={sim.injection_plan.strategy}"
                f"({len(sim.injection_plan.entries)} injections)"
            )
        if sim.fault_plan is not None:
            extras.append(f"faults={len(sim.fault_plan.events)} events")
        suffix = f" [{', '.join(extras)}]" if extras else ""
        print(
            f"ok    {path}: {compiled.name} "
            f"({compiled.scenario_hash()}){suffix}"
        )
    if failures:
        print(f"{failures} of {len(files)} scenario file(s) failed validation")
        return 1
    print(f"all {len(files)} scenario file(s) valid")
    return 0


def cmd_show(path: str) -> int:
    scenario = load_scenario(path)
    compiled = compile_scenario(scenario)
    sim = compiled.sim
    cfg = sim.cfg
    print(f"scenario : {compiled.name}  [{compiled.scenario_hash()}]")
    if scenario.description:
        print(f"about    : {scenario.description}")
    print(f"topology : {cfg.n}x{cfg.n} {cfg.topology} ({cfg.num_routers} routers)")
    traffic = scenario.traffic
    if sim.injection_plan is not None:
        plan = sim.injection_plan
        steps = max((e.step for e in plan.entries), default=0) + 1
        print(
            f"traffic  : adversarial/{plan.strategy}, rate {plan.rate}, "
            f"seed {plan.seed} -> {len(plan.entries)} injections over "
            f"{steps} steps"
        )
    else:
        print(
            "traffic  : bernoulli, injector_fraction "
            f"{traffic.get('injector_fraction', 1.0)}"
        )
    print(f"routing  : {sim.policy.name}")
    print(
        f"engine   : duration {cfg.duration:g}, seed {sim.seed}, "
        f"defaults n_pes={compiled.n_pes} n_kps={compiled.n_kps or 'auto'} "
        f"batch={compiled.batch_size}"
    )
    overrides = scenario.engine.get("overrides", {})
    if overrides:
        print(f"overrides: {overrides}")
    if sim.fault_plan is not None:
        plan = sim.fault_plan
        print(
            f"faults   : {len(plan.events)} scheduled events "
            f"(seed {plan.seed})"
        )
    else:
        print("faults   : none")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(args.files)
        return cmd_show(args.file)
    except (ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
