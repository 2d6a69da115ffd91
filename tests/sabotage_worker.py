"""A point worker that misbehaves on request, for the supervisor's tests.

``python -m tests.sabotage_worker SPEC.json RESULT.pkl HEARTBEAT CKPT_DIR``
takes the point worker's arguments.  The spec's ``sabotage`` key picks
the failure: ``"stall"`` hangs without touching the heartbeat (the
supervisor's watchdog must SIGKILL it); ``{"flaky": k}`` exits 1 on the
first *k* attempts of the point.  The worker then runs the spec, without
that key, through :func:`repro.experiments.pointworker.main`, so the
point's checkpoints and result are the ones an honest worker writes.
Tests select it by setting ``Supervisor.worker_module``.
"""

import json
import sys
import time
from pathlib import Path

from repro.experiments import pointworker


def main(argv: list[str]) -> int:
    spec_path, result_path, heartbeat, ckpt_dir = map(Path, argv)
    spec = json.loads(spec_path.read_text())
    mode = spec.pop("sabotage", None)
    if mode == "stall":
        time.sleep(3600)
        return 1
    if isinstance(mode, dict) and "flaky" in mode:
        counter = ckpt_dir.parent / "flaky_attempts"
        attempts = int(counter.read_text()) if counter.exists() else 0
        counter.write_text(str(attempts + 1))
        if attempts < int(mode["flaky"]):
            return 1
    honest = spec_path.with_name("spec_honest.json")
    honest.write_text(json.dumps(spec))
    return pointworker.main([str(honest), str(result_path), str(heartbeat), str(ckpt_dir)])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
