"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fdrt_reorder --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a separate run with layer spans.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Everything runs in this process; the only files written
are per-round result caches under ``perfbench/.work``, removed as each
round ends.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"


def isolate_environment() -> None:
    """Drop every ``REPRO_*`` setting the caller's shell may carry.

    The engine reads cache, pool, service, telemetry, tracing and
    heartbeat settings from the environment; none of them may reach a
    measured run.
    """
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]


def main(argv=None) -> int:
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source at {SOURCE}", file=sys.stderr)
        return 2
    isolate_environment()
    sys.path.insert(0, str(SOURCE))
    import harness

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = harness.WORKLOADS[args.workload]
    work_dir = HERE / ".work"
    work_dir.mkdir(exist_ok=True)
    try:
        if args.trace:
            report = harness.measure_traced(workload, args.seed, args.seconds,
                                            str(work_dir))
            catalogue = harness.PER_LAYER
        else:
            report = harness.measure(workload, args.seed, args.seconds,
                                     str(work_dir))
            catalogue = harness.END_TO_END
    finally:
        try:
            work_dir.rmdir()
        except OSError:
            pass  # another run is still using it

    tally = report.tally
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{report.rounds} rounds, {tally.attempted} operations, "
          f"{tally.failed} failed")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    print(f"digest {workload.name} seed {args.seed} sha256 {report.digest}")
    metrics = {}
    for name, unit, _better in catalogue:
        value = report.metrics[name]
        print(f"  {name:36s} {value:16.6f} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
