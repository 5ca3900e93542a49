"""Run one workload of the hgdb-py benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: fig5_run, debug_session, cold_start, seed_sweep (see each
module).  The seed makes every input: the same seed gives the same
programs, conditions, rewind targets, design variants and sweep seeds.

``--trace 0`` measures the end-to-end metrics over ``--seconds`` of one
closed-loop client; ``--trace 1`` spends half of ``--seconds`` untraced
and half traced and reports the per-layer metrics.  Comment lines start
with ``#``; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` next to this directory; without
it the run fails before printing a result.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

WORKLOADS = ("fig5_run", "debug_session", "cold_start", "seed_sweep")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root))
    from perfbench import harness

    harness.pin_environment()
    import importlib

    module = importlib.import_module(f"perfbench.{args.workload}")
    cls = next(
        obj for obj in vars(module).values()
        if isinstance(obj, type) and getattr(obj, "name", None) == args.workload
    )
    workload = cls(args.seed)
    if args.trace:
        harness.traced_run(workload, args.seconds, args.seed)
    else:
        harness.untraced_run(workload, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
