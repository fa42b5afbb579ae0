"""Run one benchmark workload against the ESDB reproduction and print its
metrics.

    python3 perfbench/run.py --workload mixed_rw --seed 1 --seconds 36 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
there. ``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` runs the same work untraced and traced in pairs and reports
per-layer metrics (spans go to ``.perfbench_out/``). Every answer is checked
against the benchmark's own reference model. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is a report with per-class metric names and
sample counts. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("ingest_spike", "query_dashboard", "mixed_rw")


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import the program
    from there, or stop: the benchmark measures only the source beside it."""
    if not (SRC / "repro" / "esdb.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import measure

    run, metrics, report = measure.execute(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    for mismatch in run.mismatches[:20]:
        print(f"MISMATCH {mismatch}", file=sys.stderr)
    correct = not run.mismatches and run.failed == 0
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
