"""Pipeline benchmark for qpland (generate -> representatives -> train -> eval).

    python3 perfbench/run.py --workload bistable3d --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The line before it records the
environment and every pass's set-up and stage times, by wall clock and by
CPU time. The exit code is nonzero when a stage or a check failed.
"""

import argparse
import json
import sys
import time
from pathlib import Path


def main(argv=None):
    start = (time.perf_counter(), time.process_time())  # a pass's set-up counts from here
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass", dest="pass_spec", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import bench  # standard library only; passes import NumPy, pinned to one thread
    src = bench.ROOT / "src"
    if not (src / "qpland" / "__init__.py").is_file():
        print(f"qpland sources not found under {src}", file=sys.stderr)
        return 2

    if args.pass_spec is not None:
        sys.path.insert(0, str(src))
        import qpland
        if Path(qpland.__file__).resolve().parent != src / "qpland":
            print(f"imported qpland from {qpland.__file__}, not from {src}", file=sys.stderr)
            return 2
        import pipeline
        print(json.dumps(pipeline.child_main(json.loads(args.pass_spec), start)))
        return 0

    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(bench.WORKLOADS)}")
    result, info = bench.run(bench.WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace))
    print(json.dumps({"provenance": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
