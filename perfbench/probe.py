"""Fresh-interpreter probe: set-up time, and optionally the peak RSS of one
workload body.

    python3 perfbench/probe.py --workload NAME --seed N [--body]

Prints one JSON object. Set-up is timed from before ``import numpy`` to
after the CLI parser is built; interpreter start-up is not included.
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--body", action="store_true",
                        help="also run one body and report its peak RSS")
    args = parser.parse_args()
    sys.path.insert(0, SRC)

    t0 = time.perf_counter()
    import numpy  # noqa: F401
    t1 = time.perf_counter()
    import marketflow  # noqa: F401
    t2 = time.perf_counter()
    from marketflow.cli import build_parser
    build_parser()
    t3 = time.perf_counter()
    out = {"setup_s": t3 - t0, "import_numpy_s": t1 - t0,
           "import_marketflow_s": t2 - t1}

    if args.body:
        import random

        from workloads import WORKLOADS, plain_calls
        workload = WORKLOADS[args.workload]
        out_dir = os.path.join(os.path.dirname(HERE), ".perfbench_out",
                               args.workload, "probe")
        os.makedirs(out_dir, exist_ok=True)
        inputs = workload.inputs(random.Random(args.seed))
        workload.run_body(plain_calls(), inputs, out_dir)
        # ru_maxrss is in KiB on Linux
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
