"""Time the set-up of one workload in this fresh interpreter.

    python3 perfbench/setup_probe.py --workload synth-n2 --seed 1

Prints {"setup_s": ...}: the time to import srbb plus the time to build the
workload's inputs through it.  ``run.py`` starts several of these and
reports their median.
"""

import argparse
import json
import os
import sys
import time

import env


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args()
    os.environ.pop("SRBB_THREADS", None)
    env.use_checkout_source()
    start = time.perf_counter()
    import srbb
    import srbb.cli  # noqa: F401  (not imported by the package itself)
    imported = time.perf_counter() - start
    env.check_imported(srbb)
    import workloads

    workdir = os.path.join(env.OUT, f"probe-{os.getpid()}")
    start = time.perf_counter()
    workloads.WORKLOADS[args.workload].setup(srbb, args.seed, workdir)
    built = time.perf_counter() - start
    print(json.dumps({"setup_s": imported + built}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
