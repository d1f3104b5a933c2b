"""Run one benchmark workload and print its result as JSON.

Usage, from the repository root:

    python3 perfbench/run.py --workload infer_data --seed 3 --seconds 20 --trace 0

Workloads: train_toy, infer_data, infer_gap (see perfbench/README.md).
--trace 0 measures the end-to-end metrics; --trace 1 makes a separate
traced run and reports per-layer metrics per op. The next-to-last stdout
line is a JSON record of the environment, the output digest and the sample
counts; the last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

The benchmark runs in one process with BLAS capped at one thread; the
thread variables are set here, before numpy is imported.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_PARENT = os.path.join(ROOT, ".bench_build")

WORKLOAD_NAMES = ("train_toy", "infer_data", "infer_gap")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "cdrm", "__init__.py")):
        print(f"perfbench: no cdrm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(WORK_PARENT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="perfbench-", dir=WORK_PARENT)
    try:
        measure = harness.run_traced if args.trace else harness.run_untraced
        result, extra = measure(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": harness.environment(args.seed, workload),
        **extra,
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
