"""embed_images throughput at pool threads 1 and nproc, in an interpreter of its own.

The benchmark's timed workloads pin BLAS to one thread before numpy loads;
this sweep must see BLAS threads at their default, as the caller's
environment sets them, so the traced ``verify`` run starts it as a child:

    python3 benchmarks/sweep.py SEED WORKDIR

It sets up the ``verify`` workload from SEED (writing its checkpoint under
WORKDIR) and prints one JSON object, {"1": images/s, "nproc": images/s}.
"""

import json
import sys

import run


def main(argv):
    seed, workdir = int(argv[0]), argv[1]
    fx = run.import_package()
    import workloads

    workload = workloads.Verify(fx, seed, workdir)
    workload.setup()
    print(json.dumps(workloads.embed_sweep(workload)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
