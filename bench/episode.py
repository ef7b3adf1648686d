"""One episode of an eitdisk benchmark run: a fresh interpreter, one pass.

    python3 bench/episode.py --workload disk_exact --seed 1 --workdir DIR [--first-only]

``run.py`` starts this after writing the workload's inputs to ``DIR``, once
for a full pass and once, as a probe, with ``--first-only``.  It times the
import of eitdisk, eitdisk.io and eitdisk.cli, times the reference kernel
right after it, builds the case list from the seed and ``DIR`` without
running program code that could fill a cache, and makes one pass over the
cases (the first one cold), each bracketed by the reference kernel.  It
gates each case outside its timing and prints gate failures and then, as its
last line, one JSON object with the import time, the case and kernel times,
the counts and the peak resident memory of this process.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--first-only", action="store_true", help="run the first case only")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    start = time.perf_counter()
    import eitdisk, eitdisk.io, eitdisk.cli  # noqa: E401,F401
    import_s = time.perf_counter() - start

    import run
    import workloads

    import_host = run.reference_time()
    workload = workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir))
    if args.first_only:
        workload.cases = workload.cases[:1]
    runner = run.Runner(workload)
    runner.run_pass()
    print(json.dumps({
        "import_s": import_s,
        "import_host": import_host,
        "case_times": runner.case_times,
        "host_times": runner.host_times,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
