"""FGN benchmark: one seeded workload per run, result as the last line of stdout.

    python3 perfbench/run.py --workload train_default --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. `--trace 0` prints the end-to-end metrics, `--trace 1` the
per-layer metrics of a traced run. BLAS runs with one thread per CPU this
process may use; the count is printed. Exits 1 when an output check fails
and 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train_default", "train_full_scale", "decode_long")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = ROOT / "src"
    if not (src / "fgn" / "__init__.py").is_file():
        print("error: no fgn sources under %s; run from the root of a checkout" % src, file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy is first imported, so set it before any import of numpy
    threads = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path.insert(0, str(src))
    import numpy as np
    import bench
    import fgn

    if Path(fgn.__file__).resolve().parent != src / "fgn":
        print("error: imported fgn from %s, not from %s" % (fgn.__file__, src), file=sys.stderr)
        return 2
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print("# %s %s, %d BLAS threads; python %s, numpy %s"
          % (blas["name"], blas.get("version", "?"), threads, platform.python_version(), np.__version__))

    out = HERE / "out"
    work = out / ("work-%s-%d" % (args.workload, os.getpid()))
    work.mkdir(parents=True)
    try:
        result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), str(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    line = json.dumps(result)
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
