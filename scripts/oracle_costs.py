#!/usr/bin/env python3
"""The cost of ``oracle_sweep`` at each batch size of the Monte Carlo oracle.

For each batch size (rows of ``sphere_oracle._BATCH``) and sample count,
prints one row:

* ``cold_ms``: the first ``oracle_sweep`` call in a fresh interpreter (the
  library imported, nothing drawn yet), the best of --repeat interpreters,
  and ``cold_rss_mib``, the largest resident set of those interpreters;
* ``warm_ms``: a later call in this process, the best of --repeat calls;
* ``peak_mib``: the tracemalloc peak of one call in this process.

The script sets ``_BATCH`` in each fresh interpreter, and in this process
while it times the warm calls and traces one, restoring it.  Every batch
size draws the same normals; the estimates differ in their last bits only.
Run with one BLAS thread:

    OPENBLAS_NUM_THREADS=1 python scripts/oracle_costs.py
    python scripts/oracle_costs.py --batches 13 14 --samples 20000 --repeat 1
"""

import argparse
import functools
import os
import pathlib
import subprocess
import sys
import timeit
import tracemalloc

from spectra_theta import sphere_oracle
from spectra_theta.sphere_oracle import DEFAULT_SEED, oracle_sweep

# one fresh interpreter: the time of its first oracle_sweep call, and its peak RSS
COLD = """
import resource, sys, time
from spectra_theta import sphere_oracle
sphere_oracle._BATCH = int(sys.argv[1])
start = time.perf_counter()
sphere_oracle.oracle_sweep(int(sys.argv[2]), sphere_oracle.DEFAULT_SEED)
print(time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def cold(batch: int, samples: int) -> tuple[float, float]:
    """(seconds, peak RSS in MiB) of the first call in a fresh interpreter."""
    env = dict(os.environ)
    src = str(pathlib.Path(sphere_oracle.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", COLD, str(batch), str(samples)], env=env,
                          capture_output=True, text=True, check=True)
    seconds, rss_kib = done.stdout.split()
    return float(seconds), int(rss_kib) / 1024


def warm(batch: int, samples: int, repeat: int) -> tuple[float, float]:
    """(best seconds of ``repeat`` calls, tracemalloc peak in MiB) in this
    process, with ``_BATCH`` set to ``batch``."""
    kept = sphere_oracle._BATCH
    sphere_oracle._BATCH = batch
    call = functools.partial(oracle_sweep, samples, DEFAULT_SEED)
    try:
        call()
        seconds = min(timeit.repeat(call, number=1, repeat=repeat))
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return seconds, peak / (1 << 20)
    finally:
        sphere_oracle._BATCH = kept


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--batches", type=int, nargs="+", default=[12, 13, 14, 15, 16, 17],
                        help="batch sizes as powers of two (rows)")
    parser.add_argument("--samples", type=int, nargs="+", default=[500_000, 1_000_000])
    parser.add_argument("--repeat", type=int, default=5, help="timed runs; the best is printed")
    args = parser.parse_args(argv)
    print(f"_BATCH = {sphere_oracle._BATCH}")
    print("batch_rows,samples,cold_ms,cold_rss_mib,warm_ms,peak_mib")
    for batch in (1 << k for k in args.batches):
        for samples in args.samples:
            runs = [cold(batch, samples) for _ in range(args.repeat)]
            cold_s, rss = min(s for s, _ in runs), max(r for _, r in runs)
            warm_s, peak = warm(batch, samples, args.repeat)
            print(f"{batch},{samples},{cold_s * 1e3:.1f},{rss:.1f},{warm_s * 1e3:.1f},{peak:.2f}")


if __name__ == "__main__":
    main()
