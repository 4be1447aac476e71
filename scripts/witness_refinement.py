#!/usr/bin/env python3
"""Refinement experiment: how fast does the sharpness witness climb to
theta(d)?

For each partition size the witness pencil/tuple pair is rebuilt from
scratch and the achieved lambda_max is printed next to theta(d).  Useful
for picking sane cell counts before trusting a one-sided bound.  For d = 2
the cell averages are exact arc integrals and --samples-per-cell is not
read; for d >= 3 each cell average is estimated from that many Haar
samples per cell.

    python scripts/witness_refinement.py --d 3 --samples-per-cell 5000
"""

import argparse
import time

from spectra_theta.pencil import sharpness_witness
from spectra_theta.sphere_oracle import DEFAULT_SEED
from spectra_theta.theta import theta


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=int, default=2)
    parser.add_argument("--cells", type=int, nargs="*", default=[1, 4, 16, 64, 256])
    parser.add_argument("--samples-per-cell", type=int, default=5000,
                        help="Haar samples per cell for d >= 3 (d = 2 is exact and draws none)")
    parser.add_argument("--seed", type=lambda v: int(v, 0), default=DEFAULT_SEED)
    args = parser.parse_args()

    th = theta(args.d).theta
    print(f"theta({args.d}) = {th:.10f}")
    print("cells,lambda_max,ratio,seconds")
    for cells in args.cells:
        start = time.perf_counter()
        _, _, lam = sharpness_witness(args.d, cells, args.samples_per_cell, args.seed)
        elapsed = time.perf_counter() - start
        print(f"{cells},{lam:.8f},{lam / th:.6f},{elapsed:.2f}")


if __name__ == "__main__":
    main()
