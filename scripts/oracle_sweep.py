#!/usr/bin/env python3
"""Side-by-side table of Monte Carlo sphere integrals and their closed
forms: kappa at the optimal weights for every split of each d, with the
z-score of the disagreement.

    python scripts/oracle_sweep.py --d-max 6 --samples 200000
"""

import argparse

import numpy as np

from spectra_theta.sphere_oracle import DEFAULT_SEED, AbsQuadratic, joint_estimates
from spectra_theta.theta import SignDiag, kappa_star


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d-max", type=int, default=6)
    parser.add_argument("--samples", type=int, default=200_000)
    parser.add_argument("--seed", type=lambda v: int(v, 0), default=DEFAULT_SEED)
    args = parser.parse_args()
    if args.samples < 2:  # one sample has no standard error, so no z-score
        parser.error(f"--samples must be at least 2, got {args.samples}")

    print("s,t,kappa_closed,kappa_mc,std_err,z")
    splits = [(s, d - s) for d in range(2, args.d_max + 1) for s in range((d + 1) // 2, d)]
    kappas, requests = [], []
    for s, t in splits:
        ks, a_opt, b_opt = kappa_star(s, t)
        kappas.append(ks)
        requests.append(AbsQuadratic(np.diag(SignDiag(s, t, a_opt, b_opt).diagonal())))
    # one pass over the seed's normal stream serves every split
    estimates = joint_estimates(requests, n=args.samples, seed=args.seed)
    for (s, t), ks, est in zip(splits, kappas, estimates):
        z = (est.value - ks) / est.std_err if est.std_err else 0.0
        print(f"{s},{t},{ks:.8f},{est.value:.8f},{est.std_err:.2e},{z:+.2f}")


if __name__ == "__main__":
    main()
