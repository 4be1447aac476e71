#!/usr/bin/env python3
"""Errors of sigma_{s,t} and of odd-d theta(d) against mpmath.

For a seeded sample of splits s > t >= 1 of the chosen d's, sigma_st(s, t)
is compared with sigma*, a bracketed mpmath root (Anderson-Bjorck, on the
equipoint band) of the two-beta residual
I_x(s/2, 1+t/2) - I_{1-x}(t/2, 1+s/2); the error is in units in the last
place of the float.  For each odd d, theta(d) is compared with
1/f_{s,t}(sigma*) at the proven split ((d+1)/2, (d-1)/2), as a relative
error.  Each row prints the float's hex, so two trees can be compared lane
by lane; the last lines give the median and the maximum of |error|.

    python scripts/mpmath_roots.py --d-max 300 --lanes 200 --seed 0
    python scripts/mpmath_roots.py --d 2000 2001 --lanes 60
"""

import argparse
import math

import mpmath
import numpy as np

from spectra_theta.theta import sigma_st, theta


def sigma_star(s: int, t: int):
    """The mpmath root of sigma's two-beta residual, bracketed by the equipoint band."""
    a, b = mpmath.mpf(s) / 2, mpmath.mpf(t) / 2
    return mpmath.findroot(
        lambda x: mpmath.betainc(a, b + 1, 0, x, regularized=True)
        - mpmath.betainc(b, a + 1, 0, 1 - x, regularized=True),
        ((a + 1) / (a + b + 2), a / (a + b)),
        solver="anderson",
    )


def theta_star(d: int):
    """1/f_{s,t}(sigma*) at the proven split of an odd d."""
    s, t = (d + 1) // 2, (d - 1) // 2
    p = sigma_star(s, t)
    i_left = mpmath.betainc(mpmath.mpf(t) / 2, mpmath.mpf(s) / 2 + 1, 0, 1 - p, regularized=True)
    i_right = mpmath.betainc(mpmath.mpf(s) / 2, mpmath.mpf(t) / 2 + 1, 0, p, regularized=True)
    f = (2 * (1 - p) * s * i_left + 2 * p * t * i_right) / ((1 - p) * s + p * t) - 1
    return 1 / f


def summary(name: str, unit: str, errors: list[float]) -> str:
    if not errors:
        return f"{name}: no values"
    size = np.abs(errors)
    return f"{name}: {len(errors)} values, |error| median {np.median(size):.3g} max {size.max():.3g} {unit}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--d-max", type=int, default=60, help="use d = 3..D")
    parser.add_argument("--d", type=int, nargs="+", help="use these d's instead of 3..--d-max")
    parser.add_argument("--lanes", type=int, default=100, help="sigma lanes to sample (all if fewer)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dps", type=int, default=40, help="mpmath decimal digits")
    args = parser.parse_args()
    ds = sorted(set(args.d or range(3, args.d_max + 1)))
    if not ds or ds[0] < 3 or args.lanes < 0:
        parser.error("every d must be at least 3, and --lanes at least 0")
    mpmath.mp.dps = args.dps

    splits = [(s, d - s) for d in ds for s in range(d // 2 + 1, d)]
    rng = np.random.Generator(np.random.Philox(key=args.seed))
    if args.lanes < len(splits):
        splits = [splits[i] for i in sorted(rng.choice(len(splits), args.lanes, replace=False))]

    print("kind,d,s,t,hex,error")
    sigma_errors, theta_errors = [], []
    for s, t in splits:
        value = sigma_st(s, t)
        sigma_errors.append(float((value - sigma_star(s, t)) / math.ulp(value)))
        print(f"sigma,{s + t},{s},{t},{value.hex()},{sigma_errors[-1]:+.1f}")
    for d in (d for d in ds if d % 2):
        value = theta(d).theta
        theta_errors.append(float(value / theta_star(d) - 1))
        print(f"theta,{d},{(d + 1) // 2},{(d - 1) // 2},{value.hex()},{theta_errors[-1]:+.3e}")
    print(summary("sigma", "ulps", sigma_errors))
    print(summary("theta", "relative", theta_errors))


if __name__ == "__main__":
    main()
