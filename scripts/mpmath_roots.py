#!/usr/bin/env python3
"""Errors of sigma_{s,t}, of odd-d theta(d), of equipoint rows and of the
incomplete-beta row kernel against mpmath.

Every root is compared with one mpmath root, the equipoint e*_{a,b}: a
bracketed root (Anderson-Bjorck) of the two-beta residual
I_x(a, 1+b) - I_{1-x}(b, 1+a).  For a seeded sample of splits s > t >= 1 of
the chosen d's, sigma_st(s, t) is compared with sigma* = e*_{s/2,t/2}; the
error is in units in the last place of the float.  For each odd d, theta(d)
is compared with 1/f_{s,t}(sigma*) at the proven split ((d+1)/2, (d-1)/2),
as a relative error.  With --equipoints N, the script instead solves one
row of N equipoints (``betastats._equipoint_rows``), its shapes (s, t)
drawn uniform on [0.5, 200] from the Philox key --seed, and compares each
lane with e*_{s,t}, in ulps.  With --kernel N, it evaluates one row of N
lanes of the row kernel (``specfun._ibeta_row``), shapes (a, b) log-uniform
on [0.5, 200] and p drawn from Beta(a, b) (so near the mean), and compares
I_p with mpmath's betainc (absolute error) and the density with
p^(a-1) (1-p)^(b-1) / B(a, b) (relative error).  Each row prints the
float's hex, so two trees can be compared lane by lane; the last lines give
the median and the maximum of |error|.

    python scripts/mpmath_roots.py --d-max 300 --lanes 200 --seed 0
    python scripts/mpmath_roots.py --d 2000 2001 --lanes 60
    python scripts/mpmath_roots.py --equipoints 3000 --seed 25
    python scripts/mpmath_roots.py --kernel 1500 --seed 30
"""

import argparse
import math

import mpmath
import numpy as np

from spectra_theta.betastats import _equipoint_rows
from spectra_theta.specfun import _ibeta_row
from spectra_theta.theta import sigma_st, theta


def equipoint_star(a, b):
    """The mpmath equipoint of the real shapes (a, b), the root of the
    two-beta residual.  The band's end (a+1)/(a+b+2) is a proven lower bound
    for b <= a, and by the mirror e_{a,b} = 1 - e_{b,a} an upper bound for
    b >= a, so it and the far end of [0, 1] bracket the root."""
    a, b = mpmath.mpf(a), mpmath.mpf(b)
    pivot = (a + 1) / (a + b + 2)
    return mpmath.findroot(
        lambda x: mpmath.betainc(a, b + 1, 0, x, regularized=True)
        - mpmath.betainc(b, a + 1, 0, 1 - x, regularized=True),
        (pivot, 1) if b <= a else (0, pivot),
        solver="anderson",
    )


def sigma_star(s: int, t: int):
    """sigma*, the mpmath equipoint of (s/2, t/2)."""
    return equipoint_star(mpmath.mpf(s) / 2, mpmath.mpf(t) / 2)


def equipoint_errors(lanes: int, seed: int) -> list[float]:
    """Print each lane of a seeded equipoint row with its error in ulps."""
    s, t = np.random.Generator(np.random.Philox(key=seed)).uniform(0.5, 200.0, (2, lanes))
    errors = []
    for a, b, value in zip(s.tolist(), t.tolist(), _equipoint_rows(s, t).tolist()):
        errors.append(float((value - equipoint_star(a, b)) / math.ulp(value)))
        print(f"equipoint,{a + b!r},{a!r},{b!r},{value.hex()},{errors[-1]:+.1f}")
    return errors


def kernel_lanes(lanes: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The seeded (a, b, p) row of --kernel: shapes log-uniform on [0.5, 200],
    p drawn from Beta(a, b)."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    a, b = np.exp(rng.uniform(math.log(0.5), math.log(200.0), (2, lanes)))
    return a, b, rng.beta(a, b)


def kernel_errors(lanes: int, seed: int) -> tuple[list[float], list[float]]:
    """Print each lane of a seeded kernel row with the errors of I_p
    (absolute) and of the density (relative) against mpmath."""
    a, b, p = kernel_lanes(lanes, seed)
    value_errors, density_errors = [], []
    for x, y, z, value, density in zip(*(row.tolist() for row in (a, b, p, *_ibeta_row(a, b, p)))):
        ma, mb, mz = mpmath.mpf(x), mpmath.mpf(y), mpmath.mpf(z)
        value_errors.append(float(value - mpmath.betainc(ma, mb, 0, mz, regularized=True)))
        density_errors.append(float(density / (mz ** (ma - 1) * (1 - mz) ** (mb - 1) / mpmath.beta(ma, mb)) - 1))
        print(f"kernel,{x!r},{y!r},{z!r},{value.hex()},{value_errors[-1]:+.3e},"
              f"{density.hex()},{density_errors[-1]:+.3e}")
    return value_errors, density_errors


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
    parser.add_argument("--equipoints", type=int, metavar="N",
                        help="check a seeded row of N equipoints instead of sigma and theta")
    parser.add_argument("--kernel", type=int, metavar="N",
                        help="check a seeded row of N incomplete-beta kernel lanes instead")
    args = parser.parse_args()
    mpmath.mp.dps = args.dps
    if args.kernel is not None:
        if args.kernel < 0:
            parser.error("--kernel must be at least 0")
        print("kind,a,b,p,hex,error,density_hex,density_error")
        value_errors, density_errors = kernel_errors(args.kernel, args.seed)
        print(summary("I_p", "absolute", value_errors))
        print(summary("density", "relative", density_errors))
        return
    if args.equipoints is not None:
        if args.equipoints < 0:
            parser.error("--equipoints must be at least 0")
        print("kind,d,s,t,hex,error")
        print(summary("equipoint", "ulps", equipoint_errors(args.equipoints, args.seed)))
        return
    ds = sorted(set(args.d or range(3, args.d_max + 1)))
    if not ds or ds[0] < 3 or args.lanes < 0:
        parser.error("every d must be at least 3, and --lanes at least 0")

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
