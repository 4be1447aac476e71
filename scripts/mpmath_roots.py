#!/usr/bin/env python3
"""Errors against the mpmath reference of ``mp_reference.py``, at --dps
digits: of sigma_{s,t} on a seeded sample of splits s > t >= 1 of the
chosen d's, in ulps of sigma* = e*_{s/2,t/2}, and of theta(d), theta_- and
theta_+ for each odd d, relative to theta* at the proven split (the theta
row names the NumericError where theta(d) raises).  --equipoints N checks a
seeded row of N equipoints (``betastats._equipoint_rows``, shapes uniform on
[0.5, 200]) in ulps of e*; --kernel N a seeded row of N lanes of
``specfun._ibeta_row`` (shapes log-uniform on [0.5, 200], p from
Beta(a, b)), I_p absolute and the density relative.  Each row prints the
float's hex, to compare two trees lane by lane; the last lines give the
median and maximum |error| (theta's without its bounds).  The three modes
(the d's, --equipoints, --kernel) are exclusive, as are --d and --d-max, and
--lanes samples sigma only: a flag that the chosen mode would ignore is a
usage error (exit 2).

    python scripts/mpmath_roots.py --d-max 300 --lanes 200 --seed 0
    python scripts/mpmath_roots.py --d 2001 24959 99999 --lanes 0
    python scripts/mpmath_roots.py --equipoints 3000 --seed 25
    python scripts/mpmath_roots.py --kernel 1500 --seed 30
"""

import argparse
import math

import mpmath
import numpy as np

from mp_reference import density, equipoint, equipoint_lanes, ibeta, kernel_lanes, theta_star
from spectra_theta.betastats import _equipoint_rows
from spectra_theta.errors import NumericError
from spectra_theta.specfun import _ibeta_row
from spectra_theta.theta import sigma_st, theta, theta_odd_bounds


def root_errors(kind: str, rows) -> list[float]:
    """Print each root of the (d, s, t, a, b, root) rows with its error in
    ulps against e*_{a,b}."""
    errors = []
    for d, s, t, a, b, value in rows:
        errors.append(float((value - equipoint(a, b)) / math.ulp(value)))
        print(f"{kind},{d},{s},{t},{value.hex()},{errors[-1]:+.1f}")
    return errors


def kernel_errors(lanes: int, seed: int) -> tuple[list[float], list[float]]:
    """Print each lane of a seeded kernel row with the errors of I_p
    (absolute) and of the density (relative) against mpmath."""
    a, b, p = kernel_lanes(lanes, seed)
    value_errors, density_errors = [], []
    for x, y, z, value, pdf in zip(*(row.tolist() for row in (a, b, p, *_ibeta_row(a, b, p)))):
        value_errors.append(float(value - ibeta(x, y, z)))
        density_errors.append(float(pdf / density(x, y, z) - 1))
        print(f"kernel,{x!r},{y!r},{z!r},{value.hex()},{value_errors[-1]:+.3e},"
              f"{pdf.hex()},{density_errors[-1]:+.3e}")
    return value_errors, density_errors


def theta_errors(d: int) -> list[float]:
    """Print theta(d), theta_- and theta_+ of an odd d relative to theta*;
    return theta's error, or nothing where theta(d) raises."""
    s, t, star = (d + 1) // 2, (d - 1) // 2, theta_star(d)
    try:
        rows = [("theta", theta(d).theta)]
    except NumericError:
        print(f"theta,{d},{s},{t},NumericError,")
        rows = []
    errors = []
    for kind, value in rows + list(zip(("theta_minus", "theta_plus"), theta_odd_bounds(d))):
        errors.append(float(value / star - 1))
        print(f"{kind},{d},{s},{t},{value.hex()},{errors[-1]:+.3e}")
    return errors[: len(rows)]


def summary(name: str, unit: str, errors: list[float]) -> str:
    if not errors:
        return f"{name}: no values"
    size = np.abs(errors)
    return f"{name}: {len(errors)} values, |error| median {np.median(size):.3g} max {size.max():.3g} {unit}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--d-max", type=int, help="use d = 3..D (default 60)")
    mode.add_argument("--d", type=int, nargs="+", help="use these d's instead of 3..--d-max")
    mode.add_argument("--equipoints", type=int, metavar="N",
                      help="check a seeded row of N equipoints instead of sigma and theta")
    mode.add_argument("--kernel", type=int, metavar="N",
                      help="check a seeded row of N incomplete-beta kernel lanes instead")
    parser.add_argument("--lanes", type=int, help="sigma lanes to sample (default 100; all if fewer)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dps", type=int, default=40, help="mpmath decimal digits")
    args = parser.parse_args()
    if args.lanes is not None and (args.kernel is not None or args.equipoints is not None):
        parser.error("--lanes samples sigma; it is not read with --kernel or --equipoints")
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
        s, t = equipoint_lanes(args.equipoints, args.seed)
        print("kind,d,s,t,hex,error")
        rows = zip(*(row.tolist() for row in (s + t, s, t, s, t, _equipoint_rows(s, t))))
        print(summary("equipoint", "ulps", root_errors("equipoint", rows)))
        return
    ds = sorted(set(args.d or range(3, (60 if args.d_max is None else args.d_max) + 1)))
    lanes = 100 if args.lanes is None else args.lanes
    if not ds or ds[0] < 3 or lanes < 0:
        parser.error("every d must be at least 3, and --lanes at least 0")

    splits = [(s, d - s) for d in ds for s in range(d // 2 + 1, d)]
    rng = np.random.Generator(np.random.Philox(key=args.seed))
    if lanes < len(splits):
        splits = [splits[i] for i in sorted(rng.choice(len(splits), lanes, replace=False))]

    print("kind,d,s,t,hex,error")
    rows = ((s + t, s, t, mpmath.mpf(s) / 2, mpmath.mpf(t) / 2, sigma_st(s, t)) for s, t in splits)
    sigma_errors = root_errors("sigma", rows)
    errors = [error for d in ds if d % 2 for error in theta_errors(d)]
    print(summary("sigma", "ulps", sigma_errors))
    print(summary("theta", "relative", errors))


if __name__ == "__main__":
    main()
