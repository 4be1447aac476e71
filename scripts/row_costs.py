#!/usr/bin/env python3
"""The fixed costs of the row kernel and the Newton row, in microseconds.

Prints three tables, each time the best of --repeat runs of --number calls:

* ``cf``: the continued fraction per lane, the numpy loop ``_beta_cf_row``
  against the scalar ``_beta_cf`` mapped lane by lane, on rows of 1 to 256
  lanes drawn evenly from the lanes that reach the continued fraction
  while ``theta(d)`` is computed (d = 20, 200, 2000).  A ``ratio`` (row
  over scalar) above 1 says the scalar loop is the cheaper at that row
  length; the kernel switches loops at ``specfun._ROW_MIN_LANES`` lanes;
* ``lnb``: ``_ln_beta_row`` per lane on the same rows' shapes, through its
  sort branch and through its memo branch, which ``_ROW_MIN_LANES`` also
  chooses between; the memo cold (cleared before each call, as for a row
  of new shapes) and warm (every shape a hit, as for a repeated row);
* ``call``: one one-lane ``_ibeta_row`` call, one Newton round on a
  trivial residual (a ``newton_rows`` call of two rounds less one of one
  round), and one one-lane ``median(BetaShape(7, 2.5))``.

The timed calls are the library's own.  The script wraps the two loops
while it records theta(d)'s lanes, and sets the crossover while it times
the ``lnb`` branches, restoring both.  Run with one BLAS thread:

    OPENBLAS_NUM_THREADS=1 python scripts/row_costs.py
    python scripts/row_costs.py --repeat 3 --number 2 --d 20 --lanes 1 8
"""

import argparse
import timeit

import numpy as np

from spectra_theta import specfun
from spectra_theta.betastats import BetaShape, median
from spectra_theta.rootfind import newton_rows
from spectra_theta.theta import theta

LANES = (1, 2, 4, 8, 16, 24, 32, 48, 64, 96, 128, 192, 256)


def best_us(call, number: int, repeat: int) -> float:
    """The best of ``repeat`` runs of ``number`` calls, in us per call."""
    return min(timeit.repeat(call, number=number, repeat=repeat)) / number * 1e6


def cf_lanes(d: int) -> tuple[np.ndarray, ...]:
    """Every (a, b, x) lane that reaches the continued fraction in theta(d),
    in the order the kernel sees them."""
    seen, row_loop, scalar_loop = [], specfun._beta_cf_row, specfun._beta_cf

    def record_row(a, b, x):
        seen.extend(zip(a.tolist(), b.tolist(), x.tolist()))
        return row_loop(a, b, x)

    def record_lane(a, b, x):
        seen.append((a, b, x))
        return scalar_loop(a, b, x)

    specfun._beta_cf_row, specfun._beta_cf = record_row, record_lane
    try:
        theta(d)
    finally:
        specfun._beta_cf_row, specfun._beta_cf = row_loop, scalar_loop
    return tuple(np.array(column) for column in zip(*seen))


def sample(rows: tuple[np.ndarray, ...], n: int) -> tuple[np.ndarray, ...]:
    """``n`` lanes spread evenly over the rows."""
    pick = np.linspace(0, rows[0].size - 1, n).astype(int)
    return tuple(np.ascontiguousarray(row[pick]) for row in rows)


def lnb_branch_us(a, b, crossover: int, cold: bool, number: int, repeat: int) -> float:
    """``_ln_beta_row`` per lane with ``_ROW_MIN_LANES`` set to ``crossover``,
    from an empty memo if ``cold``."""
    kept = specfun._ROW_MIN_LANES
    specfun._ROW_MIN_LANES = crossover
    clear = specfun._ln_beta.cache_clear if cold else lambda: None
    try:
        specfun._ln_beta_row(a, b)
        return best_us(lambda: (clear(), specfun._ln_beta_row(a, b)), number, repeat) / a.size
    finally:
        specfun._ROW_MIN_LANES = kept


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7, help="timed runs; the best is printed")
    parser.add_argument("--number", type=int, default=200, help="calls per timed run")
    parser.add_argument("--d", type=int, nargs="+", default=[20, 200, 2000])
    parser.add_argument("--lanes", type=int, nargs="+", default=list(LANES))
    args = parser.parse_args(argv)
    number, repeat = args.number, args.repeat
    print(f"_ROW_MIN_LANES = {specfun._ROW_MIN_LANES}")
    print("table,d,lanes,row_us_per_lane,scalar_us_per_lane,ratio")
    pools = {d: cf_lanes(d) for d in args.d}
    for d, pool in pools.items():
        for n in args.lanes:
            a, b, x = sample(pool, n)
            row = best_us(lambda: specfun._beta_cf_row(a, b, x), number, repeat) / n
            scalar = best_us(lambda: specfun._map(specfun._beta_cf, a, b, x), number, repeat) / n
            print(f"cf,{d},{n},{row:.3f},{scalar:.3f},{row / scalar:.2f}")
    print("table,d,lanes,sort_us_per_lane,cold_memo_us_per_lane,warm_memo_us_per_lane")
    for d, pool in pools.items():
        for n in args.lanes:
            a, b, _ = sample(pool, n)
            sort = lnb_branch_us(a, b, 0, False, number, repeat)
            cold, warm = (lnb_branch_us(a, b, n + 1, cold, number, repeat) for cold in (True, False))
            print(f"lnb,{d},{n},{sort:.3f},{cold:.3f},{warm:.3f}")
    print("table,call,us")
    a, b, p = np.array([7.0]), np.array([2.5]), np.array([0.3])
    print(f"call,ibeta_row_one_lane,{best_us(lambda: specfun._ibeta_row(a, b, p), number, repeat):.1f}")

    def rounds(k: int) -> float:
        # the residual x - 0.25 is 0 at x0 = 0.25, so that row stops in its
        # first round; from x0 = 0.75 one exact Newton step lands on 0.25
        start = np.array([0.25 if k == 1 else 0.75])
        return best_us(lambda: newton_rows(lambda x, lanes: (x - 0.25, np.ones_like(x)), 0.0, 1.0,
                                           x0=start, xtol=0.0, rtol=1e-14), number, repeat)

    print(f"call,newton_round,{rounds(2) - rounds(1):.1f}")
    shape = BetaShape(7.0, 2.5)
    print(f"call,median_one_lane,{best_us(lambda: median(shape), number, repeat):.1f}")


if __name__ == "__main__":
    main()
