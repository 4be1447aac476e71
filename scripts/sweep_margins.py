#!/usr/bin/env python3
"""How close each check of ``verify simmons`` and ``verify bounds`` came to failing.

Each sweep reads a bound's verdict from the sign of its root's increasing
residual at the bound +- 1e-12 (``betastats._residuals``).  For each check
this script also solves every root, and prints one CSV row: the smallest
slack, the distance from the root to the shifted bound (positive where the
check passes), the residual at the shifted bound on that lane (its sign is
the verdict; slack times the residual's slope is about the residual), and
the shape where it occurred: the split (s, t) for ``simmons``, as its
records name it, and the drawn or grid shape (s, t) for ``bounds``.  The
checks are those of ``verify simmons --d-max D`` and of ``verify bounds
--seed S --d-max B --grid-step G``:

    python scripts/sweep_margins.py
    python scripts/sweep_margins.py --d-max 60 --seed 1 --bounds-d-max 20
"""

import argparse

import numpy as np

from spectra_theta.betastats import (_equipoint_band, _equipoint_rows, _ibeta_inv_row, _median_bounds,
                                     _residuals, _triangle)
from spectra_theta.cli import _bounds_arguments
from spectra_theta.errors import DEFAULT_SEED


def worst(sweep, check, where, roots, x, residual, below) -> str:
    """The CSV row of the lane with the least slack: x - root where the check
    is root <= x (``below``), else root - x."""
    slack = x - roots if below else roots - x
    i = int(np.argmin(slack))
    return f"{sweep},{check},{slack[i]:.3e},{residual[i]:.3e},{where[i][0]!r},{where[i][1]!r}"


def simmons_rows(d_max: int) -> list[str]:
    splits = [(s, d - s) for d in range(2, d_max + 1) for s in range((d + 1) // 2, d)]
    s, t = np.array(splits, dtype=float).T / 2.0
    e = _equipoint_rows(s, t)
    lower, upper = _equipoint_band(s, t)
    _, (at_upper, at_lower) = _residuals([], [(s, t, upper + 1e-12), (s, t, lower - 1e-12)])
    return [worst("simmons", "simmons_upper", splits, e, upper + 1e-12, at_upper, True),
            worst("simmons", "equipoint_lower", splits, e, lower - 1e-12, at_lower, False)]


def bounds_rows(seed: int, d_max: int, grid_step: float) -> list[str]:
    shapes, lower_s_max, conjecture_s_max, step = _bounds_arguments(seed, d_max, grid_step)
    s, t = np.array(shapes).T
    mean, upper = np.array([_median_bounds(a, b) for a, b in shapes]).T
    m, m_up, e = _ibeta_inv_row(0.5, s, t), _ibeta_inv_row(0.5, s + 1.0, t + 1.0), _equipoint_rows(s, t)
    lows, highs = (np.array(_triangle(first, s_max, step))
                   for first, s_max in ((1.0, lower_s_max), (0.5, conjecture_s_max)))
    low_bound, high_bound = _equipoint_band(*lows.T)[0], _equipoint_band(*highs.T)[1]
    (at_mean, at_upper, at_e, at_e_up), (at_low, at_high) = _residuals(
        [(s, t, mean - 1e-12), (s, t, upper + 1e-12), (s, t, e - 1e-12), (s + 1.0, t + 1.0, e + 1e-12)],
        [(*lows.T, low_bound - 1e-12), (*highs.T, high_bound + 1e-12)])
    strict = np.flatnonzero(t < s)  # m_up <= e is checked where t < s
    return [worst("bounds", "median_bounds_lower", shapes, m, mean - 1e-12, at_mean, False),
            worst("bounds", "median_bounds_upper", shapes, m, upper + 1e-12, at_upper, True),
            worst("bounds", "e_le_m", shapes, m, e - 1e-12, at_e, False),
            worst("bounds", "m_up_le_e", [shapes[i] for i in strict], m_up[strict], (e + 1e-12)[strict],
                  at_e_up[strict], True),
            worst("bounds", "equipoint_lower", lows.tolist(), _equipoint_rows(*lows.T),
                  low_bound - 1e-12, at_low, False),
            worst("bounds", "simmons_conjecture", highs.tolist(), _equipoint_rows(*highs.T),
                  high_bound + 1e-12, at_high, True)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--d-max", type=int, default=400, help="verify simmons --d-max")
    parser.add_argument("--seed", type=lambda v: int(v, 0), default=DEFAULT_SEED, help="verify bounds --seed")
    parser.add_argument("--bounds-d-max", type=int, default=99, help="verify bounds --d-max")
    parser.add_argument("--grid-step", type=float, default=0.5, help="verify bounds --grid-step")
    args = parser.parse_args()
    print("sweep,check,slack,residual,s,t")
    for row in simmons_rows(args.d_max) + bounds_rows(args.seed, args.bounds_d_max, args.grid_step):
        print(row)


if __name__ == "__main__":
    main()
