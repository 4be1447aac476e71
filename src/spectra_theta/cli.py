"""Command line front end: table reproduction and verification sweeps.

Commands
--------
* ``theta-table``      one row per d with theta(d) and the odd-d bounds
* ``median-table``     the six-row median bound comparison table
* ``equipoint-table``  equipoints of the integer shapes (s, 10 - s)
* ``verify SWEEP``     invariant sweeps; exits nonzero on any violation

``theta-table`` and ``verify bounds`` (odd d <= min(--d-max, 199), each
within its odd-d bounds) solve all their theta(d) in one ``thetas`` call.

Each command, and each ``verify`` sweep (simmons, monotone, bounds, oracle,
dilation), is its own subcommand that declares only the flags it reads,
with their defaults, so any other flag is a usage error.  Each sweep's
checks run in its layer (``betastats``, ``sphere_oracle.oracle_sweep``,
``dilation.dilation_sweep``), which refuses a flag value that leaves it
nothing to check; this module parses, calls and prints.  ``verify bounds``
is the exception: this module draws its 2,000 seeded shapes, caps --d-max
at 100 and 30 for its two betastats grids and at 199 for the theta scan,
and runs that scan.

CSV output prints 6 significant digits (matching the published tables);
JSON carries full double precision (17 significant digits).  Identical
(command, flags, seed) always produce byte-identical output.  Exit codes:
0 success, 2 invariant violation, 3 domain/resource error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import betastats, dilation, sphere_oracle
from .betastats import BetaShape
from .errors import DEFAULT_SEED, DomainError, NumericError, ResourceError, _require_int, _uniforms
from .theta import thetas

MEDIAN_TABLE_SHAPES = [(2.5, 1.0), (3.0, 1.0), (3.0, 2.0), (4.0, 2.0), (10.0, 3.0), (10.0, 7.0)]


# ---------------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------------


def _fmt_csv_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _fmt_json_value(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _emit(rows: list[dict], args: argparse.Namespace) -> None:
    if args.fmt == "csv":
        header = list(rows[0].keys())
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt_csv_value(row.get(k)) for k in header))
        text = "\n".join(lines) + "\n"
    else:
        body = []
        for row in rows:
            fields = ", ".join(f'"{k}": {_fmt_json_value(v)}' for k, v in row.items())
            body.append("  {" + fields + "}")
        text = "[\n" + ",\n".join(body) + "\n]\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write --out {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# table commands
# ---------------------------------------------------------------------------


def cmd_theta_table(args: argparse.Namespace) -> int:
    rows = []
    for report in thetas(range(1, _require_int("--d-max", args.d_max, 1) + 1)):
        t_minus, t_plus, t_pp = report.bounds_odd or (None, None, None)
        rows.append(
            {
                "d": report.d,
                "theta_minus": t_minus,
                "theta": report.theta,
                "theta_plus": t_plus,
                "theta_plusplus": t_pp,
            }
        )
    _emit(rows, args)
    return 0


def cmd_median_table(args: argparse.Namespace) -> int:
    rows = []
    shapes = [BetaShape(s, t) for s, t in MEDIAN_TABLE_SHAPES]
    for (s, t), shape, m in zip(MEDIAN_TABLE_SHAPES, shapes, betastats.medians(shapes)):
        mu, upper = betastats.median_bounds(shape)
        rows.append(
            {
                "s": s,
                "t": t,
                "mean": mu,
                "median": m,
                "upper_half": mu + (s - t) / (2.0 * (s + t) ** 2),
                "upper": upper,
                "upper_old": betastats.median_old_upper_bound(shape),
            }
        )
    _emit(rows, args)
    return 0


def cmd_equipoint_table(args: argparse.Namespace) -> int:
    shapes = [BetaShape(float(s), float(10 - s)) for s in range(1, 11)]
    rows = [{"s": s, "equipoint": e} for s, e in zip(range(1, 11), betastats.equipoints(shapes))]
    _emit(rows, args)
    return 0


# ---------------------------------------------------------------------------
# verification sweeps
# ---------------------------------------------------------------------------


def _report(name: str, violations: list[dict], worst: tuple | None = None, measure: str = "") -> int:
    """Print a sweep's outcome, and its ``worst`` (value, bound, where) if it
    has no violation, the value as ``measure`` formats it; 2 on a violation."""
    if violations:
        print(f"verify {name}: {len(violations)} violation(s)", file=sys.stderr)
        for v in violations:
            detail = " ".join(f"{k}={_fmt_csv_value(val)}" for k, val in v.items())
            print(f"  VIOLATION {detail}", file=sys.stderr)
        return 2
    print(f"verify {name}: OK (0 violations)")
    if worst is not None:
        value, bound, where = worst
        print(f"verify {name}: worst {measure.format(value)} of bound {bound:g} ({where})")
    return 0


def _verify_simmons(args: argparse.Namespace) -> int:
    return _report("simmons", betastats.simmons_sweep(args.d_max))


def _verify_monotone(args: argparse.Namespace) -> int:
    violations = betastats.phi_hat_monotone_sweep(args.d_max, args.grid_step)
    violations += betastats.phi_monotone_sweep(args.d_max)
    return _report("monotone", violations)


def _bounds_arguments(seed: int, d_max: int, grid_step: float) -> tuple[list, float, float, float]:
    """The arguments that ``verify bounds`` passes to ``betastats.bounds_sweeps``."""
    u = _uniforms(seed, 4000).reshape(2000, 2)  # rows (t, s), as drawn
    t = 1.0 + 19.0 * u[:, 0]
    s = t + 19.0 * u[:, 1]
    shapes = [(a, b) for a, b in zip(s.tolist(), t.tolist()) if a + b >= 3.0]
    return shapes, min(100.0, d_max), min(30.0, d_max), grid_step


def _verify_bounds(args: argparse.Namespace) -> int:
    violations, findings = betastats.bounds_sweeps(*_bounds_arguments(args.seed, args.d_max, args.grid_step))
    # conjectured real-parameter upper bound: reported, never asserted
    for finding in findings:
        print(f"  NOTE (conjecture, not asserted): {finding}")
    thetas(range(3, min(args.d_max, 199) + 1, 2))  # NumericError if one escapes its odd-d bounds
    return _report("bounds", violations)


def _verify_oracle(args: argparse.Namespace) -> int:
    return _report("oracle", *sphere_oracle.oracle_sweep(args.samples, args.seed),
                   "deviation {:.3g} standard errors")


def _verify_dilation(args: argparse.Namespace) -> int:
    return _report("dilation", *dilation.dilation_sweep(args.samples, args.seed),
                   "instance residual {:.3g}")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise DomainError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built on the first call: every command, and every verify
    sweep, declares the flags it reads with their defaults and the function
    that runs it (``run``)."""
    parser = _Parser(prog="spectra-theta", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p, run):
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None)
        p.set_defaults(run=run)

    theta_table = sub.add_parser("theta-table")
    theta_table.add_argument("--d-max", type=int, default=20)
    add_output(theta_table, cmd_theta_table)
    add_output(sub.add_parser("median-table"), cmd_median_table)
    add_output(sub.add_parser("equipoint-table"), cmd_equipoint_table)

    def count(flag, default):
        return {flag: {"type": int, "default": default}}

    seed = {"--seed": {"type": lambda v: int(v, 0), "default": DEFAULT_SEED}}
    grid_step = {"--grid-step": {"type": float, "default": 0.5}}
    sweeps = sub.add_parser("verify").add_subparsers(dest="sweep", required=True)
    for name, run, flags in (
        ("simmons", _verify_simmons, count("--d-max", 400)),
        ("monotone", _verify_monotone, count("--d-max", 100) | grid_step),
        ("bounds", _verify_bounds, count("--d-max", 99) | seed | grid_step),
        ("oracle", _verify_oracle, seed | count("--samples", sphere_oracle.DEFAULT_SAMPLES)),
        ("dilation", _verify_dilation, seed | count("--samples", 1000)),
    ):
        sweep = sweeps.add_parser(name)
        for flag, spec in flags.items():
            sweep.add_argument(flag, **spec)
        sweep.set_defaults(run=run)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except (DomainError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
