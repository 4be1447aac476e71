"""Command line front end: table reproduction and verification sweeps.

Commands
--------
* ``theta-table``      one row per d with theta(d) and the odd-d bounds
* ``median-table``     the six-row median bound comparison table
* ``equipoint-table``  equipoints of the integer shapes (s, 10 - s)
* ``verify SWEEP``     invariant sweeps; exits nonzero on any violation

Each command, and each ``verify`` sweep (simmons, monotone, bounds, oracle,
dilation), is its own subcommand that declares only the flags it reads,
with their defaults, so any other flag is a usage error.  A ``--d-max`` or
``--grid-step`` that leaves a sweep nothing to check is refused by the
sweep itself, in ``betastats``.

CSV output prints 6 significant digits (matching the published tables);
JSON carries full double precision (17 significant digits).  Identical
(command, flags, seed) always produce byte-identical output.  Exit codes:
0 success, 2 invariant violation, 3 domain/resource error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import betastats, dilation, sphere_oracle
from .betastats import BetaShape
from .errors import DomainError, NumericError, ResourceError, _require_int
from .sphere_oracle import DEFAULT_SEED
from .theta import SignDiag, alpha_beta, kappa_star, theta

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
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, int):
        return str(v)
    return '"' + str(v).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _emit(rows: list[dict], args: argparse.Namespace) -> None:
    if not rows:
        text = ""
    elif args.fmt == "csv":
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
    for report in map(theta, range(1, _require_int("--d-max", args.d_max, 1) + 1)):
        if report.bounds_odd is None:
            t_minus = t_plus = t_pp = None
        else:
            t_minus, t_plus, t_pp = report.bounds_odd
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


def _report_violations(name: str, violations: list[dict]) -> int:
    if not violations:
        print(f"verify {name}: OK (0 violations)")
        return 0
    print(f"verify {name}: {len(violations)} violation(s)", file=sys.stderr)
    for v in violations:
        detail = " ".join(f"{k}={_fmt_csv_value(val)}" for k, val in v.items())
        print(f"  VIOLATION {detail}", file=sys.stderr)
    return 2


def _verify_simmons(args: argparse.Namespace) -> int:
    return _report_violations("simmons", betastats.simmons_sweep(args.d_max))


def _verify_monotone(args: argparse.Namespace) -> int:
    violations = betastats.phi_hat_monotone_sweep(args.d_max, args.grid_step)
    violations += betastats.phi_monotone_sweep(args.d_max)
    return _report_violations("monotone", violations)


def _verify_bounds(args: argparse.Namespace) -> int:
    rng = sphere_oracle._generator(args.seed)
    shapes = []
    for _ in range(2000):
        t = 1.0 + 19.0 * rng.random()
        s = t + 19.0 * rng.random()
        if s + t >= 3.0:
            shapes.append((s, t))
    violations, findings = betastats.bounds_sweeps(
        shapes, min(100.0, args.d_max), min(30.0, args.d_max), args.grid_step
    )
    # conjectured real-parameter upper bound: reported, never asserted
    for finding in findings:
        print(f"  NOTE (conjecture, not asserted): {finding}")
    for d in range(3, min(args.d_max, 199) + 1, 2):
        theta(d)  # raises NumericError when theta(d) escapes its odd-d bounds
    return _report_violations("bounds", violations)


def _verify_oracle(args: argparse.Namespace) -> int:
    samples = _require_int("--samples", args.samples, 1)
    shapes = [(1, 1), (2, 1), (2, 2), (3, 2), (4, 4)]
    stars = {st: kappa_star(*st) for st in shapes}
    J = {st: SignDiag(*st, *stars[st][1:]) for st in shapes}
    requests = [sphere_oracle.AbsQuadratic(np.diag(J[st].diagonal())) for st in shapes]
    requests += [sphere_oracle.SignMoment(J[2, 1], 1), sphere_oracle.SignMoment(J[2, 1], 3),
                 sphere_oracle.SignOuter(J[2, 2])]
    *estimates, ej = sphere_oracle.joint_estimates(requests, samples, args.seed)
    alpha, beta = alpha_beta(J[2, 1])
    checks = [({"check": "kappa_mc", "s": s, "t": t}, stars[s, t][0]) for s, t in shapes]
    checks += [({"check": "moment_mc", "coord": 1}, alpha),
               ({"check": "moment_mc", "coord": 3}, -beta)]
    violations, slack = [], []  # slack: (|mc - closed| / std_err, its bound, the check)
    for (check, closed), est in zip(checks, estimates):
        if not est.agrees_with(closed, 3.0):
            violations.append({**check, "closed": closed, "mc": est.value, "std_err": est.std_err})
        slack.append((abs(est.value - closed) / est.std_err if est.std_err else 0.0, 3.0, check))
    target = (stars[2, 2][0] / 4.0) * np.diag(SignDiag(2, 2, 1.0, 1.0).diagonal())
    err = np.abs(ej.value - target) - 4.0 * np.maximum(ej.std_err, 1e-15)
    if float(err.max()) > 0.0:
        violations.append({"check": "e_j_mc", "max_excess": float(err.max())})
    sigmas = np.abs(ej.value - target) / np.maximum(ej.std_err, 1e-15)
    i, j = np.unravel_index(sigmas.argmax(), sigmas.shape)
    slack.append((float(sigmas[i, j]), 4.0, {"check": "e_j_mc", "i": i + 1, "j": j + 1}))
    rc = _report_violations("oracle", violations)
    if rc == 0:
        # the check whose deviation came closest to its bound
        sigma, bound, check = max(slack, key=lambda entry: entry[0] / entry[1])
        where = ", ".join(str(v) if k == "check" else f"{k}={v}" for k, v in check.items())
        print(f"verify oracle: worst deviation {sigma:.3g} standard errors "
              f"of bound {bound:g} ({where})")
    return rc


def _verify_dilation(args: argparse.Namespace) -> int:
    rng = sphere_oracle._generator(args.seed)
    draws = []
    for _ in range(_require_int("--samples", args.samples, 1)):
        n = int(rng.integers(1, 5))
        draws.append((rng.standard_normal((n, n)), rng.standard_normal((n, n)), rng.random()))
    bounds = {"commutator": 1e-9, "circle": 1e-9, "reconstruction": 1e-9, "blockdiag": 1e-12}
    residuals = {name: np.empty(len(draws)) for name in bounds}
    for n in range(1, 5):  # one stacked dilation per size
        lanes = [k for k, draw in enumerate(draws) if len(draw[0]) == n]
        if not lanes:
            continue
        xs = _spin_ball_pairs([draws[k] for k in lanes])
        T, v, scale = dilation._spin2_stack(xs)
        residuals["commutator"][lanes] = dilation._check_dilations(T, v, scale)
        t1, t2 = T[:, 0], T[:, 1]
        residuals["circle"][lanes] = np.max(np.abs(t1 @ t1 + t2 @ t2 - np.eye(2 * n)), axis=(1, 2))
        residuals["reconstruction"][lanes] = dilation._reconstruction_residuals(T, v, scale, xs)
        stack = dilation._blockdiag_stack(xs)
        dilation._check_dilations(*stack)
        residuals["blockdiag"][lanes] = dilation._reconstruction_residuals(*stack, xs)
    comm, circle, recon, block = (values.tolist() for values in residuals.values())
    violations = []
    for k in range(len(draws)):
        if max(comm[k], circle[k], recon[k]) > 1e-9:
            violations.append(
                {"check": "spin2_dilation", "instance": k, "commutator": comm[k],
                 "circle": circle[k], "reconstruction": recon[k]}
            )
        if block[k] > 1e-12:
            violations.append({"check": "blockdiag", "instance": k, "residual": block[k]})
    for g in range(2, 7):
        norm = dilation.spin_tensor_norm(g)
        if abs(norm - g) > 1e-10:
            violations.append({"check": "spin_tensor_norm", "g": g, "norm": norm})
        lam_min = float(np.linalg.eigvalsh(dilation.oh_to_spin_choi(g))[0])
        if lam_min < -1e-10:
            violations.append({"check": "choi_psd", "g": g, "lambda_min": lam_min})
    rc = _report_violations("dilation", violations)
    if rc == 0:
        # the instance residual that came closest to its bound
        name = max(bounds, key=lambda check: residuals[check].max() / bounds[check])
        k = int(residuals[name].argmax())
        print(f"verify dilation: worst instance residual {residuals[name][k]:.3g} "
              f"of bound {bounds[name]:g} ({name}, instance {k})")
    return rc


def _spin_ball_pairs(draws: list) -> np.ndarray:
    """The drawn 2-tuples of one size n scaled into the spin ball (norm of
    the block matrix [[X1, X2], [X2, -X1]] drawn uniformly in [0, 1]), as an
    (m, 2, n, n) stack."""
    a, b = np.stack([draw[0] for draw in draws]), np.stack([draw[1] for draw in draws])
    x1 = 0.5 * (a + a.swapaxes(1, 2))
    x2 = 0.5 * (b + b.swapaxes(1, 2))
    norm = np.max(np.abs(np.linalg.eigvalsh(dilation._blocks(x1, x2, x2, -x1))), axis=1)
    scale = np.array([draw[2] for draw in draws]) / np.maximum(norm, 1e-12)
    return scale[:, None, None, None] * np.stack([x1, x2], axis=1)


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
