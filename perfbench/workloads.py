"""The benchmark's three workloads: their inputs and their checked ops.

``make_inputs`` runs in the benchmark's parent process and turns the
workload seed into plain data (it needs numpy, never ``spectra_theta``).
``build_ops`` runs in the child that is timed: it turns those inputs into a
list of ops, each of which calls the library or the command line the way a
user does and checks what comes back.  An op returns a ``Result``; it fails
when it raises, when a command exits nonzero, or when a check does not hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("theta_scan", "verify_sweeps", "matrix_cert")

THETA_DS = (20, 200, 2000, 2001)
THETA_20_PUBLISHED = 4.06349
THETA_20_TOL = 5e-5
CLOSED_FORM_TOL = 1e-8  # the library's documented scan-vs-closed-form tolerance

VERIFY_SIMMONS_DMAX = 60
VERIFY_MONOTONE_DMAX = 24
VERIFY_BOUNDS_DMAX = 20
GOLDEN_TABLES = (
    (("theta-table", "--d-max", "8"), "theta_table_d8.csv"),
    (("equipoint-table",), "equipoint_table.csv"),
    (("median-table",), "median_table.csv"),
)
# The published median table's shapes, kept here so the benchmark's reference
# values do not depend on the library under test.
MEDIAN_SHAPES = ((2.5, 1.0), (3.0, 1.0), (3.0, 2.0), (4.0, 2.0), (10.0, 3.0), (10.0, 7.0))

# Many pencils with fewer trials each: a pencil's cost grows with its random
# arity, and 64 of them keep the total nearly the same from seed to seed.
PENCILS = 64
PENCIL_TUPLE_SIZE = 4
PENCIL_TRIALS = 25
WITNESS = {"d": 2, "cells": 128, "samples_per_cell": 2000}
WITNESS_RATIO = 0.9
DILATION_INSTANCES = 1000
ORACLE_SAMPLES = 500_000


@dataclass
class Result:
    ok: bool
    detail: str = ""
    output: bytes = b""  # hashed: identical inputs must give identical bytes
    values: dict = field(default_factory=dict)  # floats compared to the references


# ---------------------------------------------------------------------------
# inputs (parent process)
# ---------------------------------------------------------------------------


def _random_pencils(seed: int) -> list[list[list[list[float]]]]:
    """Monic pencils whose spectrahedron contains the cube, drawn the way the
    acceptance test's criterion 9 draws them: size nu in 1..3, arity g in
    1..4, symmetric Gaussian coefficients scaled so that the largest vertex
    eigenvalue lands in [0.2, 1]."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    pencils = []
    while len(pencils) < PENCILS:
        nu = int(rng.integers(1, 4))
        g = int(rng.integers(1, 5))
        coeffs = []
        for _ in range(g):
            a = rng.standard_normal((nu, nu))
            coeffs.append(0.5 * (a + a.T))
        peak = 0.0
        for bits in range(1 << g):
            total = sum((1.0 if bits & (1 << j) else -1.0) * c for j, c in enumerate(coeffs))
            peak = max(peak, float(np.linalg.eigvalsh(total)[-1]))
        if peak <= 0.0:
            continue
        scale = (0.2 + 0.8 * rng.random()) / peak
        pencils.append([(scale * c).tolist() for c in coeffs])
    return pencils


def make_inputs(workload: str, seed: int) -> dict:
    """Plain-data inputs for one workload; the same seed gives the same inputs."""
    if workload == "theta_scan":
        return {"ds": list(THETA_DS)}
    if workload == "verify_sweeps":
        return {"bounds_seed": seed}
    if workload == "matrix_cert":
        return {"pencils": _random_pencils(seed), "trial_seed": seed, "witness_seed": seed,
                "dilation_seed": seed}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# ops (timed child process)
# ---------------------------------------------------------------------------


def _modules():
    """The library's modules, looked up at call time so that the traced run's
    wrappers (installed on module attributes) are the ones called."""
    return {name: sys.modules[f"spectra_theta.{name}"]
            for name in ("cli", "theta", "pencil")}


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = _modules()["cli"].main(argv)
    return rc, out.getvalue(), err.getvalue()


def _cli_bytes(rc: int, out: str, err: str) -> bytes:
    return f"rc={rc}\n".encode() + out.encode() + b"\0" + err.encode()


def _verify_op(which: str, *flags: str):
    def op() -> Result:
        rc, out, err = _cli(["verify", which, *flags])
        ok = rc == 0 and f"verify {which}: OK (0 violations)\n" in out
        return Result(ok, "" if ok else f"rc={rc} {err[-300:]!r}", _cli_bytes(rc, out, err))
    return op


def _theta_op(d: int):
    def op() -> Result:
        report = _modules()["theta"].theta(d)
        if d % 2 == 0:
            split = (d // 2, d // 2)
            gamma_form = math.exp(math.lgamma(0.5 + d / 4.0) - math.lgamma(1.0 + d / 4.0)) / math.sqrt(math.pi)
            ok = abs(report.kappa_star - gamma_form) <= CLOSED_FORM_TOL
            detail = f"1/theta {report.kappa_star!r} vs closed form {gamma_form!r}"
        else:
            split = ((d + 1) // 2, (d - 1) // 2)
            lower, upper, upper2 = report.bounds_odd
            ok = lower <= report.theta <= min(upper, upper2)
            detail = f"theta {report.theta!r} vs bounds {report.bounds_odd!r}"
        ok = ok and (report.minimizer_s, report.minimizer_t) == split
        if d == 20:
            ok = ok and abs(report.theta - THETA_20_PUBLISHED) <= THETA_20_TOL
        values = {f"inv_theta_{d}": report.kappa_star} if d % 2 == 0 else {}
        return Result(ok, "" if ok else f"d={d}: {detail}", repr(report).encode(), values)
    return op


def _golden_op(argv: tuple[str, ...], golden: bytes):
    def op() -> Result:
        rc, out, err = _cli(list(argv))
        ok = rc == 0 and out.encode() == golden
        return Result(ok, "" if ok else f"{argv} differs from its golden table", _cli_bytes(rc, out, err))
    return op


def _json_table_op(command: str, value_key: str, golden: bytes):
    """A table as JSON: full-precision values for the digit count, and each
    value printed at 6 significant digits must be the golden CSV's entry."""
    def op() -> Result:
        rc, out, err = _cli([command, "--format", "json"])
        rows = json.loads(out) if rc == 0 else []
        csv_rows = [line.split(",") for line in golden.decode().splitlines()]
        header, body = csv_rows[0], csv_rows[1:]
        ok = rc == 0 and len(rows) == len(body)
        for row, csv_row in zip(rows, body):
            printed = [("" if v is None else f"{v:.6g}" if isinstance(v, float) else str(v))
                       for v in (row.get(k) for k in header)]
            ok = ok and printed == csv_row
        values = {}
        for row in rows:
            s = row["s"]
            t = row.get("t", 10 - s)  # the equipoint table's shapes are (s, 10 - s)
            values[f"{value_key}_{s:g}_{t:g}"] = float(row[value_key])
        return Result(ok, "" if ok else f"{command} JSON disagrees with its golden table",
                      _cli_bytes(rc, out, err), values)
    return op


def _cube_op(coeffs: list, seed: int):
    def op() -> Result:
        pencil = _modules()["pencil"]
        B = pencil.MonicPencil(tuple(np.array(c) for c in coeffs))
        report = pencil.cube_relaxation_test(B, d=PENCIL_TUPLE_SIZE, trials=PENCIL_TRIALS, seed=seed)
        return Result(report.passed, "" if report.passed else f"{len(report.violations)} cube-relaxation violations",
                      repr(report).encode())
    return op


def _witness_op(seed: int):
    def op() -> Result:
        mods = _modules()
        pencil, witness, lam = mods["pencil"].sharpness_witness(
            WITNESS["d"], WITNESS["cells"], WITNESS["samples_per_cell"], seed=seed)
        report = mods["theta"].theta(WITNESS["d"])
        ok = lam >= WITNESS_RATIO * report.theta
        output = repr(lam).encode() + b"".join(a.tobytes() for a in pencil.coeffs + witness.mats)
        return Result(ok, "" if ok else f"witness {lam!r} < {WITNESS_RATIO} * theta(2) = {report.theta!r}",
                      output + repr(report).encode(), {"inv_theta_2": report.kappa_star})
    return op


def build_ops(workload: str, inputs: dict, golden_dir: str) -> list:
    """The workload's op list, in the order it runs."""
    if workload == "theta_scan":
        return [_theta_op(d) for d in inputs["ds"]]
    if workload == "verify_sweeps":
        golden = {}
        for _, name in GOLDEN_TABLES:
            with open(f"{golden_dir}/{name}", "rb") as fh:
                golden[name] = fh.read()
        return [
            _verify_op("simmons", "--d-max", str(VERIFY_SIMMONS_DMAX)),
            _verify_op("monotone", "--d-max", str(VERIFY_MONOTONE_DMAX)),
            _verify_op("bounds", "--d-max", str(VERIFY_BOUNDS_DMAX), "--seed", str(inputs["bounds_seed"])),
            *(_golden_op(argv, golden[name]) for argv, name in GOLDEN_TABLES),
            _json_table_op("equipoint-table", "equipoint", golden["equipoint_table.csv"]),
            _json_table_op("median-table", "median", golden["median_table.csv"]),
        ]
    if workload == "matrix_cert":
        seed = inputs["trial_seed"]
        return [
            *(_cube_op(c, seed + k) for k, c in enumerate(inputs["pencils"])),
            _witness_op(inputs["witness_seed"]),
            _verify_op("dilation", "--seed", str(inputs["dilation_seed"]),
                       "--samples", str(DILATION_INSTANCES)),
            # The oracle keeps the command's default Monte Carlo seed: it is a
            # 3-sigma test with a false-alarm rate of about 2% per seed, so a
            # seed taken from the workload seed would fail runs with no defect
            # in the library (see perfbench/README.md).
            _verify_op("oracle", "--samples", str(ORACLE_SAMPLES)),
        ]
    raise ValueError(f"unknown workload {workload!r}")
