"""Smoke tests for the experiment scripts under scripts/: each runs as a
subprocess, the way a user starts it, with src/ on the path."""

import hashlib
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from spectra_theta import specfun, sphere_oracle
from spectra_theta.betastats import _equipoint_rows
from spectra_theta.sphere_oracle import sphere_abs_quadratic_integral
from spectra_theta.theta import SignDiag, kappa_star, theta, theta_odd_bounds

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args, returncode=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == returncode, done.stderr
    return done.stdout.splitlines()


def test_witness_refinement_runs():
    lines = run_script("witness_refinement.py", "--cells", "1", "4", "--samples-per-cell", "500")
    assert lines[0].startswith("theta(2) = ")
    assert lines[1] == "cells,lambda_max,ratio,seconds"
    assert [line.split(",")[0] for line in lines[2:]] == ["1", "4"]


def test_oracle_sweep_matches_per_split_estimates():
    samples, seed = 5000, 0xC0FFEE
    lines = run_script("oracle_sweep.py", "--d-max", "4", "--samples", str(samples))
    assert lines[0] == "s,t,kappa_closed,kappa_mc,std_err,z"
    expected = []
    for d in range(2, 5):
        for s in range((d + 1) // 2, d):
            t = d - s
            ks, a_opt, b_opt = kappa_star(s, t)
            J = SignDiag(s, t, a_opt, b_opt)
            est = sphere_abs_quadratic_integral(np.diag(J.diagonal()), n=samples, seed=seed)
            z = (est.value - ks) / est.std_err if est.std_err else 0.0
            expected.append(f"{s},{t},{ks:.8f},{est.value:.8f},{est.std_err:.2e},{z:+.2f}")
    assert lines[1:] == expected



def test_oracle_sweep_keeps_its_bytes():
    # a new batch size of the oracle moves its estimates' last bits, and
    # this pins the eight digits it prints
    lines = run_script("oracle_sweep.py", "--d-max", "6", "--samples", "200000")
    assert hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest() == (
        "f6f323b19ab0a683d75291c14df1007d7e745f1144cfd5daedb9e43491b5d26e")


def test_oracle_sweep_refuses_one_sample():
    # one sample has no standard error, so every split would read z = +0.00
    assert run_script("oracle_sweep.py", "--d-max", "3", "--samples", "1", returncode=2) == []

def test_the_scripts_keep_no_seed_of_their_own():
    # their default seed is sphere_oracle.DEFAULT_SEED, as the command line's is
    for name in ("oracle_sweep.py", "witness_refinement.py"):
        text = (ROOT / "scripts" / name).read_text()
        assert "0xc0ffee" not in text.lower() and "DEFAULT_SEED" in text, name


def test_witness_refinement_runs_the_score_block_witness():
    # the d >= 3 witness is its own path, and only this script runs it
    lines = run_script("witness_refinement.py", "--d", "3", "--cells", "1", "4",
                       "--samples-per-cell", "200")
    assert lines[0].startswith("theta(3) = ")
    assert [line.split(",")[0] for line in lines[2:]] == ["1", "4"]


def test_mpmath_roots_checks_sigma_and_theta_against_mpmath():
    lines = run_script("mpmath_roots.py", "--d-max", "12", "--lanes", "8", "--seed", "3")
    assert lines[0] == "kind,d,s,t,hex,error"
    rows = [line.split(",") for line in lines[1:-2]]
    sigma = [row for row in rows if row[0] == "sigma"]
    assert len(sigma) == 8 and all(int(d) == int(s) + int(t) <= 12 and int(s) > int(t) for _, d, s, t, _, _ in sigma)
    # every odd d of 3..12 at its proven split, and theta's hex is theta(d)'s
    assert [(int(d), int(s), int(t)) for kind, d, s, t, _, _ in rows if kind == "theta"] == [
        (d, (d + 1) // 2, (d - 1) // 2) for d in (3, 5, 7, 9, 11)
    ]
    assert all(float.fromhex(row[4]) == theta(int(row[1])).theta for row in rows if row[0] == "theta")
    assert max(abs(float(row[5])) for row in sigma) <= 8  # ulps
    assert max(abs(float(row[5])) for row in rows if row[0] == "theta") <= 1e-14
    assert lines[-2].startswith("sigma: 8 values, |error| median ")
    assert lines[-1].startswith("theta: 5 values, |error| median ")


def test_mpmath_roots_names_theta_errors_and_prints_the_odd_d_bounds():
    # theta(2015) raises NumericError: its row names it, and the bounds keep theirs
    lines = run_script("mpmath_roots.py", "--d", "2015", "--lanes", "0")
    assert lines[1:2] + lines[4:] == ["theta,2015,1008,1007,NumericError,", "sigma: no values", "theta: no values"]
    rows = [line.split(",") for line in lines[2:4]]
    assert [row[:5] for row in rows] == [[kind, "2015", "1008", "1007", bound.hex()] for kind, bound
                                         in zip(("theta_minus", "theta_plus"), theta_odd_bounds(2015))]
    assert -1e-10 < float(rows[0][5]) < 0.0 < float(rows[1][5]) < 1e-7


def test_mpmath_roots_checks_an_equipoint_row_against_mpmath():
    from mp_reference import equipoint_lanes

    lines = run_script("mpmath_roots.py", "--equipoints", "6", "--seed", "25")
    assert lines[0] == "kind,d,s,t,hex,error"
    rows = [line.split(",") for line in lines[1:-1]]
    # the lanes are the seeded row, and each hex is the lane's root in that row
    s, t = equipoint_lanes(6, 25)
    assert [(float(row[2]), float(row[3])) for row in rows] == list(zip(s.tolist(), t.tolist()))
    assert [row[4] for row in rows] == [value.hex() for value in _equipoint_rows(s, t).tolist()]
    assert all(row[0] == "equipoint" and float(row[1]) == float(row[2]) + float(row[3]) for row in rows)
    # equipoint's absolute accuracy on shapes up to 200, in ulps of each root
    for row in rows:
        value = float.fromhex(row[4])
        assert abs(float(row[5])) * math.ulp(value) <= 2e-14
    assert lines[-1].startswith("equipoint: 6 values, |error| median ")


def test_mpmath_roots_checks_a_kernel_row_against_mpmath():
    from mp_reference import kernel_lanes

    lines = run_script("mpmath_roots.py", "--kernel", "6", "--seed", "30")
    assert lines[0] == "kind,a,b,p,hex,error,density_hex,density_error"
    rows = [line.split(",") for line in lines[1:-2]]
    # the lanes are the seeded row: shapes log-uniform on [0.5, 200], p from Beta(a, b)
    a, b, p = kernel_lanes(6, 30)
    assert [tuple(map(float, row[1:4])) for row in rows] == list(zip(a.tolist(), b.tolist(), p.tolist()))
    # each hex is the lane's I_p and density in that row
    value, density = specfun._ibeta_row(a, b, p)
    assert [(row[4], row[6]) for row in rows] == list(zip(map(float.hex, value.tolist()), map(float.hex, density.tolist())))
    assert all(row[0] == "kernel" for row in rows)
    # the kernel's accuracy on this sample: I_p absolute, the density relative
    assert max(abs(float(row[5])) for row in rows) <= 1e-13
    assert max(abs(float(row[7])) for row in rows) <= 1e-12
    assert lines[-2].startswith("I_p: 6 values, |error| median ")
    assert lines[-1].startswith("density: 6 values, |error| median ")


@pytest.mark.parametrize("flags", [
    ["--kernel", "4", "--equipoints", "4"],
    ["--kernel", "4", "--lanes", "3"],
    ["--equipoints", "4", "--lanes", "3"],
    ["--equipoints", "4", "--d-max", "12"],
    ["--kernel", "4", "--d", "5"],
    ["--d", "5", "--d-max", "60"],
], ids=["kernel_equipoints", "kernel_lanes", "equipoints_lanes", "equipoints_d_max", "kernel_d", "d_d_max"])
def test_mpmath_roots_refuses_a_flag_that_its_mode_would_not_read(flags, monkeypatch, capsys):
    import mpmath_roots

    monkeypatch.setattr(sys, "argv", ["mpmath_roots.py", *flags])
    with pytest.raises(SystemExit) as usage:
        mpmath_roots.main()
    assert usage.value.code == 2 and capsys.readouterr().out == ""


def test_dispatch_tier1_sets_each_dispatch_in_its_childs_environment_only(monkeypatch, capsys):
    # the suite itself is not run: each child gets a recorded reply
    import dispatch_tier1

    monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", "AVX512F")  # the default run must not inherit it
    before = dict(os.environ)
    runs = []

    def reply(cmd, *, env, **kwargs):
        runs.append((cmd, env))
        if cmd[1] == "-c":
            return subprocess.CompletedProcess(cmd, 0, '{"exp": "X86_V3", "log": "X86_V3", "log1p": "baseline"}\n')
        if "NPY_DISABLE_CPU_FEATURES" not in env:
            return subprocess.CompletedProcess(cmd, 0, "...\n3 passed in 0.10s\n")
        return subprocess.CompletedProcess(cmd, 1, "FAILED tests/t.py::test_a - AssertionError\n"
                                                   "1 failed, 2 passed in 0.10s\n")

    monkeypatch.setattr(dispatch_tier1.subprocess, "run", reply)
    assert dispatch_tier1.main(["-k", "theta"]) == 1
    assert dict(os.environ) == before
    settings = [env.get("NPY_DISABLE_CPU_FEATURES") for _, env in runs]
    assert settings == [None, None, "X86_V4", "X86_V4", "X86_V3 X86_V4", "X86_V3 X86_V4"]
    assert [cmd[1:3] + cmd[-2:] for cmd, _ in runs[1::2]] == [["-m", "pytest", "-k", "theta"]] * 3
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["NPY_DISABLE_CPU_FEATURES=(unset): exp X86_V3, log X86_V3, log1p baseline",
                       "  3 passed, 0 failed, 0 errors, exit 0"]
    assert out[-3:] == ["NPY_DISABLE_CPU_FEATURES=X86_V3 X86_V4: exp X86_V3, log X86_V3, log1p baseline",
                        "  2 passed, 1 failed, 0 errors, exit 1", "  FAILED tests/t.py::test_a"]


def test_row_costs_prints_its_three_tables():
    # one timed call per figure: only the format is checked, never a time
    lines = run_script("row_costs.py", "--repeat", "1", "--number", "1", "--d", "20", "--lanes", "1", "4")
    assert lines[0] == f"_ROW_MIN_LANES = {specfun._ROW_MIN_LANES}"
    assert lines[1] == "table,d,lanes,row_us_per_lane,scalar_us_per_lane,ratio"
    assert lines[4] == "table,d,lanes,sort_us_per_lane,cold_memo_us_per_lane,warm_memo_us_per_lane"
    assert lines[7] == "table,call,us"
    rows = [line.split(",") for line in lines[2:4] + lines[5:7] + lines[8:]]
    assert [row[:3] for row in rows[:4]] == [["cf", "20", "1"], ["cf", "20", "4"], ["lnb", "20", "1"], ["lnb", "20", "4"]]
    assert [row[:2] for row in rows[4:]] == [["call", "ibeta_row_one_lane"], ["call", "newton_round"],
                                             ["call", "median_one_lane"]]
    assert all(math.isfinite(float(value)) for row in rows for value in row[2:])


def test_oracle_costs_prints_one_row_per_batch_and_sample_count():
    # one cold interpreter and one warm call per row: only the format is checked
    lines = run_script("oracle_costs.py", "--batches", "12", "13", "--samples", "2000", "3000", "--repeat", "1")
    assert lines[0] == f"_BATCH = {sphere_oracle._BATCH}"
    assert lines[1] == "batch_rows,samples,cold_ms,cold_rss_mib,warm_ms,peak_mib"
    rows = [line.split(",") for line in lines[2:]]
    assert [row[:2] for row in rows] == [["4096", "2000"], ["4096", "3000"], ["8192", "2000"], ["8192", "3000"]]
    assert all(math.isfinite(float(value)) and float(value) > 0.0 for row in rows for value in row[2:])


def test_sweep_margins_prints_the_least_slack_of_each_check():
    # only the format is checked: one row per check, each with a finite slack
    # and residual and the shape where they occurred
    lines = run_script("sweep_margins.py", "--d-max", "6", "--seed", "1", "--bounds-d-max", "3")
    assert lines[0] == "sweep,check,slack,residual,s,t"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[:2] for row in rows] == [
        ["simmons", "simmons_upper"], ["simmons", "equipoint_lower"],
        ["bounds", "median_bounds_lower"], ["bounds", "median_bounds_upper"], ["bounds", "e_le_m"],
        ["bounds", "m_up_le_e"], ["bounds", "equipoint_lower"], ["bounds", "simmons_conjecture"]]
    assert all(math.isfinite(float(value)) for row in rows for value in row[2:])


def test_src_lines_columns_sum_to_each_modules_line_count():
    # only the format is checked: one row per module of the package and a
    # total, and each row's four columns sum to its wc -l (newline count)
    lines = run_script("src_lines.py")
    assert lines[0] == "module,code,docstring,comment,blank,lines"
    rows = [line.split(",") for line in lines[1:]]
    modules = sorted((ROOT / "src" / "spectra_theta").glob("*.py"))
    assert [row[0] for row in rows] == [path.name for path in modules] + ["total"]
    counts = [[int(value) for value in row[1:]] for row in rows]
    wc = [path.read_bytes().count(b"\n") for path in modules]
    assert [sum(row[:4]) for row in counts] == [row[4] for row in counts] == wc + [sum(wc)]
    assert [sum(column) for column in zip(*counts[:-1])] == counts[-1]
