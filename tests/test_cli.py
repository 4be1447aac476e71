import ast
import hashlib
import importlib
import inspect
import json
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest

from spectra_theta.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(args, tmp_path, name="out.txt"):
    out = tmp_path / name
    rc = main(args + ["--out", str(out)])
    return rc, out.read_bytes()


def test_theta_table_matches_golden(tmp_path):
    rc, data = run_cli(["theta-table", "--d-max", "8"], tmp_path)
    assert rc == 0
    assert data == (GOLDEN / "theta_table_d8.csv").read_bytes()


def test_median_table_matches_golden(tmp_path):
    rc, data = run_cli(["median-table"], tmp_path)
    assert rc == 0
    assert data == (GOLDEN / "median_table.csv").read_bytes()


def test_equipoint_table_matches_golden(tmp_path):
    rc, data = run_cli(["equipoint-table"], tmp_path)
    assert rc == 0
    assert data == (GOLDEN / "equipoint_table.csv").read_bytes()


def test_repeat_runs_byte_identical(tmp_path):
    _, first = run_cli(["theta-table", "--d-max", "5"], tmp_path, "a.csv")
    _, second = run_cli(["theta-table", "--d-max", "5"], tmp_path, "b.csv")
    assert first == second


def test_json_round_trips_full_precision(tmp_path):
    from spectra_theta.theta import theta

    rc, data = run_cli(["theta-table", "--d-max", "4", "--format", "json"], tmp_path)
    assert rc == 0
    rows = json.loads(data)
    assert [row["d"] for row in rows] == [1, 2, 3, 4]
    for row in rows:
        assert row["theta"] == theta(row["d"]).theta  # 17 digits round-trip exactly
    assert rows[0]["theta_minus"] is None
    assert rows[2]["theta_minus"] == theta(3).bounds_odd[0]


@pytest.mark.parametrize("args, digest", [
    (["equipoint-table", "--format", "json"],
     "dbe72629a04d3e53399d346609f3fa2096ba06ae1f28fc1dc20171ed95d41e49"),
    (["median-table", "--format", "json"],
     "865a5e85ae93467304cede17dacb536f22a85cd38a0f342fc7f646a6e9d37875"),
    (["theta-table", "--d-max", "60", "--format", "json"],
     "21c0414a9e93a2e4aee16286873ddaec586cd15af702e15ab682b750fdf8b03a"),
])
def test_json_tables_keep_their_bits(capsys, args, digest):
    # The CSV goldens pin 6 digits; the JSON tables carry all 17, so their
    # stdout SHA-256 pins every bit of every value.  Re-recorded when the row
    # kernel's logs and exps became numpy's: 3 equipoints, 1 median, 6 theta
    # and 4 theta_plus moved by 1-22 ulps, 4 toward 40-digit mpmath and 10
    # away, by at most 3.9e-15 relative (theta(31)); CHANGES.md lists each.
    assert main(args) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_csv_layout_blank_bounds_for_even_d(tmp_path):
    rc, data = run_cli(["theta-table", "--d-max", "4"], tmp_path)
    lines = data.decode().splitlines()
    assert lines[0] == "d,theta_minus,theta,theta_plus,theta_plusplus"
    assert lines[1] == "1,,1,,"
    assert lines[2].startswith("2,,1.5708,")
    assert lines[4] == "4,,2,,"


def test_theta_table_paper_digits(tmp_path):
    rc, data = run_cli(["theta-table", "--d-max", "4"], tmp_path)
    text = data.decode()
    assert "1.5708" in text and "1.73482" in text and "4,,2,," in text


def test_equipoint_table_paper_digits(tmp_path):
    rc, data = run_cli(["equipoint-table"], tmp_path)
    rows = data.decode().splitlines()[1:]
    values = [row.split(",")[1] for row in rows]
    assert values == [
        "0.111223", "0.208955", "0.306089", "0.403069", "0.5",
        "0.596931", "0.693911", "0.791045", "0.888777", "1",
    ]


def test_median_table_paper_digits(tmp_path):
    rc, data = run_cli(["median-table"], tmp_path)
    text = data.decode()
    for digits in ("0.757858", "0.793701", "0.614272", "0.68619", "0.783314", "0.591773"):
        assert digits in text


def test_verify_exit_codes():
    assert main(["verify", "simmons", "--d-max", "30"]) == 0
    assert main(["verify", "monotone", "--d-max", "10"]) == 0
    # the least d_max whose Phi sweep has a pair to compare
    assert main(["verify", "monotone", "--d-max", "3"]) == 0


def test_verify_dilation_is_repeatable_and_reports_its_worst_residual(capsys):
    outputs = []
    for _ in range(2):
        assert main(["verify", "dilation", "--seed", "7"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    ok, worst = outputs[0].splitlines()
    assert ok == "verify dilation: OK (0 violations)"
    assert worst.startswith("verify dilation: worst instance residual ")
    assert worst.endswith(")") and ", instance " in worst
    # recorded before the spin-ball check and the defect shared one spectrum
    assert hashlib.sha256(outputs[0].encode()).hexdigest() == (
        "eda966b2309fdfc8f07e1f8057312185b476bb0ae5ee7b6340ecd935fcc8acb2")


def test_verify_oracle_is_repeatable_and_reports_its_worst_deviation(capsys):
    outputs = []
    for _ in range(2):
        assert main(["verify", "oracle", "--samples", "20000"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    ok, worst = outputs[0].splitlines()
    assert ok == "verify oracle: OK (0 violations)"
    assert worst.startswith("verify oracle: worst deviation ")
    assert " standard errors of bound " in worst and worst.endswith(")")
    assert main(["verify", "oracle", "--samples", "0"]) == 3
    capsys.readouterr()


def test_usage_errors_exit_3(capsys):
    assert main(["no-such-command"]) == 3
    assert main(["verify", "wrong-sweep"]) == 3
    assert main(["verify", "monotone", "--grid-step", "-1"]) == 3
    # a step that is not finite would check nothing (monotone) or crash (bounds)
    for step in ("nan", "inf", "-inf"):
        assert main(["verify", "monotone", "--grid-step", step]) == 3
        assert main(["verify", "bounds", "--grid-step", step]) == 3
    assert main(["theta-table", "--tol", "1e-9"]) == 3
    # a sweep or table with no work to do is refused, not passed
    assert main(["verify", "simmons", "--d-max", "-5"]) == 3
    assert main(["verify", "simmons", "--d-max", "1"]) == 3
    assert main(["verify", "monotone", "--d-max", "2"]) == 3
    assert main(["verify", "dilation", "--samples", "-1"]) == 3
    assert main(["theta-table", "--d-max", "-3"]) == 3
    # each command accepts only the flags it reads
    assert main(["verify", "simmons", "--out", "f"]) == 3
    assert main(["verify", "simmons", "--format", "json"]) == 3
    assert main(["median-table", "--seed", "1"]) == 3
    assert main(["theta-table", "--samples", "5"]) == 3
    assert main(["equipoint-table", "--grid-step", "1"]) == 3
    assert main(["median-table", "--d-max", "3"]) == 3
    capsys.readouterr()


def test_theta_table_past_the_theta_cap_exits_3_and_prints_nothing(capsys):
    assert main(["theta-table", "--d-max", "100001"]) == 3
    assert capsys.readouterr().out == ""


def test_stdout_default(capsys):
    assert main(["theta-table", "--d-max", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("d,theta_minus")
    assert out.endswith("\n")


def test_verify_bounds_solves_each_median_once(monkeypatch, capsys):
    # every drawn shape has 1 <= t < s, and no check fails, so no median is
    # solved: one residual pass at the sandwich's bounds and the triangles'
    # (t <= s <= 20 on the half-integer grid from 1 and from 0.5), one
    # equipoint row over the drawn shapes, and one residual pass at each
    # equipoint, for the medians at (s, t) and at (s + 1, t + 1)
    betastats = importlib.import_module("spectra_theta.betastats")
    inverse, equipoint, passes, drawn = [], [], [], []
    inv_row, equipoint_rows, residuals, sweeps = (
        betastats._ibeta_inv_row, betastats._equipoint_rows, betastats._residuals, betastats.bounds_sweeps)

    def counted_inverse(y, a, b):
        inverse.append(len(a))
        return inv_row(y, a, b)

    def counted_equipoints(s, t):
        equipoint.append(len(s))
        return equipoint_rows(s, t)

    def counted_residuals(medians, equipoints):
        passes.append(([len(x) for _, _, x in medians], [len(x) for _, _, x in equipoints]))
        return residuals(medians, equipoints)

    def recorded(shapes, *args):
        drawn.append(len(shapes))
        return sweeps(shapes, *args)

    monkeypatch.setattr(betastats, "_ibeta_inv_row", counted_inverse)
    monkeypatch.setattr(betastats, "_equipoint_rows", counted_equipoints)
    monkeypatch.setattr(betastats, "_residuals", counted_residuals)
    monkeypatch.setattr(betastats, "bounds_sweeps", recorded)
    assert main(["verify", "bounds", "--d-max", "20"]) == 0
    assert capsys.readouterr().out == "verify bounds: OK (0 violations)\n"
    n = drawn[0]
    assert inverse == [] and 1995 <= n <= 2000
    assert equipoint == [n]
    assert passes == [([n, n], [780, 820]), ([n, n], [])]


def test_an_unwritable_out_path_exits_3(tmp_path, capsys):
    for path in (tmp_path / "missing" / "table.csv", tmp_path):
        assert main(["theta-table", "--d-max", "2", "--out", str(path)]) == 3
        assert capsys.readouterr().err.startswith(f"error: cannot write --out {path}: ")


def test_the_cli_keeps_no_seed_of_its_own():
    cli = importlib.import_module("spectra_theta.cli")
    assert cli.DEFAULT_SEED is importlib.import_module("spectra_theta.sphere_oracle").DEFAULT_SEED
    assert "0xC0FFEE" not in inspect.getsource(cli)


def test_verify_dilation_takes_each_commutator_from_the_dilation_check(monkeypatch, capsys):
    # a commutator residual just under its bound, as the check reports it,
    # must become the worst residual that the command prints
    dilation = importlib.import_module("spectra_theta.dilation")
    check = dilation._commutators
    monkeypatch.setattr(dilation, "_commutators", lambda *stack: check(*stack) + 9e-10)
    assert main(["verify", "dilation", "--samples", "20"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith(
        "verify dilation: worst instance residual 9e-10 of bound 1e-09 (commutator, instance ")


def _push_lane_0(monkeypatch, push):
    # T_1 of lane 0 of each size's spin-ball dilations pushed by ``push`` at
    # the two corner entries, which lie outside the compressed block; returns
    # the largest commutator entry that the push gives a lane 0
    dilation = importlib.import_module("spectra_theta.dilation")
    stack, pushed = dilation._spin2_stack, []

    def pushed_stack(xs):
        T, v, scale = stack(xs)
        T[0, 0, 0, -1] += push
        T[0, 0, -1, 0] += push
        t1, t2 = T[0]
        pushed.append(float(np.abs(t1 @ t2 - t2 @ t1).max()))
        return T, v, scale

    monkeypatch.setattr(dilation, "_spin2_stack", pushed_stack)
    return pushed


def test_verify_dilation_holds_each_commutator_to_its_bound(monkeypatch, capsys):
    # a commutator past the 1e-10 of DilationResult but within the sweep's
    # 1e-9 passes; one past 1e-9 is a spin2_dilation violation, not an error
    pushed = _push_lane_0(monkeypatch, 2e-10)
    assert main(["verify", "dilation", "--samples", "20"]) == 0
    assert max(pushed) > 1e-10 and max(pushed) <= 1e-9
    assert capsys.readouterr().out.startswith("verify dilation: OK (0 violations)\n")
    pushed = _push_lane_0(monkeypatch, 1e-8)
    assert main(["verify", "dilation", "--samples", "20"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert min(pushed) > 1e-9 and err[0] == f"verify dilation: {len(pushed)} violation(s)"
    assert {line.split()[1] for line in err[1:]} == {"check=spin2_dilation"}


# each verify sweep with a cheap value of every flag it reads
READ_FLAGS = {
    "simmons": ["--d-max", "6"],
    "monotone": ["--d-max", "4", "--grid-step", "0.25"],
    "bounds": ["--d-max", "3", "--seed", "5", "--grid-step", "0.5"],
    "oracle": ["--seed", "5", "--samples", "2000"],
    "dilation": ["--seed", "5", "--samples", "20"],
}


@pytest.mark.parametrize("sweep", sorted(READ_FLAGS))
def test_each_sweep_accepts_the_flags_it_reads(sweep, capsys):
    assert main(["verify", sweep, *READ_FLAGS[sweep]]) == 0
    assert capsys.readouterr().out.startswith(f"verify {sweep}: OK (0 violations)\n")


@pytest.mark.parametrize("sweep, flag", [
    ("simmons", ["--seed", "5"]),
    ("simmons", ["--samples", "9"]),
    ("simmons", ["--grid-step", "0.1"]),
    ("monotone", ["--seed", "5"]),
    ("monotone", ["--samples", "9"]),
    ("bounds", ["--samples", "9"]),
    ("oracle", ["--d-max", "6"]),
    ("oracle", ["--grid-step", "0.5"]),
    ("dilation", ["--d-max", "6"]),
    ("dilation", ["--grid-step", "0.5"]),
])
def test_each_sweep_refuses_a_flag_it_does_not_read(sweep, flag, capsys):
    assert main(["verify", sweep, *READ_FLAGS[sweep], *flag]) == 3
    assert capsys.readouterr().err == f"error: unrecognized arguments: {' '.join(flag)}\n"


def test_the_parser_is_built_once():
    cli = importlib.import_module("spectra_theta.cli")
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("sweep, digest", [
    ("simmons", "5b9401038baa66be73894cca7c5d14113d7378693addf61476ffb1fda2502bae"),
    ("monotone", "f3706841afeb9d45790639db768b8dca12ae33f3839eee9068c263edda90a3b9"),
    ("bounds", "3a4a2808a034d654f54bc5310f798db1d573467a54be9417506d6fd983e42e11"),
    ("oracle", "0c089137e10b52753bfaf78a894742bbff113110ddd8eaaf1aefd832f793631f"),
])
def test_verify_keeps_its_stdout_at_the_default_flags(sweep, digest, capsys):
    # recorded before the real arguments of the package shared one check
    assert main(["verify", sweep]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_verify_dilation_checks_every_instance_it_is_asked_for(monkeypatch, capsys):
    cli = importlib.import_module("spectra_theta.cli")
    dilation = importlib.import_module("spectra_theta.dilation")
    stack, lanes = dilation._spin2_stack, []
    monkeypatch.setattr(dilation, "_spin2_stack", lambda xs: lanes.append(len(xs)) or stack(xs))
    assert main(["verify", "dilation", "--samples", "1200"]) == 0
    assert sum(lanes) == 1200
    capsys.readouterr()
    sphere_oracle = importlib.import_module("spectra_theta.sphere_oracle")
    defaults = {sweep: cli._build_parser().parse_args(["verify", sweep]).samples
                for sweep in ("oracle", "dilation")}
    assert defaults == {"oracle": sphere_oracle.DEFAULT_SAMPLES, "dilation": 1000}


@pytest.mark.parametrize("args", [
    ["verify", "monotone", "--d-max", "1" + "0" * 400],
    ["verify", "bounds", "--seed", "1" + "0" * 400],
    ["verify", "simmons", "--d-max", "-" + "9" * 300],
])
def test_a_refusal_prints_a_short_value(args, capsys):
    assert main(args) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and len(line) <= 120


def test_verify_dilation_holds_each_residual_to_its_own_bound(monkeypatch, capsys):
    # 5e-10 more on every reconstruction residual is past the blockdiag
    # bound (1e-12) and within the spin-ball one (1e-9)
    dilation = importlib.import_module("spectra_theta.dilation")
    residuals = dilation._reconstruction_residuals
    monkeypatch.setattr(dilation, "_reconstruction_residuals",
                        lambda *stack: residuals(*stack) + 5e-10)
    assert main(["verify", "dilation", "--samples", "20"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "verify dilation: 20 violation(s)"
    assert [line.split()[1] for line in err[1:]] == ["check=blockdiag"] * 20


def test_verify_dilation_keeps_its_stdout_at_the_default_flags(capsys):
    # recorded before each instance residual was held to its own bound
    assert main(["verify", "dilation"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "6439216cc98bf8b819aec7e975acdbcf148224c1bc57aa715b5ee8f73defe9bf")


def test_verify_oracle_needs_two_samples_and_reports_each_violation(capsys):
    # one sample has no standard error, so every check would demand exact equality
    assert main(["verify", "oracle", "--samples", "1"]) == 3
    assert capsys.readouterr().err == "error: --samples must be an integer of at least 2, got 1\n"
    # two samples measure a spread, and three checks fall outside their bounds
    assert main(["verify", "oracle", "--samples", "2"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "verify oracle: 3 violation(s)"
    assert [line.split(" closed=")[0].split(" max_excess=")[0] for line in err[1:]] == [
        "  VIOLATION check=kappa_mc s=2 t=1", "  VIOLATION check=kappa_mc s=3 t=2",
        "  VIOLATION check=e_j_mc"]


def test_a_numeric_error_exits_4(monkeypatch, capsys):
    module = importlib.import_module("spectra_theta.theta")
    closed_form = module.theta_even_closed_form
    monkeypatch.setattr(module, "theta_even_closed_form", lambda d: closed_form(d) + 1e-6)
    assert main(["theta-table", "--d-max", "4"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numeric error: even-d closed forms disagree for d=2:")


def test_verify_dilation_records_a_choi_matrix_that_is_not_psd(monkeypatch, capsys):
    monkeypatch.setattr(importlib.import_module("spectra_theta.dilation"), "min_eigenvalue",
                        lambda matrix: -1.0)
    assert main(["verify", "dilation", "--samples", "3"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "verify dilation: 5 violation(s)"
    assert err[1:] == [f"  VIOLATION check=choi_psd g={g} lambda_min=-1" for g in range(2, 7)]


def _package_imports(tree):
    # (module, name) for each name that a module imports from the package;
    # name is None where it imports the package module itself
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                yield (node.module, alias.name) if node.module else (alias.name, None)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("spectra_theta."):
                    yield alias.name.partition(".")[2], None


def test_the_layers_keep_their_private_names():
    # the command line reaches another module's private name only in
    # errors, and the matrix layers check their arguments without the
    # Monte Carlo module
    package = pathlib.Path(importlib.import_module("spectra_theta").__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    cli = list(_package_imports(trees["cli"]))
    modules = {module for module, name in cli if name is None} - {"errors"}
    private = [f"{module}.{name}" for module, name in cli
               if name and name.startswith("_") and module != "errors"]
    private += [f"{node.value.id}.{node.attr}" for node in ast.walk(trees["cli"])
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")]
    assert private == []
    for layer in ("pencil", "dilation"):
        assert "sphere_oracle" not in {module for module, _ in _package_imports(trees[layer])}, layer


def test_importing_the_package_leaves_numpy_random_unloaded():
    # numpy.random adds about 5.7 MiB of RSS; it loads with the first
    # errors._generator, not with the package (errors' annotations stay
    # unevaluated) nor with errors._uniforms, which verify bounds reads
    src = pathlib.Path(importlib.import_module("spectra_theta").__file__).parents[1]
    probe = "import sys, spectra_theta.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env={"PYTHONPATH": str(src)}).stdout
    assert out == "False\n"


def test_the_table_and_sweep_commands_leave_numpy_random_unloaded():
    # verify bounds draws its shapes with errors._uniforms, so none of these
    # six commands loads numpy.random in a fresh interpreter
    src = pathlib.Path(importlib.import_module("spectra_theta").__file__).parents[1]
    commands = [["verify", "simmons", "--d-max", "12"], ["verify", "monotone", "--d-max", "6"],
                ["verify", "bounds", "--d-max", "5", "--seed", "777"], ["theta-table", "--d-max", "5"],
                ["median-table"], ["equipoint-table", "--format", "json"]]
    probe = ("import contextlib, io, sys\nfrom spectra_theta.cli import main\n"
             f"with contextlib.redirect_stdout(io.StringIO()):\n    codes = [main(a) for a in {commands!r}]\n"
             "print(codes, 'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env={"PYTHONPATH": str(src)}).stdout
    assert out == "[0, 0, 0, 0, 0, 0] False\n"


def test_uniforms_equal_the_philox_generator_bit_for_bit():
    errors = importlib.import_module("spectra_theta.errors")
    draw = random.Random(36)
    keys = [0, 1, 0xC0FFEE, 2**64 - 1, 2**64, 2**127 + 12345, 2**128 - 1]
    keys += [draw.getrandbits(bits) | 1 << (bits - 1) for bits in draw.choices(range(8, 129), k=200)]
    for key in keys:
        expected = np.random.Generator(np.random.Philox(key=key)).random(4001)
        for count in (0, 1, 3, 4, 5, 4000, 4001):
            got = errors._uniforms(key, count)
            assert got.dtype == np.float64 and got.tobytes() == expected[:count].tobytes(), (key, count)
