import hashlib
import importlib
import inspect
import json
import pathlib

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
     "f2ee995fe4a8a1c3e155b1cf0bcbcff25e2b756ce9d156c10273d32c35abd807"),
    (["median-table", "--format", "json"],
     "e0a17bab7782d1a6f102460fb4ef151bf85d9b58cbf258e0f440a3111ca079ce"),
    (["theta-table", "--d-max", "60", "--format", "json"],
     "d4de097c683d4573658f37213b601c9569c7c7d82a941996fc84ca8015724da0"),
])
def test_json_tables_keep_their_bits(capsys, args, digest):
    # The CSV goldens pin 6 digits; the JSON tables carry all 17, so their
    # stdout SHA-256 (recorded before the row kernel returned its density)
    # pins every bit of every value.
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


def test_stdout_default(capsys):
    assert main(["theta-table", "--d-max", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("d,theta_minus")
    assert out.endswith("\n")


def test_verify_bounds_solves_each_median_once(monkeypatch, capsys):
    # every drawn shape has 1 <= t <= s, so the ordering chain reuses all
    # the sandwich's medians: one inverse row of the medians at (s, t) and
    # at (s + 1, t + 1), and one equipoint row
    betastats = importlib.import_module("spectra_theta.betastats")
    inverse, equipoint, drawn = [], [], []
    inv_row, equipoint_rows, sweeps = (
        betastats._ibeta_inv_row, betastats._equipoint_rows, betastats.bounds_sweeps)

    def counted_inverse(y, a, b):
        inverse.append(len(a))
        return inv_row(y, a, b)

    def counted_equipoints(s, t):
        equipoint.append(len(s))
        return equipoint_rows(s, t)

    def recorded(shapes, *args):
        drawn.append(len(shapes))
        return sweeps(shapes, *args)

    monkeypatch.setattr(betastats, "_ibeta_inv_row", counted_inverse)
    monkeypatch.setattr(betastats, "_equipoint_rows", counted_equipoints)
    monkeypatch.setattr(betastats, "bounds_sweeps", recorded)
    assert main(["verify", "bounds", "--d-max", "20"]) == 0
    assert capsys.readouterr().out == "verify bounds: OK (0 violations)\n"
    assert inverse == [2 * drawn[0]] and 3990 <= inverse[0] <= 4000
    # the random shapes, and the union of the two equipoint triangles
    # (t <= s <= 20 on the half-integer grid from 1 and from 0.5)
    assert equipoint == [drawn[0] + 820]


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
    check = dilation._check_dilations
    monkeypatch.setattr(dilation, "_check_dilations", lambda *stack: check(*stack) + 9e-10)
    assert main(["verify", "dilation", "--samples", "20"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith(
        "verify dilation: worst instance residual 9e-10 of bound 1e-09 (commutator, instance ")


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
