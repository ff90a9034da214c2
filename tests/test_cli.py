"""Command-line surface: parsing, rendering, exit codes, determinism."""

import argparse
import json
import shlex
from pathlib import Path

import pytest

from gapdet import (
    CubicSine,
    Sine,
    dyson_sine_prediction,
    log_det,
    log_det_converged,
    theorem1_prediction,
    theorem2_prediction,
)
from gapdet.cli import (
    EXIT_INTEGRITY,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAIL,
    _FORMULAS,
    _build_parser,
    main,
)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_det_empty_interval_row(capsys):
    code, out = run(capsys, ["det", "--kernel", "sine", "--x", "1.0", "--s", "0"])
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "s,n,log_det,converged,pivot_min"
    assert lines[1] == "0,32,0,true,1"


def test_det_csv_round_trips_the_library_value(capsys):
    code, out = run(capsys, ["det", "--kernel", "csin", "--t", "1.0", "--x", "1.0", "--s", "1.0"])
    assert code == EXIT_OK
    row = out.strip().split("\n")[1].split(",")
    ev = log_det_converged(CubicSine(t=1.0, x=1.0), 1.0)
    assert float(row[0]) == 1.0
    assert int(row[1]) == ev.n
    assert float(row[2]) == float(ev.log_det)  # %.17g is lossless
    assert row[3] == "true"


def test_det_fixed_order_flag(capsys):
    code, out = run(capsys, ["det", "--kernel", "sine", "--x", "1.0", "--s", "1.5", "--n", "48"])
    assert code == EXIT_OK
    row = out.strip().split("\n")[1].split(",")
    assert int(row[1]) == 48
    assert float(row[2]) == float(log_det(Sine(x=1.0), 1.5, 48).log_det)


def test_json_format_carries_the_same_rows(capsys):
    code, out = run(capsys, ["det", "--kernel", "sine", "--x", "1.0", "--s", "1.0",
                             "--format", "json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["command"] == "det"
    (row,) = doc["rows"]
    assert set(row) == {"s", "n", "log_det", "converged", "pivot_min"}
    assert row["converged"] is True
    assert row["log_det"] == float(log_det_converged(Sine(x=1.0), 1.0).log_det)


def test_verify_wide_interval_formula(capsys):
    code, out = run(capsys, ["verify", "--formula", "dyson"])
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "s,computed,predicted,abs_err,pass"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [float(r[0]) for r in rows] == [4.0, 5.0, 6.0]
    errs = [float(r[3]) for r in rows]
    assert errs[0] > errs[1] > errs[2]
    assert all(r[4] == "true" for r in rows)


def test_verify_fails_cleanly_on_tiny_tolerance(capsys):
    code, out = run(capsys, ["verify", "--formula", "dyson", "--tol", "1e-9"])
    assert code == EXIT_VERIFY_FAIL
    assert "false" in out


def test_verify_slope_formula_with_trig_kernel(capsys):
    code, out = run(capsys, ["verify", "--formula", "logsasy", "--kernel", "csin",
                             "--s", "2.0", "--x", "1.0"])
    assert code == EXIT_OK
    row = out.strip().split("\n")[1].split(",")
    assert abs(float(row[2]) - (-162.375)) < 1e-12
    assert float(row[3]) <= 0.5


def test_theorem1_reads_any_x_in_the_window(capsys):
    # the moment integral's domain is the solved window, so an x within 1 of
    # its left edge is judged, not refused
    code, out = run(capsys, ["verify", "--formula", "theorem1", "--x", "-9.5", "--s", "2"])
    assert code == EXIT_OK
    assert out.strip().split("\n")[1].endswith(",true")


def test_verify_scales_t_onto_the_t_one_formulas(capsys):
    # theorem2, logsasy and logxasy are t = 1 formulas; at t = 0.5 they are
    # judged at (s t^(1/3), x t^(-1/3)), where CubicSine(t, x) has the same
    # determinant (tests/test_fredholm.py).  Unscaled they missed by 40.1,
    # 112 and 7.99; scaled, by 5.5e-2, 4.7e-2 and 1.6e-2.  t = 0 is the sine
    # kernel, which has no t = 1 image, so it is refused; so is a t that
    # takes x outside the solved window, where logxasy reads v.
    for formula in ("theorem2", "logsasy", "logxasy"):
        argv = ["verify", "--formula", formula, "--kernel", "csin", "--x", "1", "--s", "2.0"]
        code, out = run(capsys, argv + ["--t", "0.5"])
        assert code == EXIT_OK
        assert float(out.strip().split("\n")[1].split(",")[3]) <= 0.1
        assert main(argv + ["--t", "0"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("gapdet: --t ")
    argv = ["verify", "--formula", "logxasy", "--kernel", "csin", "--t", "0.3", "--x", "7"]
    assert main(argv) == EXIT_USAGE
    assert "outside the solved window" in capsys.readouterr().err


def test_kernel_sine_is_the_t_zero_csin(capsys):
    # --kernel sine spells --kernel csin --t 0, so the scaled formulas
    # refuse both spellings with one message.  Read as a kernel of its own,
    # it was judged against the t = 1 formulas and failed, missing by 18.2
    # (theorem2, s = 1.6), 160.2 (logsasy, s = 2) and 15.8 (logxasy, s = 2).
    for formula in ("theorem2", "logsasy", "logxasy"):
        errors = []
        for kernel in (["sine"], ["csin", "--t", "0"]):
            assert main(["verify", "--formula", formula, "--kernel", *kernel]) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1] == (
            f"gapdet: --t 0.0 is the sine kernel, which --formula {formula} "
            "cannot scale to t = 1\n")
    # with a --t of its own it is refused, as every kernel but csin is
    assert main(["det", "--kernel", "sine", "--s", "1", "--t", "0.3"]) == EXIT_USAGE
    assert capsys.readouterr().err == "gapdet: --t applies to --kernel csin only\n"
    # one kernel: the same table, and the same s cap, under both spellings
    for s in ("1.5,5", "9"):
        seen = []
        for kernel in (["sine"], ["csin", "--t", "0"]):
            code = main(["det", "--kernel", *kernel, "--s", s])
            seen.append((code, capsys.readouterr()))
        assert seen[0] == seen[1]
    assert seen[0][0] == EXIT_USAGE
    assert seen[0][1].err == "gapdet: s = 9.0 outside [0, 8.0] for CubicSine\n"


def test_verify_exponent_fit_with_trig_kernel(capsys):
    code, out = run(capsys, ["verify", "--formula", "fcet", "--kernel", "csin", "--x", "0.0"])
    assert code == EXIT_OK
    row = out.strip().split("\n")[1].split(",")
    assert row[0] == "2.1000000000000001"  # max of the default s ladder
    assert 5.5 <= float(row[1]) <= 6.3
    assert float(row[2]) == 6.0


def test_verify_fcet_defaults_pass(capsys):
    # fcet's own default request is at x = 0, where criterion 6 checks it;
    # an explicit --x still wins
    code, out = run(capsys, ["verify", "--formula", "fcet"])
    assert code == EXIT_OK
    assert 5.5 <= float(out.strip().split("\n")[1].split(",")[1]) <= 6.3
    assert run(capsys, ["verify", "--formula", "fcet", "--x", "1.0"])[0] == EXIT_VERIFY_FAIL


def test_indefinite_rung_is_an_integrity_fault(capsys):
    code = main(["det", "--kernel", "csin", "--x", "1", "--s", "2.4", "--n", "32"])
    assert code == EXIT_INTEGRITY
    assert capsys.readouterr().err == (
        "gapdet: integrity: I - K not positive definite at s = 2.4, n = 32\n")


def test_usage_errors(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["det", "--kernel", "hexagon", "--s", "1.0"]) == EXIT_USAGE
    assert main(["det", "--kernel", "csin", "--t", "1.5", "--s", "1.0"]) == EXIT_USAGE
    assert main(["det", "--kernel", "sine", "--s", "nope"]) == EXIT_USAGE
    assert main(["det", "--kernel", "sine", "--s", "9.0"]) == EXIT_USAGE
    assert main(["verify", "--formula", "dyson", "--s", "-1.0"]) == EXIT_USAGE
    for tol in ("nan", "-1", "inf", "-inf"):
        assert main(["verify", "--formula", "dyson", "--s", "4", "--tol", tol]) == EXIT_USAGE
    assert main(["dump", "--what", "everything"]) == EXIT_USAGE
    # the psi dump has one route, the x-march: there is no ray seed to choose
    assert main(["dump", "--what", "psi", "--psi-R", "8"]) == EXIT_USAGE
    assert main(["dump", "--what", "kernel", "--kernel", "csin", "--x", "nan",
                 "--s", "1", "--n", "4"]) == EXIT_USAGE
    assert main(["dump", "--what", "hm", "--hm-window=-inf,8,0.002"]) == EXIT_USAGE
    assert main(["det", "--kernel", "pii", "--x", "-12", "--s", "1",
                 "--hm-window=-20,8,0.002"]) == EXIT_USAGE
    capsys.readouterr()
    # the slopes have no fixed-order path, so --n is refused rather than ignored
    for formula in ("logsasy", "logxasy"):
        assert main(["verify", "--formula", formula, "--kernel", "csin", "--x", "1",
                     "--s", "1.0", "--n", "16"]) == EXIT_USAGE
        assert "--n" in capsys.readouterr().err
    # the x-slope takes no step in x, so it is computed up to the window's
    # edge; there the formula misses by ~1.04 and the verdict fails
    assert main(["verify", "--formula", "logxasy", "--x", "-9.9995"]) == EXIT_VERIFY_FAIL
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.endswith(",false\n")
    # the psi dump's --n is a sample count: an empty, negative or
    # unboundedly large one is refused
    for n in ("0", "-3", "2001"):
        assert main(["dump", "--what", "psi", "--n", n]) == EXIT_USAGE
        assert "gapdet: --n" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    # flags the subcommand does not declare
    ("det --kernel sine --x 1 --s 1 --t 0.3 --tol 5 --hm-window=-9,7,0.005", "--tol"),
    ("dump --what hm --kernel csin --s 3 --x 5 --tol 1 --n 3", "--tol"),
    ("dump --what kernel --psi-R 8", "--psi-R"),
    # flags the subcommand declares but this request would not read
    ("verify --formula dyson --s 5 --t 0.2", "--t"),
    ("det --kernel pii --x 0 --s 1 --t 0.5", "--t"),
    ("det --kernel csin --s 1 --hm-window=-9,7,0.005", "--hm-window"),
    ("verify --formula logsasy --s 1.8 --n 32", "--n"),
    ("dump --what hm --n 3", "--n"),
    ("dump --what psi --kernel pii", "--kernel"),
    ("dump --what hm --s 3", "--s"),
    ("dump --what hm --x 5", "--x"),
    ("dump --what kernel --s 1,2", "--s"),
])
def test_unread_flag_is_refused(capsys, argv, flag):
    assert main(argv.split()) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f" {flag} " in captured.err  # the flag itself, not one it prefixes


def test_output_file_matches_stdout(tmp_path, capsys):
    argv = ["det", "--kernel", "sine", "--x", "1.0", "--s", "0.5,1.0"]
    code, out = run(capsys, argv)
    assert code == EXIT_OK
    target = tmp_path / "rows.csv"
    code2 = main(argv + ["--out", str(target)])
    capsys.readouterr()
    assert code2 == EXIT_OK
    assert target.read_text(encoding="ascii") == out


def test_unwritable_output_path(capsys):
    code = main(["det", "--kernel", "sine", "--s", "1.0",
                 "--out", "/no/such/dir/rows.csv"])
    capsys.readouterr()
    assert code == EXIT_IO


def test_byte_determinism_across_runs(capsys):
    argv = ["verify", "--formula", "theorem2", "--kernel", "csin",
            "--x", "1.0", "--s", "1.6,1.8"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_dump_solution_table(capsys):
    code, out = run(capsys, ["dump", "--what", "hm"])
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "x,u,u_x,v"
    assert len(lines) == 1 + 9001
    first = lines[1].split(",")
    assert float(first[0]) == -10.0


def test_dump_columns_table(capsys):
    code, out = run(capsys, ["dump", "--what", "psi", "--x", "1.0", "--n", "5"])
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "lambda,re_psi11,im_psi11,re_psi21,im_psi21"
    assert len(lines) == 6


def test_dump_kernel_grid_is_symmetric(capsys):
    code, out = run(capsys, ["dump", "--what", "kernel", "--kernel", "csin",
                             "--x", "1.0", "--s", "1.0", "--n", "8"])
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0].split(",")[:2] == ["c0", "c1"] and len(lines) == 9
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    for i in range(8):
        for j in range(8):
            assert rows[i][j] == rows[j][i]


def _readme() -> str:
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_one_name_per_formula(hm):
    # the README's Predictions table, the CLI's table and --formula choices,
    # and the library's formula_id all name each formula the same way
    table = _readme().split("## Predictions", 1)[1].split("\n\n")[2]
    readme_ids = [ln.split("|")[1].strip().strip("`") for ln in table.splitlines()[2:]]
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (formula,) = [a for a in sub.choices["verify"]._actions if a.dest == "formula"]
    assert sorted(readme_ids) == sorted(_FORMULAS) == sorted(formula.choices)
    preds = (dyson_sine_prediction(4.0, 1.0), theorem1_prediction(2.0, 1.0, hm),
             theorem2_prediction(2.0, 1.0))
    assert {p.formula_id for p in preds} <= set(readme_ids)


def _readme_command_lines():
    text = _readme()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(ln)[1:] for ln in block.splitlines() if ln.startswith("gapdet ")]


def test_readme_command_lines_run(capsys):
    argvs = _readme_command_lines()
    assert len(argvs) >= 5
    failed = [" ".join(argv) for argv in argvs if main(argv) != EXIT_OK]
    capsys.readouterr()
    assert failed == []
