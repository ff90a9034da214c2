"""Command-line surface: parsing, rendering, exit codes, determinism."""

import json
import shlex
from pathlib import Path

import pytest

from gapdet import CubicSine, Sine, log_det, log_det_converged
from gapdet.cli import EXIT_INTEGRITY, EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL, main


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
    assert main(["dump", "--what", "psi", "--psi-R", "0"]) == EXIT_USAGE
    assert main(["dump", "--what", "psi", "--psi-R", "-8"]) == EXIT_USAGE
    capsys.readouterr()
    # --psi-R belongs to the psi dump: elsewhere it is refused, not ignored
    assert main(["det", "--kernel", "pii", "--x", "0", "--s", "1", "--psi-R", "-3"]) == EXIT_USAGE
    assert "--psi-R" in capsys.readouterr().err
    assert main(["dump", "--what", "hm", "--psi-R", "8"]) == EXIT_USAGE
    assert "--psi-R" in capsys.readouterr().err
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
    ("dump --what kernel --psi-R 8", "--psi-R"),
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


def test_dump_columns_both_routes(capsys, hm):
    code, out = run(capsys, ["dump", "--what", "psi", "--x", "1.0", "--n", "5"])
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "lambda,re_psi11,im_psi11,re_psi21,im_psi21"
    assert len(lines) == 6

    code, out2 = run(capsys, ["dump", "--what", "psi", "--x", "1.0", "--n", "5",
                              "--psi-R", "8.0"])
    assert code == EXIT_OK
    lines2 = out2.strip().split("\n")
    assert lines2[0] == lines[0] and len(lines2) == 6
    # the two routes agree to the documented O(1/R^2) seed bias of the
    # ray seed, roughly 2e-4 at R=8
    a = [float(v) for v in lines[3].split(",")[1:]]
    b = [float(v) for v in lines2[3].split(",")[1:]]
    assert max(abs(p - q) for p, q in zip(a, b)) <= 1e-3
    assert out2 != out


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


def _readme_command_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(ln)[1:] for ln in block.splitlines() if ln.startswith("gapdet ")]


def test_readme_command_lines_run(capsys):
    argvs = _readme_command_lines()
    assert len(argvs) >= 5
    failed = [" ".join(argv) for argv in argvs if main(argv) != EXIT_OK]
    capsys.readouterr()
    assert failed == []
