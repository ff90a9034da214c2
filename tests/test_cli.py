"""Command-line surface: parsing, rendering, exit codes, determinism."""

import json

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


def test_usage_errors(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["det", "--kernel", "hexagon", "--s", "1.0"]) == EXIT_USAGE
    assert main(["det", "--kernel", "csin", "--t", "1.5", "--s", "1.0"]) == EXIT_USAGE
    assert main(["det", "--kernel", "sine", "--s", "nope"]) == EXIT_USAGE
    assert main(["det", "--kernel", "sine", "--s", "9.0"]) == EXIT_USAGE
    assert main(["verify", "--formula", "dyson", "--s", "-1.0"]) == EXIT_USAGE
    assert main(["dump", "--what", "everything"]) == EXIT_USAGE
    capsys.readouterr()


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
