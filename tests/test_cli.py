import json

import pytest

from efsolver.benchmarks import benchmark_text
from efsolver.cli import main


@pytest.fixture
def bench_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.efp"
        path.write_text(benchmark_text(name), encoding="utf-8")
        return str(path)
    return write


def test_solve_benchmark_verified(bench_file, capsys):
    code = main(["solve", bench_file("A"), "--strategy", "split-all",
                 "--epsilon", "0.001", "--verify"])
    out = capsys.readouterr().out
    assert code == 0
    assert "outcome: solution" in out
    assert "verified: yes" in out


def test_solve_infeasible_exit_code(bench_file, capsys):
    code = main(["solve", bench_file("eq_conflict")])
    assert code == 1
    assert "infeasible" in capsys.readouterr().out


def test_solve_budget_exit_code(bench_file, capsys):
    code = main(["solve", bench_file("A"), "--max-splits", "0"])
    assert code == 2
    assert "budget-exhausted" in capsys.readouterr().out


def test_solve_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.efp"
    bad.write_text("exists x1 ;\nforall-vars y ;\nbranch y in [0,1] x1 <= ;\n")
    code = main(["solve", str(bad)])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_solve_missing_file_exit_code(capsys):
    assert main(["solve", "/nonexistent/problem.efp"]) == 3


def test_solve_undeclared_variable_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.efp"
    bad.write_text("exists x1 ;\nforall-vars y ;\nbranch y in [0,1] : x1*z <= 1 ;\n")
    assert main(["solve", str(bad)]) == 3


@pytest.mark.parametrize("coefficient,box", [
    ("y1^3", "[0,1e200]"),    # the power overflows
    ("y1*y1", "[0,1e300]"),   # the product overflows
])
def test_solve_overflowing_enclosure_exit_code(tmp_path, capsys, coefficient, box):
    bad = tmp_path / "big.efp"
    bad.write_text(f"exists x1 ;\nforall-vars y1 ;\n"
                   f"branch y1 in {box} : x1*({coefficient}) <= 1 ;\n")
    assert main(["solve", str(bad)]) == 3
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "double range" in captured.err
    assert "Traceback" not in captured.err + captured.out


def run_cli(argv):
    """main's exit code, also when argparse exits through SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("args", [
    ["solve", "A", "--max-splits", "-1"],
    ["solve", "A", "--epsilon", "-1"],
    ["solve", "A", "--kappa", "-0.5"],
    ["solve", "A", "--epsilon", "nan"],
    ["solve", "A", "--kappa", "nan"],
    ["solve", "A", "--time-budget", "nan"],
    ["solve", "A", "--time-budget", "-1"],
    ["bench", "--max-splits", "-1"],
    ["bench", "--epsilon", "nan"],
    ["solve", "A", "--strategy", "bogus"],
    ["solve", "A", "--max-splits", "abc"],
    ["solve"],
    [],
])
def test_bad_command_line_exit_code(bench_file, capsys, args):
    argv = [bench_file(a) if a == "A" else a for a in args]
    assert run_cli(argv) == 3
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_solve_json_report(bench_file, capsys):
    code = main(["solve", bench_file("B"), "--json", "--verify"])
    assert code == 0
    report = json.loads(capsys.readouterr().out.strip())
    assert report["outcome"] == "solution"
    assert report["strategy"] == "split-all"
    assert report["epsilon"] == 0.001
    assert report["verified"] is True
    assert report["splits"] >= report["rounds"] >= 1
    assert report["lp_solves"] >= 1
    assert report["wall_time_ms"] >= 0
    assert len(report["x"]) == 2


def test_bench_json_lines(capsys):
    code = main(["bench", "--json", "--instances", "A",
                 "--max-splits", "2000", "--time-budget", "60"])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    reports = [json.loads(l) for l in lines]
    assert [r["strategy"] for r in reports] == [
        "round-robin", "split-worst", "split-all"]
    assert all(r["instance"] == "A" for r in reports)
    assert all(r["outcome"] == "solution" for r in reports)


def test_bench_table_marks_budget(capsys):
    code = main(["bench", "--instances", "A", "--max-splits", "1",
                 "--time-budget", "60"])
    assert code == 0
    out = capsys.readouterr().out
    assert "A" in out
    assert "             -         -" in out  # unfinished runs marked '-'
