import json
import warnings

import pytest

import efsolver as ef
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
    assert "verify status: verified" in out


def test_verify_with_guard_undefined_on_a_box(tmp_path, capsys):
    # 1/y1 has no enclosure on [-1,1], so the combined guard run fails;
    # guard by guard, y1 <= 2 still proves the first branch
    path = tmp_path / "undefined.efp"
    path.write_text("exists x1 ;\n"
                    "forall-vars y1 ;\n"
                    "branch y1 in [-1,1] : y1 <= 2 or x1*(1/y1) <= 1 ;\n"
                    "branch y1 in [1,2] : x1*y1 <= 1 ;\n", encoding="utf-8")
    assert main(["solve", str(path), "--verify"]) == 0
    assert "verify status: verified" in capsys.readouterr().out


def test_solve_infeasible_exit_code(bench_file, capsys):
    code = main(["solve", bench_file("eq_conflict")])
    assert code == 1
    assert "infeasible" in capsys.readouterr().out


def test_solve_budget_exit_code(bench_file, capsys):
    code = main(["solve", bench_file("A"), "--max-splits", "0"])
    assert code == 2
    assert "budget-exhausted" in capsys.readouterr().out


def test_huge_kappa_solves_without_warnings(bench_file, capsys):
    # kappa * width * age overflows to inf; inf credits used to tie (and
    # inf * 0 gave NaN scores), so B under split-worst ran out of splits
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve", bench_file("B"), "--strategy", "split-worst",
                     "--kappa", "1e308", "--max-splits", "2000", "--verify"])
    out = capsys.readouterr().out
    assert code == 0
    assert "outcome: solution" in out and "verify status: verified" in out


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


@pytest.mark.parametrize("statement", [
    "branch y1 in [0,1e400] : x1*y1 <= 1 ;",     # a box bound
    "branch y1 in [0,1] : x1*y1 <= 1e400 ;",     # a literal in the formula
    "branch y1 in [0,1] : x1*y1 <= 1 ;\neq 1e400*x1 = 1 ;",
    "branch y1 in [0,1] : x1*y1 <= 1 ;\neq 1e300*1e300*x1 = 1 ;",
    "branch y1 in [0,1] : x1*y1 <= 1 ;\neq x1 = 1/0 ;",
])
def test_solve_non_finite_input_exit_code(tmp_path, capsys, statement):
    bad = tmp_path / "inf.efp"
    bad.write_text(f"exists x1 ;\nforall-vars y1 ;\n{statement}\n")
    assert main(["solve", str(bad)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err + captured.out
    assert captured.out == ""


def test_solve_non_decimal_numeral_exit_code(tmp_path, capsys):
    bad = tmp_path / "numeral.efp"
    bad.write_text("exists x1 ;\nforall-vars y1 ;\n"
                   "branch y1 in [0,1] : y1 <= \u00b2 or x1 <= 1 ;\n", encoding="utf-8")
    assert main(["solve", str(bad)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err + captured.out


def test_solve_prints_one_error_line_per_violation(tmp_path, capsys):
    # parses, but each branch has two inequalities over x
    bad = tmp_path / "two.efp"
    bad.write_text("exists x1 ;\nforall-vars y1 ;\n"
                   "branch y1 in [0,1] : x1 <= 1 and x1*y1 <= 2 ;\n"
                   "branch y1 in [0,1] : x1 <= 1 or x1 <= 2 ;\n")
    assert main(["solve", str(bad)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: MultipleLinearAtoms (branch 0): 2 inequalities mention x",
                     "error: MultipleLinearAtoms (branch 1): 2 inequalities mention x"]


def test_verify_flag_runs_verifier_after_solve(bench_file, capsys, monkeypatch):
    from efsolver import cli
    seen = []
    status = ef.VerifyStatus.COUNTEREXAMPLE

    def verify(problem, x):
        seen.append(list(x))
        return ef.VerifyResult(status)

    monkeypatch.setattr(cli, "verify_solution", verify)
    assert main(["solve", bench_file("A")]) == 0
    assert "verify status:" not in capsys.readouterr().out and not seen
    assert main(["solve", bench_file("A"), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verify_status"] is None
    # each of the verifier's three outcomes reaches both outputs as is
    for status in ef.VerifyStatus:
        assert main(["solve", bench_file("A"), "--json", "--verify"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert seen[-1] == report["x"] and report["verify_status"] == status.value
        assert main(["solve", bench_file("A"), "--verify"]) == 0
        assert f"verify status: {status.value}\n" in capsys.readouterr().out


def test_simplex_iteration_limit_exits_2(bench_file, capsys, monkeypatch):
    from efsolver import simplex
    monkeypatch.setattr(simplex, "MAX_ITER", 1)
    assert main(["solve", bench_file("A")]) == 2
    captured = capsys.readouterr()
    assert "outcome: budget-exhausted" in captured.out
    assert "reason: simplex iteration limit reached" in captured.out
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
    ["solve", "A", "--kappa", "inf"],
    ["solve", "A", "--epsilon", "inf"],
    ["bench", "--epsilon", "inf"],
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
    assert report["verify_status"] == "verified"
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


def test_guard_tightenings_reported_on_eq_guarded(bench_file, capsys):
    # the guard (y1 - y1) + 0.25 < 0 straddles naturally on every box, and
    # its mean-value form, the point 0.25, decides it false on the initial
    # box and on both halves of the one split the linear row needs
    problem = ef.parse_problem(benchmark_text("eq_guarded"))
    assert ef.solve(problem).stats.guard_tightenings == 3
    assert ef.solve(problem, ef.SolveConfig(max_splits=0)).stats.guard_tightenings == 1

    assert main(["solve", bench_file("eq_guarded")]) == 0
    assert "guard tightenings: 3" in capsys.readouterr().out
    assert main(["solve", bench_file("eq_guarded"), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["guard_tightenings"] == 3
    # instances without guards never tighten
    assert main(["solve", bench_file("A"), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["guard_tightenings"] == 0


@pytest.mark.parametrize("formula", [
    "+".join(["y1"] * 3000) + " <= 5000",
    "(" * 2000 + "y1" + ")" * 2000 + " <= 5000",
], ids=["long-sum", "deep-parentheses"])
def test_deeply_nested_input_is_an_input_error(tmp_path, capsys, formula):
    # exit 1 would read as "infeasible"
    path = tmp_path / "deep.efp"
    path.write_text("exists x1 ;\nforall-vars y1 ;\n"
                    f"branch y1 in [0,1] : {formula} or x1 <= 1 ;\n",
                    encoding="utf-8")
    assert main(["solve", str(path), "--verify"]) == 3
    captured = capsys.readouterr()
    assert "error: input nested too deeply" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_json_report_carries_reason_and_witness(bench_file, tmp_path, capsys):
    assert main(["solve", bench_file("eq_conflict"), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert "equality system" in report["reason"]
    assert report["witness_id"] is None

    path = tmp_path / "false.efp"
    path.write_text("exists x1 ;\nforall-vars y1 ;\n"
                    "branch y1 in [0,1] : y1 >= 2 ;\n", encoding="utf-8")
    assert main(["solve", str(path), "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["witness_id"] == 0

    assert main(["solve", bench_file("B"), "--json", "--max-splits", "0"]) == 2
    assert json.loads(capsys.readouterr().out)["reason"] == "split budget exhausted"


OVERFLOW_TEXT = """exists x1 ;
forall-vars y1 ;
branch y1 in [-1,1] : x1 <= 1.5e308*y1 ;
branch y1 in [0,1] : -x1 <= -1 ;
"""


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("strategy,reason", [
    ("round-robin", "residual LP overflow: the dual tableau left the double range"),
    ("split-worst", "split budget exhausted"),
    ("split-all", "split budget exhausted")])
def test_lp_overflow_ends_with_a_reason(tmp_path, capsys, strategy, reason):
    # right-hand sides near the double range overflow the fourth LP's dual
    # tableau under round-robin, warm and then cold: the run stops with
    # exit 2 and names the overflow, with numpy warnings as errors
    path = tmp_path / "overflow.efp"
    path.write_text(OVERFLOW_TEXT, encoding="utf-8")
    assert main(["solve", str(path), "--strategy", strategy,
                 "--max-splits", "5", "--json"]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["reason"] == reason
    assert "Traceback" not in captured.err + captured.out


def test_pivots_are_reported(bench_file, capsys):
    out = ef.solve(ef.parse_problem(benchmark_text("A")))
    assert out.stats.pivots == 28
    assert main(["solve", bench_file("A")]) == 0
    assert "   pivots: 28   " in capsys.readouterr().out
    assert main(["solve", bench_file("A"), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["pivots"] == 28
    assert main(["bench", "--json", "--instances", "A"]) == 0
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["pivots"] for r in reports] == [28, 44, 28]
