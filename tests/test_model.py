import pytest

import efsolver as ef
from efsolver.model import (And, Branch, Guard, Linear, Or, Problem,
                            validate_problem)


def lin(coeffs, rhs=0.0):
    return Linear(tuple(coeffs), ef.Const(rhs))


def test_two_branch_problem_is_valid(two_branch_problem):
    assert validate_problem(two_branch_problem) == []


def test_benchmarks_are_valid(benchmarks):
    for name, problem in benchmarks.items():
        assert validate_problem(problem) == [], name


def test_multiple_linear_atoms_reported():
    box = ef.Box.of(("y", (0, 1)))
    f = Or((lin([("x1", ef.Var("y"))]), lin([("x1", ef.Const(1.0))])))
    p = Problem(("x1",), ("y",), (Branch(box, f),))
    kinds = [v.kind for v in validate_problem(p)]
    assert "MultipleLinearAtoms" in kinds
    assert validate_problem(p)[0].branch == 0


def test_existential_in_guard_reported():
    box = ef.Box.of(("y", (0, 1)))
    f = Guard(ef.Var("x1"))
    p = Problem(("x1",), ("y",), (Branch(box, f),))
    kinds = [v.kind for v in validate_problem(p)]
    assert "ExistentialInGuard" in kinds


def test_existential_in_coefficient_reported():
    box = ef.Box.of(("y", (0, 1)))
    f = lin([("x1", ef.Var("x1"))])
    p = Problem(("x1",), ("y",), (Branch(box, f),))
    kinds = [v.kind for v in validate_problem(p)]
    assert "ExistentialInCoefficient" in kinds


@pytest.mark.parametrize("x_vars,leaf,kind", [
    (("x1",), Linear((("x1", ef.Const(1.0)),), ef.Var("x1")), "ExistentialInRhs"),
    (("x1",), Linear((("x2", ef.Const(1.0)),), ef.Const(0.0)),
     "UnknownCoefficientVariable"),
    ((), Guard(ef.Var("y")), "NoExistentialVariables"),
])
def test_violation_kinds_reported(x_vars, leaf, kind):
    box = ef.Box.of(("y", (0, 1)))
    p = Problem(x_vars, ("y",), (Branch(box, leaf),))
    assert [v.kind for v in validate_problem(p)] == [kind]


def test_empty_branch_list_reported():
    p = Problem(("x1",), ("y",), ())
    kinds = [v.kind for v in validate_problem(p)]
    assert "EmptyBranchList" in kinds


def test_equality_shape_mismatch_reported():
    box = ef.Box.of(("y", (0, 1)))
    p = Problem(("x1", "x2"), ("y",), (Branch(box, lin([("x1", ef.Const(1.0))])),),
                equalities=((1.0,),), eq_rhs=(1.0,))
    kinds = [v.kind for v in validate_problem(p)]
    assert "EqualityShape" in kinds


def test_box_variable_mismatch_reported():
    box = ef.Box.of(("z", (0, 1)))
    p = Problem(("x1",), ("y",), (Branch(box, lin([("x1", ef.Const(1.0))])),))
    kinds = [v.kind for v in validate_problem(p)]
    assert "BoxVariableMismatch" in kinds


def test_guard_only_branch_is_allowed():
    box = ef.Box.of(("y", (0, 1)))
    f = And((Guard(ef.Var("y")), Guard(ef.Const(-1.0))))
    p = Problem(("x1",), ("y",), (Branch(box, f),))
    assert validate_problem(p) == []


def test_undeclared_variable_in_rhs_reported():
    box = ef.Box.of(("y1", (0, 1)))
    leaf = Linear((("x1", ef.Var("y1")),), ef.Var("z"))
    p = Problem(("x1",), ("y1",), (Branch(box, leaf),))
    violations = validate_problem(p)
    assert [(v.kind, v.branch) for v in violations] == [("UndeclaredVariable", 0)]
    assert "z" in violations[0].detail
    # solve reports it up front, before any enclosure or split
    with pytest.raises(ef.InvalidProblem) as exc:
        ef.solve(p)
    assert [v.kind for v in exc.value.violations] == ["UndeclaredVariable"]
