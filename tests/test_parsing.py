import math

import pytest

from efsolver.errors import ParseError, UndeclaredVariable
from efsolver.model import And, Guard, Linear, Or
from efsolver.parsing import parse_problem


def test_two_branch_structure(two_branch_problem):
    p = two_branch_problem
    assert p.x_vars == ("x1", "x2")
    assert p.y_vars == ("y1", "y2")
    assert len(p.branches) == 2
    for br in p.branches:
        assert isinstance(br.formula, Or)
        kinds = [type(item) for item in br.formula.items]
        assert kinds == [Guard, Linear]
    # y1 >= y2 normalises to y2 - y1 <= 0
    g0 = p.branches[0].formula.items[0].atom
    assert not g0.strict
    assert g0.body.evaluate({"y1": 0.25, "y2": 1.0}) == pytest.approx(0.75)
    # y1 < y2 normalises to a strict guard y1 - y2 < 0
    g1 = p.branches[1].formula.items[0].atom
    assert g1.strict
    assert g1.body.evaluate({"y1": 0.25, "y2": 1.0}) == pytest.approx(-0.75)


def test_linear_atom_decomposition(two_branch_problem):
    atom = two_branch_problem.branches[0].formula.items[1].atom
    names = [n for n, _ in atom.coeffs]
    assert names == ["x1", "x2"]
    cm = atom.coeff_map()
    assert cm["x1"].evaluate({"y1": 0.5, "y2": -1.0}) == pytest.approx(
        -math.sin(0.5))
    assert atom.rhs.evaluate({"y1": 0.0, "y2": 0.0}) == 0.0


def test_equality_row():
    p = parse_problem("""
        exists x1 x2 ;
        forall-vars y ;
        branch y in [0,1] : x1*y <= 1 ;
        eq 1*x1 = 1 ;
    """)
    assert p.equalities == ((1.0, 0.0),)
    assert p.eq_rhs == (1.0,)


def test_equality_with_multiple_terms():
    p = parse_problem("""
        exists x1 x2 ;
        forall-vars y ;
        branch y in [0,1] : x1*y <= 1 ;
        eq 2*x1 + 0.5*x2 - x1 = 3 ;
    """)
    assert p.equalities == ((1.0, 0.5),)
    assert p.eq_rhs == (3.0,)


def test_undeclared_variable():
    with pytest.raises(UndeclaredVariable):
        parse_problem("""
            exists x1 ;
            forall-vars y ;
            branch y in [0,1] : x1*z <= 1 ;
        """)


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as exc:
        parse_problem("exists x1 ;\nforall-vars y ;\nbranch y in [0,1] x1*y <= 1 ;")
    assert exc.value.line == 3


def test_strict_existential_inequality_rejected():
    with pytest.raises(ParseError):
        parse_problem("""
            exists x1 ;
            forall-vars y ;
            branch y in [0,1] : x1*y < 1 ;
        """)


def test_nonlinear_in_x_rejected():
    with pytest.raises(ParseError):
        parse_problem("""
            exists x1 x2 ;
            forall-vars y ;
            branch y in [0,1] : x1*x2*y <= 1 ;
        """)
    with pytest.raises(ParseError):
        parse_problem("""
            exists x1 ;
            forall-vars y ;
            branch y in [0,1] : x1^2*y <= 1 ;
        """)


def test_parenthesised_formula_vs_expression():
    p = parse_problem("""
        exists x1 ;
        forall-vars y ;
        branch y in [0,1] : (y - 0.5 <= 0 or y - 0.7 >= 0) and x1*y <= 1 ;
        branch y in [0,1] : (y + 1)*y <= 2 or x1*y <= 1 ;
    """)
    f0 = p.branches[0].formula
    assert isinstance(f0, And) and isinstance(f0.items[0], Or)
    f1 = p.branches[1].formula
    assert isinstance(f1, Or) and isinstance(f1.items[0], Guard)


def test_comments_and_whitespace():
    p = parse_problem("""
        # leading comment
        exists x1 ;  # trailing
        forall-vars y ;
        branch y in [0,1] :
            x1*y <= 1 ;   # atom
    """)
    assert p.r == 1


def test_x_on_both_sides():
    p = parse_problem("""
        exists x1 ;
        forall-vars y ;
        branch y in [0,1] : x1*y <= x1 + 1 ;
    """)
    atom = p.branches[0].formula.atom
    # coefficient of x1 is y - 1
    assert atom.coeff_map()["x1"].evaluate({"y": 0.25}) == pytest.approx(-0.75)
    assert atom.rhs.evaluate({"y": 0.0}) == 1.0


def test_box_dims_reordered_to_declaration():
    p = parse_problem("""
        exists x1 ;
        forall-vars y1 y2 ;
        branch y2 in [3,4], y1 in [1,2] : x1*y1 <= 1 ;
    """)
    box = p.branches[0].box
    assert box.names == ("y1", "y2")
    assert box.interval("y1").lo == 1.0


def test_fractional_exponent_rejected():
    with pytest.raises(ParseError):
        parse_problem("exists x1 ;\nforall-vars y ;\n"
                      "branch y in [0,1] : x1*y^2.5 <= 1 ;")


def test_duplicate_branch_dimension_rejected():
    with pytest.raises(ParseError):
        parse_problem("exists x1 ;\nforall-vars y ;\n"
                      "branch y in [0,1], y in [2,3] : x1*y <= 1 ;")


def test_empty_interval_rejected():
    with pytest.raises(ParseError):
        parse_problem("exists x1 ;\nforall-vars y ;\n"
                      "branch y in [2,1] : x1*y <= 1 ;")


def test_duplicate_names_rejected():
    with pytest.raises(ParseError):
        parse_problem("exists x1 x1 ;\nforall-vars y ;\n"
                      "branch y in [0,1] : x1*y <= 1 ;")
    with pytest.raises(ParseError):
        parse_problem("exists x1 ;\nforall-vars x1 ;\n"
                      "branch x1 in [0,1] : 2*x1 <= 1 ;")


def test_missing_box_dimension_rejected():
    with pytest.raises(ParseError):
        parse_problem("exists x1 ;\nforall-vars y1 y2 ;\n"
                      "branch y1 in [0,1] : x1*y1 <= 1 ;")


def test_equality_with_nonconstant_coefficient_rejected():
    with pytest.raises(ParseError):
        parse_problem("exists x1 ;\nforall-vars y ;\n"
                      "branch y in [0,1] : x1*y <= 1 ;\n"
                      "eq y*x1 = 1 ;")


def test_scientific_notation_literals():
    p = parse_problem("exists x1 ;\nforall-vars y ;\n"
                      "branch y in [0,1] : x1*y <= 1e-06 ;")
    assert p.branches[0].formula.atom.rhs.evaluate({}) == pytest.approx(1e-6)


@pytest.mark.parametrize("statement,literal", [
    ("branch y in [0,1e400] : x1*y <= 1 ;", "1e400"),
    ("branch y in [-1e999,1] : x1*y <= 1 ;", "1e999"),
    ("branch y in [0,1] : x1*y <= 1e400 ;", "1e400"),
    ("branch y in [0,1] : y <= 2e308 or x1 <= 1 ;", "2e308"),
    ("branch y in [0,1] : x1 <= 1 ;\neq 1e400*x1 = 1 ;", "1e400"),
])
def test_literal_outside_double_range_rejected(statement, literal):
    text = "exists x1 ;\nforall-vars y ;\n" + statement
    with pytest.raises(ParseError, match="double range") as exc:
        parse_problem(text)
    line = text.splitlines()[exc.value.line - 1]
    assert line[exc.value.column - 1:].startswith(literal)


@pytest.mark.parametrize("equality", [
    "1e300*1e300*x1 = 1",      # the folded coefficient overflows
    "1e308*x1 + 1e308*x1 = 1",  # so does the merged one
    "x1 = 1/0",
    "x1 = (1e200)^2",
    "x1 = sin(1e300*1e300)",
])
def test_equality_with_non_finite_constant_rejected(equality):
    with pytest.raises(ParseError, match="finite") as exc:
        parse_problem("exists x1 ;\nforall-vars y ;\n"
                      "branch y in [0,1] : x1 <= 1 ;\n"
                      f"eq {equality} ;")
    assert (exc.value.line, exc.value.column) == (4, 4)
