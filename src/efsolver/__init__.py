"""Solver for exists-forall constraints, linear in the existential
variables, over boxed universal variables.

Pipeline: interval evaluation decides the universal-only inequalities per
branch; the surviving linear inequality per branch forms a row of an
interval linear system, kept as endpoint arrays; an endpoint
transformation turns it into a residual LP whose optimum both certifies
solvability and steers which box, which coefficient and which variable to
split next.
"""

from .errors import (AllDimensionsDegenerate, DomainError, EFSolverError,
                     EqualitiesInfeasible, InvalidProblem, ParseError,
                     SimplexIterationLimit, SplitDegenerate,
                     UndeclaredVariable)
from .expr import (Add, Const, Cos, Div, Expr, Mul, Neg, Pow, Sin, Sub, Tape,
                   Var, compile_tape, enclose, eval_on_box)
from .heuristics import (AgeTable, HeuristicConfig, Strategy, coeff_score,
                         round_robin_var, select_targets, split_coefficient,
                         splitheur)
from .intervals import Box, Interval
from .model import (And, Branch, Formula, Guard, Linear, Or, Problem,
                    Violation, validate_problem)
from .parsing import parse_problem
from .relaxation import (FeasibilityLP, LPSolution, LPStatus, residual_vector,
                         rohn_transform, solve_feasibility)
from .simplex import SimplexStatus, simplex_solve
from .simplify import (BranchStatus, CompiledBranch, LinearRow, Undecided,
                       classify_guard, compile_branch, reduce_formula,
                       simplify_branch)
from .solver import (Outcome, SolveConfig, SolveOutcome, SolveStats,
                     VerifyResult, VerifyStatus, solve, verify_solution)

__version__ = "0.1.0"
