"""Exception types shared across the package."""


class EFSolverError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(EFSolverError, ValueError):
    """An interval operation was applied outside its domain (e.g. division
    by an interval containing zero), or an endpoint left the double range."""


class SplitDegenerate(EFSolverError):
    """Attempt to split an interval whose midpoint is not strictly inside."""


class AllDimensionsDegenerate(EFSolverError):
    """No splittable (positive-width) dimension is available."""


class EqualitiesInfeasible(EFSolverError):
    """The linear equality system Cx = d has no solution."""


class SimplexIterationLimit(EFSolverError):
    """The simplex method reached its iteration limit without finishing."""


class LPOverflow(EFSolverError):
    """The residual LP's tableau left the double range (an inf or NaN
    entry), so its solution cannot be read."""


class ParseError(EFSolverError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class UndeclaredVariable(EFSolverError):
    """A variable name was used that is neither existential nor universal."""

    def __init__(self, name: str, line: int | None = None, column: int | None = None):
        loc = f"{line}:{column}: " if line is not None else ""
        super().__init__(f"{loc}undeclared variable '{name}'")
        self.name = name


class InvalidProblem(EFSolverError):
    """A problem failed structural validation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))
