"""Exception types shared across the package."""


class SlabflowError(Exception):
    """Base class for all package-specific errors."""


class ExpressionError(SlabflowError):
    """Syntax or name error while parsing an expression.

    Carries the 1-based line/column of the offending token.
    """

    def __init__(self, message, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class NumericEvalError(SlabflowError):
    """Evaluation hit a non-finite value; names the offending subterm."""

    def __init__(self, message, subterm, line=None, column=None):
        loc = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(f"{message} in subterm '{subterm}'{loc}")
        self.subterm = subterm
        self.line = line
        self.column = column


class GeometryError(SlabflowError):
    """Inconsistent geometric input (a bad box, jump times out of order...)."""


class DomainRangeError(GeometryError):
    """A time outside [0, horizon] was passed to a domain query."""


class DegenerateSectionError(GeometryError):
    """A spatial section is too thin for the grid to resolve."""


class MarginError(GeometryError):
    """A section gets closer than two cells to the covered-box boundary."""


class UndefinedDistanceError(SlabflowError):
    """Hausdorff distance requested against an empty point set."""


class NumericInputError(SlabflowError):
    """A slice's initial frame is not finite on its active and ghost nodes."""


class JacobianSingularError(SlabflowError):
    """Gradient-slot Jacobian is singular (p < 2, no regularisation, xi ~ 0)."""


class SolverStallError(SlabflowError):
    """Newton stalled on a substep halved ``depth`` times; the message names the slice, step, t, n_active known.

    ``newton_history`` holds the stalled piece's initial residual and one per
    accepted Newton step (max norms).
    """

    def __init__(self, message, newton_history=(), depth=0, step=None, t=None, n_active=None):
        super().__init__(message)
        self.newton_history, self.depth = list(newton_history), depth
        self.slice, self.step, self.t, self.n_active = None, step, t, n_active

    def __str__(self):
        where = [f"{k}={v}" for k in ("slice", "step", "t", "n_active") if (v := getattr(self, k)) is not None]
        return super().__str__() + (f" ({', '.join(where)})" if where else "")


class ScenarioError(SlabflowError):
    """One or more problems with scenario settings, loaded or built in code.

    ``issues`` is the consolidated list; the message joins them.
    """

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("scenario invalid:\n" + "\n".join(f"  - {s}" for s in self.issues))


class InapplicableDiagnosticError(SlabflowError):
    """A diagnostic's preconditions are not met by the scenario."""
