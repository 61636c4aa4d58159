"""Exception types shared across the package."""


class DgspecError(Exception):
    """Base of every error the package raises on bad input or a failed kernel."""


class OutOfRangeError(DgspecError, ValueError):
    """A vertex label lies outside 0..n-1."""


class LoopArcError(DgspecError, ValueError):
    """An arc (v, v) was supplied; graphs here are loop-free."""


class DuplicateArcError(DgspecError, ValueError):
    """The same arc appeared twice in an edge-list document."""


class BadParameterError(DgspecError, ValueError):
    """An argument (a parameter, count, label or matrix) violates its precondition."""


class NotSymmetricError(DgspecError, ValueError):
    """A matrix expected to be symmetric is not."""


class NotPSDError(DgspecError, ValueError):
    """A matrix expected to be positive semidefinite has a negative eigenvalue."""


class NoConvergenceError(DgspecError, RuntimeError):
    """The eigensolver did not reach the requested eigenpair residual."""


class ParseError(DgspecError, ValueError):
    """Edge-list text is malformed; carries the offending line number."""

    def __init__(self, lineno: int, reason: str):
        super().__init__(f"line {lineno}: {reason}")
        self.lineno = lineno
        self.reason = reason
