"""Exception taxonomy shared by all toolkit modules.

Preconditions failing is the caller's problem (exit code 2 in the CLI);
a bound or invariant failing at runtime means verification itself failed
(exit code 3) and is never downgraded to a warning.
"""

from __future__ import annotations


class PreconditionViolation(ValueError):
    """An input failed one of the documented precondition clauses."""

    def __init__(self, clause: str, detail: str = "") -> None:
        self.clause = clause
        self.detail = detail
        message = clause if not detail else f"{clause}: {detail}"
        super().__init__(message)


class NonPositiveEps(PreconditionViolation):
    pass


class EpsOutOfRange(PreconditionViolation):
    pass


class ArgOutOfRange(PreconditionViolation):
    pass


class VerificationFailure(Exception):
    """Base for runtime checks that guard computed results."""


class InvariantViolation(VerificationFailure):
    """A loop-head invariant clause did not hold during execution."""


def _invariant(condition: bool, where: str, clause: str) -> None:
    if not condition:
        raise InvariantViolation(f"{where}: {clause}")


class BoundViolation(VerificationFailure):
    """A proven error bound was exceeded by an observed value.

    `bound` names the inequality that failed; `k` is the iteration index when
    the failure is tied to one, else None.
    """

    def __init__(self, bound: str, k: int | None = None, detail: str = "") -> None:
        self.bound = bound
        self.k = k
        where = f" at iteration {k}" if k is not None else ""
        message = f"bound '{bound}' violated{where}"
        if detail:
            message += f": {detail}"
        super().__init__(message)


class RangeOverflow(ArithmeticError):
    """A fix-point result left the representable range [inf, sup]."""

    iteration: int | None = None  # set by the fix-point loop that catches it


class FormatMismatch(ValueError):
    """Two fix-point operands belong to different formats."""


class IterationCapExceeded(RuntimeError):
    """A loop exceeded its configured iteration cap."""
