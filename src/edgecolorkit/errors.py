"""Exception types shared across the package.

The CLI maps these onto exit codes: ParseError (and unreadable input) is an
input problem, PreconditionError is a well-formed request the engine refuses
(method preconditions, infeasible parameter combinations, size caps).
"""


class ParseError(ValueError):
    """Malformed input text (graph files, CNF files, gadget names)."""


class PreconditionError(ValueError):
    """Request violates a documented precondition of an operation."""


class GadgetError(PreconditionError):
    """A gadget construction violated its structural requirements."""


class KeyPropertyError(PreconditionError):
    """A reduction was asked to use a gadget whose extension matrix is not
    a positive multiple of the identity. Carries the offending report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
