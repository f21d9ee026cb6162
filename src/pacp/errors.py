"""Exception hierarchy shared across the package."""


class PacpError(Exception):
    """Base class for all package-specific errors."""


class DomainError(PacpError, ValueError):
    """A numeric argument is outside the domain an operation is defined on."""


class PalogError(PacpError, ValueError):
    """An attachment log (in memory or on disk) is malformed or invalid."""


class TargetTooLarge(PalogError):
    """A recorded target is >= its arrival label, so arrows would point upward."""


class WrongOutDegree(PalogError):
    """An arrival row does not contain exactly m targets."""


class MissingRow(PalogError):
    """An arrival row is absent, duplicated, or out of order."""


class SupportViolation(PacpError):
    """Relabeling produced a graph the attachment mechanism cannot generate."""


class NoInteriorRoot(PacpError):
    """The score has no sign change inside the admissible parameter interval.

    Signals a degenerate sample (e.g. too few post-change arrivals), not a bug.
    """

    def __init__(self, window: str):
        super().__init__(f"score has no interior root on window {window!r}")
        self.window = window


class PreconditionViolated(PacpError):
    """One or more hypotheses of the probed statement do not hold."""

    def __init__(self, failures):
        self.failures = list(failures)
        super().__init__("; ".join(self.failures))


class UnsupportedRegime(PacpError):
    """The probed statement does not cover this parameter regime."""
