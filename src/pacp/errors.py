"""Exception hierarchy shared across the package, and the model's parameter
domain rule."""

import math
from numbers import Integral


class PacpError(Exception):
    """Base class for all package-specific errors."""


class DomainError(PacpError, ValueError):
    """A numeric argument is outside the domain an operation is defined on."""


def check_domain(m, **deltas) -> None:
    """Raise DomainError unless m is an integer >= 1 and every named delta is
    finite and > -m: the domain of the affine attachment model.

    Written so that NaN fails; the message names the parameter and its value.
    """
    if not (isinstance(m, Integral) and m >= 1):
        raise DomainError(f"m must be an integer >= 1, got {m}")
    for name, delta in deltas.items():
        if not (math.isfinite(delta) and delta > -m):
            raise DomainError(f"{name} must be finite and > -m = {-m}, got {delta}")


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
