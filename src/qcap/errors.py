"""Exception types shared across the package.

The CLI maps these onto exit codes: malformed input files / bad parameters
exit 2, invariant violations exit 3, resource-cap overruns exit 4.
"""


class InvariantViolationError(ValueError):
    """A domain invariant does not hold (non-CP channel, non-density state, ...)."""


class CapExceededError(RuntimeError):
    """A requested dense construction exceeds a configured size cap."""


class FormatError(ValueError):
    """A serialized channel or a channel spec does not match the expected schema."""
