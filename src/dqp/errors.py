"""Exception types shared across the package.

The command-line front end maps these onto its exit-code contract:
validation failures exit 2, budget refusals exit 3, internal check
failures exit 1.
"""


class DqpError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(DqpError, ValueError):
    """An input violates a documented constraint.

    The message names the violated inequality or rule.
    """


class BudgetError(DqpError, RuntimeError):
    """A computation would exceed its enumeration budget.

    ``required`` carries the budget that would be needed for the call to
    proceed, when that is known.
    """

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class CheckError(DqpError, RuntimeError):
    """Two supposedly-equal computation routes disagreed.

    This always signals an internal bug, never bad user input.
    """


def is_int(value) -> bool:
    """True for integers other than bool, which Python counts as an int."""
    return isinstance(value, int) and not isinstance(value, bool)
