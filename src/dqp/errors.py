"""Exception types shared across the package, and its input rules.

The command-line front end maps these onto its exit-code contract:
validation failures exit 2, budget refusals exit 3, internal check
failures exit 1.

Every layer refuses a bad integer through ``require_int``, a bad
exponent tuple through ``naturals`` and a bad seed through
``require_seed``, and shows a refused value through ``shown``, so no
message ever converts an int past the interpreter's int-string digit
limit.  Counts of objects already held in memory (a
length, a digit count) are printed as they are.
"""

import sys


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


def naturals(values) -> bool:
    """is_int(v) and v >= 0 for every value, in one pass; plain ints skip is_int.

    A plain loop: on the short tuples it checks it runs ~3x faster than
    all() over a generator.
    """
    for v in values:
        if not ((type(v) is int or is_int(v)) and v >= 0):
            return False
    return True


def shown(value) -> str:
    """A value as a message shows it: its repr, cut to 40 characters plus '...'.

    A value whose repr would pass the int-string digit limit (a huge int,
    or a tuple holding one) shows as '<int too long to show>'.
    """
    try:
        text = repr(value)
    except ValueError:  # an int past the int-string digit limit
        return "<int too long to show>"
    return text if len(text) <= 40 else f"{text[:40]}..."


def require_int(name: str, value, lo: int | None = None, hi: int | None = None) -> None:
    """Refuse with ValidationError anything but an int (not bool) in [lo, hi].

    hi is only ever given together with lo.
    """
    if not is_int(value):
        raise ValidationError(f"{name} must be an integer (got {shown(value)})")
    if lo is not None and value < lo or hi is not None and value > hi:
        if hi is None:
            rule = f"{name} >= {shown(lo)}"
        else:
            rule = f"{shown(lo)} <= {name} <= {shown(hi)}"
        raise ValidationError(f"{name} must satisfy {rule} (got {name}={shown(value)})")


def require_seed(seed) -> None:
    """Refuse with ValidationError a seed other than a str or an int (not bool).

    A seed is written into case keys as text, so an int past the
    interpreter's int-string digit limit is refused as well.
    """
    if isinstance(seed, str):
        return
    if not is_int(seed):
        raise ValidationError(f"seed must be an int or a str (got {shown(seed)})")
    try:
        str(seed)
    except ValueError:
        raise ValidationError(
            f"seed {shown(seed)} has more than {sys.get_int_max_str_digits()} digits"
        ) from None
