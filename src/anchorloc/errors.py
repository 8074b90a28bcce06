"""Exception types shared across the package, and the integer checks that raise them.

The CLI maps these onto exit codes, so raising the right class matters:
data/format problems are distinct from numerical failures.
"""


class AnchorLocError(Exception):
    """Base class for all package errors."""


class InvalidInputError(AnchorLocError, ValueError):
    """An argument violates a documented precondition (shape, range, emptiness)."""


class InvalidSpecError(AnchorLocError, ValueError):
    """A network or world specification is malformed."""


class DegenerateMapError(AnchorLocError, ValueError):
    """All candidate anchors collapse to a single point."""


class DegenerateOrientationError(AnchorLocError, ValueError):
    """Raw orientation norm is (near-)zero or not finite; normalization undefined."""


class NonFinitePoseError(AnchorLocError, ArithmeticError):
    """A reconstructed pose's translation error, or the logits that pick its
    anchor, is not finite."""


class ParseError(AnchorLocError, ValueError):
    """A text record could not be parsed. Carries the 1-based line number,
    which the message names after the file's ``path`` when given."""

    def __init__(self, message: str, line_number: int | None = None, path=None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
            if path is not None:
                message = f"{path}, {message}"
        super().__init__(message)


class DataIntegrityError(AnchorLocError, ValueError):
    """Parsed data violates a physical invariant (e.g. far-from-unit quaternion)."""


class TrainingDivergenceError(AnchorLocError, ArithmeticError):
    """Loss or gradient became non-finite. Carries epoch/batch when known."""

    def __init__(self, message: str, epoch: int | None = None, batch: int | None = None):
        self.epoch = epoch
        self.batch = batch
        if epoch is not None:
            message = f"{message} (epoch {epoch}" + (f", batch {batch})" if batch is not None else ")")
        super().__init__(message)


class UndefinedRateError(AnchorLocError, ValueError):
    """A rate was requested over an empty qualifying set."""


def as_int(name: str, value, error=InvalidSpecError) -> int:
    """``value`` as an int: a Python or numpy integer, not a bool or a float."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise error(f"{name} must be an integer, got {value!r}")
    return value.__index__()


def as_seed(name: str, value, error=InvalidSpecError) -> int:
    """``value`` as a seed: an integer in [0, 2**64), which numpy takes as it is."""
    value = as_int(name, value, error)
    if not 0 <= value < 2**64:
        raise error(f"{name} must be {'>= 0' if value < 0 else '< 2**64'}, got {value}")
    return value
