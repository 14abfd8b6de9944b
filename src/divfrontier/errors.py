"""Exception types shared across the package."""
from numbers import Integral


class DivFrontierError(Exception):
    """Base class for all package errors."""


class DimensionError(DivFrontierError):
    """Operands have incompatible lengths or dimensions."""


class ParameterError(DivFrontierError):
    """An argument is outside its valid domain."""


def require_integers(**values) -> None:
    """Raise ParameterError unless every value is an int or a NumPy integer.
    A bool is refused, though Python counts it as an int."""
    if not all(isinstance(v, Integral) and not isinstance(v, bool) for v in values.values()):
        noun = "integers" if len(values) > 1 else "an integer"
        got = ", ".join(f"{name}={value!r}" for name, value in values.items())
        raise ParameterError(f"{' and '.join(values)} must be {noun}, got {got}")


class DivergenceUndefinedError(DivFrontierError):
    """The closed form does not exist for these inputs.

    Distinct from an infinite divergence: +inf is a meaningful value
    (support violation), while e.g. a non-PD interpolated covariance means
    the defining integral itself diverges for the wrong reason.
    """


class InsufficientDataError(DivFrontierError):
    """Not enough samples for the requested estimate."""


class ParseError(DivFrontierError):
    """Malformed input file."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        loc = ""
        if path is not None:
            loc += f"{path}"
        if line is not None:
            loc += f":{line}"
        super().__init__(f"{loc}: {message}" if loc else message)
