"""Exception hierarchy for the wsdepth package.

Every error raised on purpose by this package derives from ``WsdError`` so
callers (and the CLI) can map failure classes to exit codes without string
matching.  ``check_integer`` is the one rule for integer parameters.
"""
from operator import index
from typing import Optional


class WsdError(Exception):
    """Base class for all wsdepth errors."""


class InvalidCloud(WsdError):
    """A point cloud violates its construction invariants."""


class DimensionMismatch(WsdError):
    """Operands live in different ambient dimensions."""


class MarginalMismatch(WsdError):
    """A transport plan's marginals disagree with the cloud weights."""


class NotSPD(WsdError):
    """A covariance matrix is not symmetric positive definite."""


class UnsupportedPairing(WsdError):
    """No closed form is available for this (query, population) pairing."""


class EmptyPopulation(WsdError):
    """A depth was requested against an empty population."""


class TooFewDistributions(WsdError):
    """The operation needs at least two population members."""


class InvalidParameter(WsdError):
    """A configuration or distribution parameter is out of its domain."""


class NonpositiveBandwidth(InvalidParameter):
    """Kernel bandwidth must be strictly positive."""


class NumericalError(WsdError):
    """A computation left its certified numerical envelope."""


class ParseError(WsdError):
    """A delimited input file could not be parsed."""


class EmptyGroup(WsdError):
    """An input file contains no data rows for any group."""


class NonFiniteValue(WsdError):
    """An input file contains a NaN or infinite coordinate."""


def check_integer(value, name: str, least: Optional[int] = None) -> int:
    """``value`` as an ``int``, checked by the one rule every integer
    parameter shares.

    Raises:
        InvalidParameter: ``value`` is not an integer (a NumPy integer is
            one; a float or a ``bool`` is not), or is below ``least``.
    """
    try:
        number = index(value)
    except TypeError:
        number = None
    if number is None or isinstance(value, bool):
        raise InvalidParameter(f"{name} must be an integer, got {value!r}")
    if least is not None and number < least:
        raise InvalidParameter(f"{name} must be >= {least}, got {value}")
    return number
