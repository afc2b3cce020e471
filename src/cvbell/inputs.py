"""One validator per kind of input; each refusal is a `DomainError` whose
text names the input.

One real number is any `numbers.Real` but a bool (numpy's too), used as
its float: a Fraction is one, a Decimal or an array is not.  A number too
large for a float, or an integer above INDEX_MAX, is refused.  A float
passes without the `numbers.Real` check, an int without `numbers.Integral`.
A validator of one number refuses an array.  A batch validator takes an
ndarray of integer or real dtype by its dtype alone, and anything else
value by value, as `real` takes one number.  A record the package builds
(parameters, states, mixtures, results) is checked by its class alone
(`record`).
"""

from __future__ import annotations

import math
import numbers
import sys
from typing import NamedTuple

import numpy as np

from .errors import DomainError

#: the largest integer `integer` accepts: the largest numpy index
INDEX_MAX = int(np.iinfo(np.intp).max)


class Param(NamedTuple):
    """A pipeline parameter's config key, the end its domain leaves out of
    the unit interval, and whether a sweep may vary it."""

    key: str
    open_end: float
    sweep: bool

    @property
    def interval(self) -> str:
        """The domain, as error text."""
        return "[0, 1)" if self.open_end else "(0, 1]"


#: ExperimentParams field -> Param, in config and x_block argument order
PARAMS = {
    "squeezing": Param("lambda", 1.0, True),
    "transmittance": Param("T", 0.0, False),
    "apd_efficiency": Param("eta", 0.0, True),
    "homodyne_efficiency": Param("eta_bhd", 0.0, True),
}

#: the open end of each domain, in PARAMS order
_OPEN_ENDS = np.array([p.open_end for p in PARAMS.values()])

#: config key -> field name of each parameter a sweep may vary
SWEEP_KEYS = {p.key: name for name, p in PARAMS.items() if p.sweep}


def _in_unit_interval(values, open_end):
    """Elementwise membership of values in the unit interval without
    open_end, which broadcasts; on a float it makes no numpy call."""
    return (0.0 <= values) & (values <= 1.0) & (values != open_end)


def _is_real(value) -> bool:
    return isinstance(value, float) or (isinstance(value, numbers.Real)
                                        and not isinstance(value, bool))


def real(name: str, value) -> float:
    """value, one real number, as a float."""
    if not (isinstance(value, float) or _is_real(value)):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{name} must not exceed {sys.float_info.max} "
                          "in magnitude") from None


def record(name: str, value, cls: type) -> None:
    """Refuse value unless it is an instance of the record class cls (or
    of a subclass)."""
    if not isinstance(value, cls):
        raise DomainError(f"{name} must be a {cls.__name__}, got {value!r}")


def domain_error(name: str, value) -> DomainError:
    """The error for a pipeline parameter outside its PARAMS interval."""
    return DomainError(f"{name} must lie in {PARAMS[name].interval}, "
                       f"got {float(value)}")


def parameter(name: str, value) -> float:
    """value, one real number in the domain of parameter name, as a float."""
    return parameters(name, value if type(value) is float
                      else real(name, value))


def parameters(name: str, values):
    """A batch (`reals`) of values of the pipeline parameter name inside
    its domain, as a float array; a float is returned as it is."""
    if isinstance(values, float):
        if not _in_unit_interval(values, PARAMS[name].open_end):
            raise domain_error(name, values)
        return values
    array = reals(name, values)
    inside = _in_unit_interval(array, PARAMS[name].open_end)
    if not inside.all():
        raise domain_error(name, array[~inside].flat[0])
    return array


def inside_domains(rows: np.ndarray) -> np.ndarray:
    """Elementwise domain membership of a batch of float parameter rows,
    shape (4,) or (4, n), in PARAMS order."""
    return _in_unit_interval(rows.T, _OPEN_ENDS).T


def integer(name: str, value, least: int) -> int:
    """value, an integer (not a bool) from least to INDEX_MAX, as an int."""
    if not (type(value) is int or isinstance(value, numbers.Integral)
            and not isinstance(value, bool)) or value < least:
        raise DomainError(f"{name} must be an integer >= {least}, "
                          f"got {value!r}")
    if value > INDEX_MAX:
        raise DomainError(f"{name} must not exceed {INDEX_MAX}")
    return int(value)


def positive(name: str, value) -> float:
    """value, one finite positive real number, as a float."""
    value = real(name, value)
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be a finite positive number, "
                          f"got {value!r}")
    return value


def angles(values, count: int = 4) -> tuple[float, ...]:
    """count finite angles as floats, the CHSH angles or with count 2 a
    pair (theta, phi); an array of count real numbers is its values."""
    try:
        given = len(values)
    except TypeError:
        given = None
    if given != count:
        names = ("(theta1, theta2, phi1, phi2)" if count == 4
                 else "(theta, phi)")
        raise DomainError(f"angles must be {names}")
    if not all(map(_is_real, values)):
        raise DomainError(f"angles must be real numbers, got {values!r}")
    floats = tuple(real("angles", angle) for angle in values)
    if not all(map(math.isfinite, floats)):
        raise DomainError(f"angles must be finite, got {floats}")
    return floats


def reals(name: str, values) -> np.ndarray:
    """A batch of real numbers as a float array of its shape: NaN and inf
    pass, and the first value that `real` refuses is named."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind in "iuf":
            return values.astype(float, copy=False)
    else:
        values = np.array(values, dtype=object)
    return np.array([real(name, value) for value in values.flat],
                    dtype=float).reshape(values.shape)


def vector(name: str, values) -> np.ndarray:
    """A batch of real numbers (`reals`) along one axis."""
    array = reals(name, values)
    if array.ndim != 1:
        raise DomainError(f"{name} must form a vector, got shape "
                          f"{array.shape}")
    return array


def coordinates(name: str, values) -> np.ndarray:
    """A batch of finite real numbers (`reals`), phase-space coordinates."""
    array = reals(name, values)
    if not np.isfinite(array).all():
        raise DomainError(f"{name} must be finite, got "
                          f"{array[~np.isfinite(array)].flat[0]}")
    return array


def points(name: str, values) -> np.ndarray:
    """A batch of phase-space points (`coordinates`), shape (..., 4) in
    the order (x_A, p_A, x_B, p_B)."""
    array = coordinates(name, values)
    if array.shape[-1:] != (4,):
        raise DomainError(f"{name} must have 4 components")
    return array
