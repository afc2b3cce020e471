"""Covariance of the four-mode photon-subtraction source, as its x-block.

Conventions used throughout the package:

* vacuum covariance = identity (so a quadrature variance of 1/2 shows up
  as a covariance entry of 1),
* mode order (A, B, C, D): modes A and B carry the entangled beams to the
  homodyne stations, C and D are the tap ancillas watched by the click
  detectors.

In every state of the pipeline x and p decouple and the p-block is D X D
with D = diag(1, -1, 1, -1), so the package represents a state by its 4x4
x-quadrature covariance X of (x_A, x_B, x_C, x_D).  X is symmetric and
invariant under the joint swap of A with B and C with D, so it has six
distinct entries (aa, ab, ac, ad, cc, cd): `x_entries` gives them for
arrays of parameters, `x_block_of_entries` lays them out, and `x_block`
checks the parameters and does both.  Each parameter's domain is the unit
interval with one end left out (`PARAMS`); `inside_domains` checks one
row of parameters, shape (4,), or a (4, n) stack of rows in one pass.  `from_x_block` and
`output_covariance` restore the full covariance with quadratures ordered
(x_A, p_A, x_B, p_B, x_C, p_C, x_D, p_D).
"""

from __future__ import annotations

import numbers
from typing import NamedTuple

import numpy as np

from .errors import DomainError


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


def _in_unit_interval(values, open_end):
    """Elementwise membership of values in the unit interval without
    open_end; open_end broadcasts against values."""
    return (0.0 <= values) & (values <= 1.0) & (values != open_end)


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


def domain_error(name: str, value) -> DomainError:
    """The error for a pipeline parameter outside its PARAMS interval."""
    return DomainError(f"{name} must lie in {PARAMS[name].interval}, "
                       f"got {float(value)}")


def inside_domains(rows: np.ndarray) -> np.ndarray:
    """Elementwise domain membership of the parameters of one row, shape
    (4,), or of a (4, n) stack of rows, in PARAMS order."""
    return _in_unit_interval(rows.T, _OPEN_ENDS).T


def check_domain(name: str, values) -> None:
    """Raise DomainError, naming the parameter, unless values are real
    numbers, not bools (`domain_error` for the first outside name's
    domain).  A float, np.float64 included, is compared as it is; every
    other input goes through numpy."""
    if isinstance(values, float):
        if not _in_unit_interval(values, PARAMS[name].open_end):
            raise domain_error(name, values)
        return
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be a real number, got {values!r}")
    inside = _in_unit_interval(array, PARAMS[name].open_end)
    if not np.all(inside):
        raise domain_error(name, array[~inside].flat[0])


def real_number(name: str, value):
    """value, if it is one real number; else DomainError, naming the
    parameter.  A bool is not a number here, though Python counts it as
    one; nor is a numpy bool, a str, complex, None or an array.  A float,
    np.float64 included, passes without the `numbers.Real` check, which
    costs about 0.4 us for a float."""
    if not isinstance(value, float) and (
            not isinstance(value, numbers.Real) or isinstance(value, bool)):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    return value


def check_parameter(name: str, value) -> float:
    """value as a float, if it is one real number (`real_number`) inside
    name's domain; else DomainError, naming the parameter."""
    check_domain(name, real_number(name, value))
    return float(value)


def phase_space_points(points) -> np.ndarray:
    """points, shape (..., 4) in the order (x_A, p_A, x_B, p_B), as a float
    array; DomainError unless they are real numbers (an array of str,
    bool, complex or objects is refused) with 4 components."""
    array = np.asarray(points)
    if array.dtype.kind not in "iuf":
        raise DomainError("phase-space points must be real numbers, got "
                          f"dtype {array.dtype}")
    if array.shape[-1:] != (4,):
        raise DomainError("phase-space points must have 4 components")
    return array.astype(float, copy=False)


def check_integer(name: str, value, least: int) -> None:
    """DomainError naming the field unless value is an integer >= least;
    a bool is not."""
    if not (isinstance(value, numbers.Integral)
            and not isinstance(value, bool) and value >= least):
        raise DomainError(f"{name} must be an integer >= {least}, "
                          f"got {value!r}")


def x_block(squeezing, transmittance, apd_efficiency, homodyne_efficiency
            ) -> np.ndarray:
    """x-quadrature covariance (x_A, x_B, x_C, x_D) of the source pipeline.

    Squeezer, both tap beam splitters and detector loss in closed form.
    The arguments broadcast against each other and the result has shape
    (..., 4, 4), one block per parameter row; `check_domain` checks each.
    """
    args = (squeezing, transmittance, apd_efficiency, homodyne_efficiency)
    for name, value in zip(PARAMS, args):
        check_domain(name, value)
    return x_block_of_entries(x_entries(*np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in args))))


def x_entries(lam, trans, eta, eta_h) -> np.ndarray:
    """The entries (aa, ab, ac, ad, cc, cd) of `x_block`, stacked on a new
    leading axis, of float arrays of one shape inside their domains
    (unchecked)."""
    r2 = 2.0 * np.arctanh(lam)
    ch, sh = np.cosh(r2), np.sinh(r2)
    t, rfl = np.sqrt(trans), np.sqrt(1.0 - trans)
    tt, rr = t * t, rfl * rfl
    gtr = np.sqrt(eta_h * eta) * t * rfl
    # products run left to right as written: eta_h * t * t rounds
    # differently from eta_h * tt
    return np.array([eta_h * (tt * ch + rr) + (1.0 - eta_h),   # aa
                     eta_h * t * t * sh,                        # ab
                     gtr * (1.0 - ch),                          # ac
                     -gtr * sh,                                 # ad
                     eta * (rr * ch + tt) + (1.0 - eta),        # cc
                     eta * rfl * rfl * sh])                     # cd


#: place of each of the 16 entries of X among its six distinct ones
#: (aa, ab, ac, ad, cc, cd)
_LAYOUT = np.array([0, 1, 2, 3, 1, 0, 3, 2, 2, 3, 4, 5, 3, 2, 5, 4])


def x_block_of_entries(entries) -> np.ndarray:
    """X, shape (..., 4, 4), of its entries, shape (6, ...)."""
    entries = np.asarray(entries, dtype=float)
    return entries.reshape(6, -1)[_LAYOUT].T.reshape(entries.shape[1:]
                                                     + (4, 4))


def from_x_block(x: np.ndarray) -> np.ndarray:
    """Full covariance, quadratures interleaved (x_1, p_1, x_2, p_2, ...),
    of a state whose x and p decouple with p-block D x D.

    D = diag(1, -1, 1, -1, ...) flips the sign of every second mode, the
    structure of every covariance in this pipeline.  x has shape
    (..., n, n); the result has shape (..., 2n, 2n).
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    signs = (-1.0) ** np.arange(n)
    out = np.zeros(x.shape[:-2] + (2 * n, 2 * n))
    out[..., 0::2, 0::2] = x
    out[..., 1::2, 1::2] = signs[:, None] * x * signs[None, :]
    return out


def output_covariance(squeezing: float, transmittance: float,
                      apd_efficiency: float,
                      homodyne_efficiency: float) -> np.ndarray:
    """Full source pipeline: squeezer, both tap beam splitters, detector loss.

    The 8x8 covariance, quadratures ordered (x_A, p_A, ..., x_D, p_D),
    restored from `x_block`.
    """
    return from_x_block(x_block(squeezing, transmittance, apd_efficiency,
                                homodyne_efficiency))


def squeezing_to_db(squeezing: float) -> float:
    """Squeezing strength in dB: -10 log10(e^{-2r}) with r = atanh(lambda);
    DomainError unless lambda is one real number in [0, 1)."""
    squeezing = check_parameter("squeezing", squeezing)
    r = np.arctanh(squeezing)
    return float(-10.0 * np.log10(np.exp(-2.0 * r)))


def db_to_squeezing(db: float) -> float:
    """Inverse of squeezing_to_db; DomainError unless db is one finite,
    non-negative real number that is not a bool, and where lambda rounds
    to 1 (from about 165 dB)."""
    if not (isinstance(db, numbers.Real) and not isinstance(db, bool)
            and 0.0 <= db < np.inf):
        raise DomainError(
            f"squeezing in dB must be finite and non-negative, got {db}")
    squeezing = float(np.tanh(db * np.log(10.0) / 20.0))
    check_domain("squeezing", squeezing)
    return squeezing
