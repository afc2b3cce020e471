"""Covariance of the four-mode photon-subtraction source, as its x-block.

Conventions used throughout the package:

* vacuum covariance = identity (so a quadrature variance of 1/2 shows up
  as a covariance entry of 1),
* mode order (A, B, C, D): modes A and B carry the entangled beams to the
  homodyne stations, C and D are the tap ancillas watched by the click
  detectors.

In every state of the pipeline x and p decouple and the p-block is D X D
with D = diag(1, -1, 1, -1), so the package represents a state by its 4x4
x-quadrature covariance X of (x_A, x_B, x_C, x_D).  `x_block` builds X in
closed form for whole arrays of parameters at once.  `from_x_block` and
`output_covariance` restore the full covariance with quadratures ordered
(x_A, p_A, x_B, p_B, x_C, p_C, x_D, p_D), the format that
`conditioning.conditional_state` takes.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError


class Param(NamedTuple):
    """A pipeline parameter's config key and domain, and whether a sweep
    may vary it."""

    key: str
    interval: str                                # domain, as error text
    inside: Callable[[np.ndarray], np.ndarray]   # elementwise membership
    sweep: bool


def _unit(v):
    return (0.0 < v) & (v <= 1.0)


#: ExperimentParams field -> Param, in config and x_block argument order
PARAMS = {
    "squeezing": Param("lambda", "[0, 1)", lambda v: (0.0 <= v) & (v < 1.0),
                       True),
    "transmittance": Param("T", "(0, 1]", _unit, False),
    "apd_efficiency": Param("eta", "(0, 1]", _unit, True),
    "homodyne_efficiency": Param("eta_bhd", "(0, 1]", _unit, True),
}

#: config key -> field name of each parameter a sweep may vary
SWEEP_KEYS = {p.key: name for name, p in PARAMS.items() if p.sweep}


def domain_error(name: str, value) -> DomainError:
    """The error for a pipeline parameter outside its PARAMS interval."""
    return DomainError(f"{name} must lie in {PARAMS[name].interval}, "
                       f"got {float(value)}")


def check_domain(name: str, values) -> None:
    """Raise `domain_error` for the first of values outside name's domain."""
    values = np.asarray(values, dtype=float)
    inside = PARAMS[name].inside(values)
    if not np.all(inside):
        raise domain_error(name, values[~inside].flat[0])


def x_block(squeezing, transmittance, apd_efficiency, homodyne_efficiency
            ) -> np.ndarray:
    """x-quadrature covariance (x_A, x_B, x_C, x_D) of the source pipeline.

    Squeezer, both tap beam splitters and detector loss in closed form.
    The arguments broadcast against each other and the result has shape
    (..., 4, 4), one block per parameter row.  Every entry must lie in its
    domain: squeezing in [0, 1), the rest in (0, 1].
    """
    lam, trans, eta, eta_h = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (squeezing, transmittance,
                                               apd_efficiency,
                                               homodyne_efficiency)))
    for name, val in zip(PARAMS, (lam, trans, eta, eta_h)):
        check_domain(name, val)
    r = np.arctanh(lam)
    ch, sh = np.cosh(2.0 * r), np.sinh(2.0 * r)
    t, rfl = np.sqrt(trans), np.sqrt(1.0 - trans)
    gain = np.sqrt(eta_h * eta)
    aa = eta_h * (t * t * ch + rfl * rfl) + (1.0 - eta_h)
    ab = eta_h * t * t * sh
    cc = eta * (rfl * rfl * ch + t * t) + (1.0 - eta)
    cd = eta * rfl * rfl * sh
    ac = gain * t * rfl * (1.0 - ch)
    ad = -gain * t * rfl * sh
    entries = (aa, ab, ac, ad, ab, aa, ad, ac,
               ac, ad, cc, cd, ad, ac, cd, cc)
    return np.stack(entries, axis=-1).reshape(lam.shape + (4, 4))


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
    """Squeezing strength in dB: -10 log10(e^{-2r}) with r = atanh(lambda)."""
    check_domain("squeezing", squeezing)
    r = np.arctanh(squeezing)
    return float(-10.0 * np.log10(np.exp(-2.0 * r)))


def db_to_squeezing(db: float) -> float:
    """Inverse of squeezing_to_db; DomainError where lambda rounds to 1
    (from about 165 dB)."""
    if not 0.0 <= db < np.inf:
        raise DomainError(
            f"squeezing in dB must be finite and non-negative, got {db}")
    squeezing = float(np.tanh(db * np.log(10.0) / 20.0))
    check_domain("squeezing", squeezing)
    return squeezing
