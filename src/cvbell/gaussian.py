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
checks the parameters (`inputs.parameters`) and does both.  `from_x_block`
and `output_covariance` restore the full covariance with quadratures ordered
(x_A, p_A, x_B, p_B, x_C, p_C, x_D, p_D).
"""

from __future__ import annotations

import numpy as np

from . import inputs
from .inputs import PARAMS


def x_block(squeezing, transmittance, apd_efficiency, homodyne_efficiency
            ) -> np.ndarray:
    """x-quadrature covariance (x_A, x_B, x_C, x_D) of the source pipeline.

    Squeezer, both tap beam splitters and detector loss in closed form.
    The arguments broadcast against each other and the result has shape
    (..., 4, 4), one block per parameter row: each argument is a batch of
    its parameter's values (`inputs.parameters`).
    """
    args = (squeezing, transmittance, apd_efficiency, homodyne_efficiency)
    return x_block_of_entries(x_entries(*np.broadcast_arrays(
        *(inputs.parameters(name, value)
          for name, value in zip(PARAMS, args)))))


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
    """Squeezing strength in dB: -10 log10(e^{-2r}) with r = atanh(lambda),
    lambda through `inputs.parameter` (an array is refused)."""
    squeezing = inputs.parameter("squeezing", squeezing)
    r = np.arctanh(squeezing)
    return float(-10.0 * np.log10(np.exp(-2.0 * r)))


def db_to_squeezing(db: float) -> float:
    """Inverse of squeezing_to_db: db is one real number (`inputs.real`)
    whose lambda lies in [0, 1), so a negative or NaN db is refused, and so
    is one from about 165 dB, where lambda rounds to 1."""
    db = inputs.real("squeezing in dB", db)
    return inputs.parameter("squeezing",
                            float(np.tanh(db * np.log(10.0) / 20.0)))
