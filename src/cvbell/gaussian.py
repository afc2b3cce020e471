"""Covariance-matrix algebra for the four-mode photon-subtraction pipeline.

Conventions used throughout the package:

* vacuum covariance = identity (so a quadrature variance of 1/2 shows up
  as a covariance entry of 1),
* mode order (A, B, C, D) with x before p per mode, i.e. the quadrature
  vector is (x_A, p_A, x_B, p_B, x_C, p_C, x_D, p_D),
* modes A and B carry the entangled beams to the homodyne stations, C and
  D are the tap ancillas watched by the click detectors.

All functions are pure and return fresh arrays; covariance matrices are
plain float ndarrays.  In every state of the pipeline x and p decouple and
the p-block is D x D with D = diag(1, -1, 1, -1), so `x_block` builds just
the 4x4 x-quadrature covariance (x_A, x_B, x_C, x_D), for whole arrays of
parameters at once, and `from_x_block` restores the full matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import DomainError, SingularMatrixError

MODES = ("A", "B", "C", "D")
BS_PAIRS = (("A", "C"), ("B", "D"))

#: quadrature indices of the homodyne modes (A, B)
HOMODYNE_SLICE = slice(0, 4)

SYMMETRY_TOL = 1e-12
CONDITION_LIMIT = 1e12


#: pipeline parameter -> (interval text, elementwise membership test)
PARAM_DOMAINS = {
    "squeezing": ("[0, 1)", lambda v: (0.0 <= v) & (v < 1.0)),
    "transmittance": ("(0, 1]", lambda v: (0.0 < v) & (v <= 1.0)),
    "apd_efficiency": ("(0, 1]", lambda v: (0.0 < v) & (v <= 1.0)),
    "homodyne_efficiency": ("(0, 1]", lambda v: (0.0 < v) & (v <= 1.0)),
}


def domain_error(name: str, value) -> DomainError:
    """The error for a pipeline parameter outside its PARAM_DOMAINS interval."""
    return DomainError(f"{name} must lie in {PARAM_DOMAINS[name][0]}, "
                       f"got {float(value)}")


def check_domain(name: str, values) -> None:
    """Raise `domain_error` for the first of values outside name's domain."""
    values = np.asarray(values, dtype=float)
    inside = PARAM_DOMAINS[name][1](values)
    if not np.all(inside):
        raise domain_error(name, values[~inside].flat[0])


def mode_indices(mode: str) -> tuple[int, int]:
    """(x, p) indices of a mode label within the 8-dimensional ordering."""
    try:
        k = MODES.index(mode)
    except ValueError:
        raise DomainError(f"unknown mode {mode!r}, expected one of {MODES}")
    return 2 * k, 2 * k + 1


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form, one [[0,1],[-1,0]] block per mode."""
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def is_symmetric(mat: np.ndarray, tol: float = SYMMETRY_TOL) -> bool:
    return bool(np.all(np.abs(mat - mat.T) <= tol))


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix (>= 1 for physical states).

    Eigenvalues of i*Omega*cov come in pairs +/- nu; the pairs are averaged
    to suppress roundoff asymmetry.
    """
    n = cov.shape[0] // 2
    ev = np.linalg.eigvals(symplectic_form(n) @ cov)
    mags = np.sort(np.abs(ev.imag))
    return mags.reshape(n, 2).mean(axis=1)


def spd_error(lowest, highest) -> SingularMatrixError | None:
    """Refusal of a symmetric matrix with extreme eigenvalues (lowest,
    highest): not positive definite, or eigenvalue condition number above
    CONDITION_LIMIT.  None when the matrix is usable."""
    if not lowest > 0.0:
        return SingularMatrixError("matrix is not positive definite",
                                   condition_estimate=float("inf"))
    cond = highest / lowest
    if not cond <= CONDITION_LIMIT:
        return SingularMatrixError("matrix too ill-conditioned to invert",
                                   condition_estimate=float(cond))
    return None


def spd_refused(lowest: np.ndarray, highest: np.ndarray) -> np.ndarray:
    """Elementwise form of `spd_error`: True where it refuses."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return ~((lowest > 0.0) & (highest / lowest <= CONDITION_LIMIT))


def spd_inverse(mat: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix via Cholesky.

    Refuses matrices that `spd_error` refuses, so precision loss surfaces
    as an error instead of garbage output.
    """
    if not is_symmetric(mat, tol=1e-10):
        raise DomainError("matrix is not symmetric")
    eigs = np.linalg.eigvalsh(mat)
    error = spd_error(eigs[0], eigs[-1])
    if error is not None:
        raise error
    factor = cho_factor(mat, lower=True)
    inv = cho_solve(factor, np.eye(mat.shape[0]))
    return 0.5 * (inv + inv.T)


def tmsv_covariance(squeezing: float) -> np.ndarray:
    """Covariance matrix of a two-mode squeezed vacuum (modes A, B).

    `squeezing` is tanh of the squeeze parameter, in [0, 1).  Diagonal
    blocks are cosh(2r) I, off-diagonal blocks sinh(2r) diag(1, -1).
    """
    check_domain("squeezing", squeezing)
    r = np.arctanh(squeezing)
    ch, sh = np.cosh(2.0 * r), np.sinh(2.0 * r)
    z = np.diag([1.0, -1.0])
    cov = np.zeros((4, 4))
    cov[:2, :2] = ch * np.eye(2)
    cov[2:, 2:] = ch * np.eye(2)
    cov[:2, 2:] = sh * z
    cov[2:, :2] = sh * z
    return cov


def embed_with_vacuum_ancillas(cov_ab: np.ndarray) -> np.ndarray:
    """Direct sum of a two-mode covariance with vacuum ancillas C and D."""
    cov_ab = np.asarray(cov_ab, dtype=float)
    if cov_ab.shape != (4, 4):
        raise DomainError(f"expected a 4x4 covariance, got shape {cov_ab.shape}")
    if not is_symmetric(cov_ab, tol=1e-10):
        raise DomainError("input covariance is not symmetric")
    out = np.eye(8)
    out[HOMODYNE_SLICE, HOMODYNE_SLICE] = cov_ab
    return out


def beamsplitter_symplectic(transmittance: float,
                            pair: tuple[str, str] = ("A", "C")) -> np.ndarray:
    """8x8 symplectic of a beam splitter coupling one signal/ancilla pair.

    Acts as x' = sqrt(T) x + sqrt(1-T) x_anc on the signal and
    x_anc' = -sqrt(1-T) x + sqrt(T) x_anc on the ancilla (same for p);
    identity on the other modes.  The overall sign of the reflected arm is
    a phase convention; final observables are insensitive to it.
    """
    check_domain("transmittance", transmittance)
    if tuple(pair) not in BS_PAIRS:
        raise DomainError(f"pair must be one of {BS_PAIRS}, got {pair}")
    t = np.sqrt(transmittance)
    rfl = np.sqrt(1.0 - transmittance)
    s = np.eye(8)
    (xs, ps), (xa, pa) = mode_indices(pair[0]), mode_indices(pair[1])
    for sig, anc in ((xs, xa), (ps, pa)):
        s[sig, sig] = t
        s[sig, anc] = rfl
        s[anc, sig] = -rfl
        s[anc, anc] = t
    return s


@dataclass(frozen=True)
class GaussianChannel:
    """Deterministic Gaussian map cov -> X cov X^T + G."""

    linear_part: np.ndarray
    noise_part: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.linear_part, dtype=float)
        g = np.asarray(self.noise_part, dtype=float)
        if x.shape != g.shape or x.ndim != 2 or x.shape[0] != x.shape[1]:
            raise DomainError("channel matrices must be square and same shape")
        if not is_symmetric(g, tol=1e-10):
            raise DomainError("noise part must be symmetric")
        if np.linalg.eigvalsh(g)[0] < -1e-12:
            raise DomainError("noise part must be positive semidefinite")
        object.__setattr__(self, "linear_part", x)
        object.__setattr__(self, "noise_part", g)


def detector_loss_channel(homodyne_efficiency: float,
                          apd_efficiency: float) -> GaussianChannel:
    """Loss channel for the four detectors.

    Modes A, B see the homodyne efficiency, modes C, D the click-detector
    efficiency.  Zero efficiency is rejected: it makes heralding (or the
    homodyne readout) impossible.
    """
    check_domain("homodyne_efficiency", homodyne_efficiency)
    check_domain("apd_efficiency", apd_efficiency)
    scale = np.array([homodyne_efficiency] * 4 + [apd_efficiency] * 4)
    return GaussianChannel(linear_part=np.diag(np.sqrt(scale)),
                           noise_part=np.diag(1.0 - scale))


def apply_symplectic(cov: np.ndarray, s: np.ndarray) -> np.ndarray:
    """cov -> S cov S^T, symmetrized against roundoff."""
    cov = np.asarray(cov, dtype=float)
    if cov.shape[0] != s.shape[1]:
        raise DomainError("dimension mismatch between covariance and symplectic")
    out = s @ cov @ s.T
    return 0.5 * (out + out.T)


def apply_channel(cov: np.ndarray, channel: GaussianChannel) -> np.ndarray:
    """cov -> X cov X^T + G, symmetrized against roundoff."""
    cov = np.asarray(cov, dtype=float)
    x, g = channel.linear_part, channel.noise_part
    if cov.shape != x.shape:
        raise DomainError(
            f"dimension mismatch: covariance {cov.shape} vs channel {x.shape}")
    out = x @ cov @ x.T + g
    return 0.5 * (out + out.T)


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
    for name, val in zip(PARAM_DOMAINS, (lam, trans, eta, eta_h)):
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

    Built from `x_block`; it equals the composition of `tmsv_covariance`,
    `beamsplitter_symplectic` and `detector_loss_channel`.
    """
    return from_x_block(x_block(squeezing, transmittance, apd_efficiency,
                                homodyne_efficiency))


def squeezing_to_db(squeezing: float) -> float:
    """Squeezing strength in dB: -10 log10(e^{-2r}) with r = atanh(lambda)."""
    check_domain("squeezing", squeezing)
    r = np.arctanh(squeezing)
    return float(-10.0 * np.log10(np.exp(-2.0 * r)))


def db_to_squeezing(db: float) -> float:
    """Inverse of squeezing_to_db."""
    if db < 0.0:
        raise DomainError(f"squeezing in dB must be non-negative, got {db}")
    r = db * np.log(10.0) / 20.0
    return float(np.tanh(r))
