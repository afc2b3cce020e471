"""8x8 symplectic reference for `gaussian.x_block`: the step-by-step
source (squeezer, vacuum ancillas, beam splitters, loss channels) on the
full covariance, quadratures ordered (x_A, p_A, x_B, p_B, x_C, p_C, x_D,
p_D), with the symplectic spectrum and a guarded Cholesky inverse.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from cvbell.conditioning import spd_error
from cvbell.errors import DomainError
from cvbell.inputs import parameters

MODES = ("A", "B", "C", "D")
BS_PAIRS = (("A", "C"), ("B", "D"))

#: quadrature indices of the homodyne modes (A, B)
HOMODYNE_SLICE = slice(0, 4)

SYMMETRY_TOL = 1e-12


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


def spd_inverse(mat: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix via Cholesky.

    Refuses matrices that `conditioning.spd_error` refuses, so precision
    loss surfaces as an error instead of garbage output.
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
    parameters("squeezing", squeezing)
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
    parameters("transmittance", transmittance)
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
    parameters("homodyne_efficiency", homodyne_efficiency)
    parameters("apd_efficiency", apd_efficiency)
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


def component_covariance(lam, t, eta, eta_bhd, flip_taps=False):
    """8x8 output covariance composed from the single-step constructors;
    flip_taps negates the reflected arm of both tap beam splitters."""
    cov = embed_with_vacuum_ancillas(tmsv_covariance(lam))
    s = beamsplitter_symplectic(t, ("A", "C")) \
        @ beamsplitter_symplectic(t, ("B", "D"))
    if flip_taps:
        flip = np.diag([1.0] * 4 + [-1.0] * 4)
        s = flip @ s @ flip
    return apply_channel(apply_symplectic(cov, s),
                         detector_loss_channel(eta_bhd, eta))
