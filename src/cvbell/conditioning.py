"""Conditional two-mode state heralded by a double click.

Projecting both tap detectors onto "at least one photon" turns the
Gaussian four-mode output state into a signed mixture of four Gaussians
on the homodyne modes: the inclusion-exclusion expansion of the two
click projectors contributes one term per vacuum-kernel combination,
with integer weights (1, -2, -2, 4).

The conditioning runs on the 4x4 x-quadrature covariance
X = (x_A, x_B, x_C, x_D) of `gaussian.x_block`, the package's
representation of the source.  The p-part of every matrix involved is
the D-flip of its x-part, D = diag(1, -1, 1, -1), with the same spectrum
and determinant: each 8x8 or 4x4 determinant is the square of its
x-part's, and each positive-definiteness or condition check on it is the
same check on the x-part.  `heralded_terms` conditions a stack of
x-blocks in one array call and returns, per row, the heralding
probability P and four (w_j, Sigma_j) terms, Sigma_j the (x_A, x_B)
covariance of term j, which fix the correlators, the Wigner function and
the Monte Carlo marginals; `conditional_state` reads one row as a
`SignedGaussianMixture`.  A call makes the same numpy calls whatever the
number of rows, refusals aside, so its cost grows slowly with them;
`bell` batches its rows for that reason.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gaussian
from .errors import (CVBellError, DomainError, InvalidRegimeError,
                     SingularMatrixError)

#: largest eigenvalue condition number of a matrix the conditioning uses
CONDITION_LIMIT = 1e12

#: inclusion-exclusion weights of (no kernel, C vacuum, D vacuum, CD vacuum)
CLICK_WEIGHTS = (1, -2, -2, 4)

#: detector modes (C, D) each term projects onto vacuum, one row per term,
#: and the diagonal 0/1 projectors onto them, shape (4, 2, 2)
_VACUUM = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
_PROJECTORS = _VACUUM[:, :, None] * _VACUUM[:, None, :]
_CLICK_WEIGHTS = np.array(CLICK_WEIGHTS, dtype=float)
_EYE2, _EYE4 = np.eye(2), np.eye(4)

#: heralding probabilities smaller than this are numerically zero
MIN_SUCCESS_PROB = 64 * np.finfo(float).eps

#: largest entry of an x-p cross block, asymmetry or p-block mismatch that
#: an input covariance may carry
STRUCTURE_TOL = 1e-10


def quadratic_moments(x, y) -> np.ndarray:
    """(x^2, xy, y^2) of broadcast quadrature values, stacked on a new
    leading axis of length 3: the points at which `_term_densities`
    evaluates."""
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    moments = np.empty((3,) + x.shape)
    np.multiply(x, x, out=moments[0])
    np.multiply(x, y, out=moments[1])
    np.multiply(y, y, out=moments[2])
    return moments


def _term_densities(weights: np.ndarray, covs: np.ndarray,
                    moments: np.ndarray) -> np.ndarray:
    """weights[j] times the zero-mean bivariate normal density of 2x2
    covariance covs[j], at the points of `quadratic_moments` moments;
    shape (len(weights),) + the points' shape.

    The exponent of term j, -(c11 x^2 - 2 c01 xy + c00 y^2) / (2 det), is
    row j of one (terms, 3) by (3, points) product.
    """
    det = _det2(covs)
    coeffs = np.stack([-0.5 * covs[:, 1, 1], covs[:, 0, 1],
                       -0.5 * covs[:, 0, 0]], axis=-1) / det[:, None]
    scale = weights / (2.0 * np.pi * np.sqrt(det))
    values = np.tensordot(coeffs, moments, axes=1)
    np.exp(values, out=values)
    values *= scale.reshape((-1,) + (1,) * (moments.ndim - 1))
    return values


def correlation_coefficients(cov: np.ndarray) -> np.ndarray:
    """Correlation coefficient of each of a stack of 2x2 covariances."""
    return cov[..., 0, 1] / np.sqrt(cov[..., 0, 0] * cov[..., 1, 1])


@dataclass(frozen=True)
class BivariateMixture:
    """Signed mixture of zero-mean bivariate Gaussians; weights sum to 1."""

    weights: np.ndarray        # shape (4,)
    covariances: np.ndarray    # shape (4, 2, 2)

    def density(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Joint density on a broadcastable grid of quadrature values."""
        return _term_densities(self.weights, self.covariances,
                               quadratic_moments(x, y)).sum(axis=0)


@dataclass(frozen=True, kw_only=True)
class SignedGaussianMixture(BivariateMixture):
    """The heralded two-mode state, one row of `HeraldedTerms`; `density`
    is its (x_A, x_B) marginal."""

    success_prob: float


@dataclass(frozen=True)
class HeraldedTerms:
    """Heralded state of every row of a stack of x-blocks.

    Term j of row i is a normalized Gaussian of signed mass weights[i, j];
    covariances[i, j] is its covariance of (x_A, x_B), and its (p_A, p_B)
    covariance is the same with the off-diagonal negated.  A row that
    fails a check holds its refusal in `errors` and NaN in every array.
    """

    success_prob: np.ndarray        # (n,)
    weights: np.ndarray             # (n, 4), rows sum to 1
    covariances: np.ndarray         # (n, 4, 2, 2)
    errors: tuple[CVBellError | None, ...]

    @property
    def correlations(self) -> np.ndarray:
        """Correlation coefficient c_j of (x_A, x_B) per term, shape (n, 4).

        Measured at phases theta on A and phi on B, term j has correlation
        c_j cos(theta + phi).
        """
        return correlation_coefficients(self.covariances)

    @property
    def cancellation(self) -> np.ndarray:
        """Sum of |w_j| per row: the error amplification of the signed sum."""
        return np.abs(self.weights).sum(axis=-1)


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


def _refusal(symmetric, success, lowest, highest) -> CVBellError:
    """Error of a refused row of `heralded_terms`: its first failing check,
    in the order symmetry, X, P, Sigma_j.  lowest and highest are the
    extreme eigenvalues of X, Sigma_0, ..., Sigma_3."""
    if not symmetric:
        return DomainError("matrix is not symmetric")
    if error := spd_error(lowest[0], highest[0]):
        return error
    if not MIN_SUCCESS_PROB <= success < np.inf:
        return InvalidRegimeError(
            f"invalid-regime: heralding probability {success:.3e} is not "
            "usable; the input state cannot trigger both detectors")
    return next(filter(None, map(spd_error, lowest[1:], highest[1:])))


def _det2(m: np.ndarray) -> np.ndarray:
    """Determinants of a stack of 2x2 matrices."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


#: gather indices and signs of the adjugate [[m11, -m01], [-m10, m00]]
_ADJ_ROWS, _ADJ_COLS = np.array([[1, 0], [1, 0]]), np.array([[1, 1], [0, 0]])
_ADJ_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _inv2(m: np.ndarray, det: np.ndarray) -> np.ndarray:
    """Inverses of a stack of 2x2 matrices of determinants det (adjugate
    over determinant)."""
    return m[..., _ADJ_ROWS, _ADJ_COLS] * _ADJ_SIGNS / det[..., None, None]


def _eig2(m: np.ndarray):
    """Lowest and highest eigenvalues of a stack of symmetric 2x2 matrices."""
    mean = 0.5 * (m[..., 0, 0] + m[..., 1, 1])
    radius = np.hypot(0.5 * (m[..., 0, 0] - m[..., 1, 1]), m[..., 0, 1])
    return mean - radius, mean + radius


def _symmetrized(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.swapaxes(-1, -2))


def heralded_terms(x_blocks: np.ndarray) -> HeraldedTerms:
    """Condition a stack of x-blocks X, shape (n, 4, 4), on a double click.

    Term j projects the detector modes S_j (none, C, D, both) onto vacuum.
    With A_j = I + X_SS, its (x_A, x_B) covariance is
    Sigma_j = (X_AB,AB - X_AB,S A_j^-1 X_S,AB) / 2 and its unnormalized
    mass is q_j / det A_j, so P = sum_j q_j / det A_j.  This is the
    inverse-form conditioning (precision (2 Sigma_j)^-1 = Gamma_AB -
    Gamma_AB,CD B_j^-1 Gamma_CD,AB with Gamma = X^-1 and augmented detector
    block B_j = Gamma_CD + K_j) rewritten by the Woodbury identity and the
    matrix determinant lemma, det B_j det X = det A_j det 2 Sigma_j, so X
    is never inverted and the B_j, positive definite with X, are never
    formed.  A row is refused, with the error of the first of
    these checks that it fails, in this order:

    * X is symmetric (DomainError);
    * X is positive definite with an eigenvalue condition number at most
      CONDITION_LIMIT (SingularMatrixError);
    * P is finite and at least MIN_SUCCESS_PROB (InvalidRegimeError);
    * every Sigma_j passes the check on X (SingularMatrixError, for the
      first term that fails).  A positive definite Sigma_j makes every
      rotated marginal of the term proper.

    A refused row holds NaN in every output array, so a caller may refuse
    a row of its own by setting its x-block to NaN.  Each det A_j is
    formed once, for the mass and the inverse; the refusals are built and
    the NaN written only when some row fails.
    """
    x = np.asarray(x_blocks, dtype=float)
    if x.ndim != 3 or x.shape[1:] != (4, 4):
        raise DomainError(
            f"expected a stack of 4x4 x-blocks, got shape {x.shape}")
    with np.errstate(all="ignore"):
        symmetric = (np.abs(x - x.swapaxes(1, 2))
                     <= STRUCTURE_TOL).all(axis=(1, 2))
        # an asymmetric (or NaN) row runs on the identity and stays refused
        x = np.where(symmetric[:, None, None], _symmetrized(x), _EYE4)
        # extreme eigenvalues of X, Sigma_0, ..., Sigma_3, one row per block
        lowest, highest = np.empty((2, len(x), 5))
        eigs = np.linalg.eigvalsh(x)
        lowest[:, 0], highest[:, 0] = eigs[:, 0], eigs[:, -1]
        homodyne, cross, detector = x[:, :2, :2], x[:, :2, 2:], x[:, 2:, 2:]
        a = _EYE2 + detector[:, None] * _PROJECTORS
        det_a = _det2(a)
        masses = _CLICK_WEIGHTS / det_a
        success = masses.sum(axis=-1)
        coupling = cross[:, None] * _VACUUM[:, None, :]
        covariances = 0.5 * _symmetrized(
            homodyne[:, None]
            - coupling @ _inv2(a, det_a) @ coupling.swapaxes(2, 3))
        weights = masses / success[:, None]

        lowest[:, 1:], highest[:, 1:] = _eig2(covariances)
        usable = (lowest > 0.0) & (highest / lowest <= CONDITION_LIMIT)
        failed = ~(symmetric & usable.all(axis=1)
                   & (success >= MIN_SUCCESS_PROB) & (success < np.inf))
    errors: list[CVBellError | None] = [None] * len(x)
    if failed.any():
        for i in np.flatnonzero(failed):
            errors[i] = _refusal(symmetric[i], success[i], lowest[i],
                                 highest[i])
        for values in (success, weights, covariances):
            values[failed] = np.nan
    return HeraldedTerms(success_prob=success, weights=weights,
                         covariances=covariances, errors=tuple(errors))


def conditional_state(cov_out: np.ndarray) -> SignedGaussianMixture:
    """Signed four-Gaussian mixture of the double-click conditional state.

    cov_out is the 8x8 output covariance; it must have a zero x-p cross
    block and p-block D x D (DomainError otherwise).  Raises the refusal
    of `heralded_terms`, e.g. InvalidRegimeError when the heralding
    probability is zero or numerically indistinguishable from zero
    (vacuum input).
    """
    cov = np.asarray(cov_out, dtype=float)
    if cov.shape != (8, 8):
        raise DomainError(f"expected an 8x8 covariance, got shape {cov.shape}")
    x = cov[0::2, 0::2]
    if not np.all(np.abs(cov - gaussian.from_x_block(x)) <= STRUCTURE_TOL):
        raise DomainError("covariance must have a zero x-p cross block "
                          "and p-block D x D, D = diag(1, -1, 1, -1)")
    terms = heralded_terms(x[None])
    if terms.errors[0] is not None:
        raise terms.errors[0]
    return SignedGaussianMixture(weights=terms.weights[0],
                                 covariances=terms.covariances[0],
                                 success_prob=float(terms.success_prob[0]))


def wigner_value(state: SignedGaussianMixture, points: np.ndarray) -> np.ndarray:
    """Evaluate W at phase-space points (x_A, p_A, x_B, p_B), shape (..., 4).

    W = sum_j w_j g_j(x_A, x_B) g_j(p_A, -p_B), with g_j the zero-mean
    bivariate normal density of covariance Sigma_j: the p-part of term j
    is Sigma_j with its off-diagonal negated.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != 4:
        raise DomainError("phase-space points must have 4 components")
    x_a, p_a, x_b, p_b = np.moveaxis(pts, -1, 0)
    covs = state.covariances
    return (_term_densities(state.weights, covs, quadratic_moments(x_a, x_b))
            * _term_densities(np.ones(len(covs)), covs,
                              quadratic_moments(p_a, -p_b))).sum(axis=0)


def wigner_cut(state: SignedGaussianMixture, direction: np.ndarray,
               offsets: np.ndarray) -> np.ndarray:
    """W along the line r = offset * direction; returns rows (offset, W).

    `direction` must be a unit 4-vector in (x_A, p_A, x_B, p_B) order.
    """
    direction = np.asarray(direction, dtype=float)
    if direction.shape != (4,):
        raise DomainError("direction must be a 4-vector")
    if abs(np.linalg.norm(direction) - 1.0) > 1e-9:
        raise DomainError("direction must be normalized")
    offsets = np.asarray(offsets, dtype=float)
    values = wigner_value(state, offsets[:, None] * direction[None, :])
    return np.column_stack([offsets, values])
