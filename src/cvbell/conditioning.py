"""Conditional two-mode state heralded by a double click.

Projecting both tap detectors onto "at least one photon" turns the
Gaussian four-mode output state into a signed mixture of four Gaussians
on the homodyne modes: the inclusion-exclusion expansion of the two
click projectors contributes one term per vacuum-kernel combination,
with integer weights (1, -2, -2, 4).

The conditioning runs on the 4x4 x-quadrature covariance X of
`gaussian.x_block`; the p-part of every matrix involved is the D-flip of
its x-part, D = diag(1, -1, 1, -1), so every check on it is the same
check on the x-part.  X is invariant under the joint swap of A with B and
C with D, so its six distinct entries (aa, ab, ac, ad, cc, cd) give each
term in a scalar closed form, and in the basis (x_A +- x_B, x_C +- x_D) /
sqrt 2 it splits into X+- = [[aa +- ab, ac +- ad], [ac +- ad, cc +- cd]].
`_condition` conditions the entries of one x-block, as float64 scalars,
or of a batch, as arrays, into P and four (w_j, Sigma_j) terms, Sigma_j
the (x_A, x_B) covariance of term j; `bell` runs it on parameter rows
with the P of `success_probability`, free of cancellation.  The package's
one record of the heralded state is `SignedGaussianMixture`:
`conditional_state` reads one 8x8 covariance as one, with P the sum of
the four masses, and `wigner_value` and `wigner_cut` evaluate its Wigner
function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gaussian, inputs
from .errors import (CVBellError, DomainError, InvalidRegimeError,
                     SingularMatrixError)

#: largest eigenvalue condition number of a matrix the conditioning uses
CONDITION_LIMIT = 1e12

#: inclusion-exclusion weights of (no kernel, C vacuum, D vacuum, CD vacuum)
CLICK_WEIGHTS = (1, -2, -2, 4)

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
    det = covs[:, 0, 0] * covs[:, 1, 1] - covs[:, 0, 1] * covs[:, 1, 0]
    coeffs = np.stack([-0.5 * covs[:, 1, 1], covs[:, 0, 1],
                       -0.5 * covs[:, 0, 0]], axis=-1) / det[:, None]
    scale = weights / (2.0 * np.pi * np.sqrt(det))
    values = np.tensordot(coeffs, moments, axes=1)
    np.exp(values, out=values)
    values *= scale.reshape((-1,) + (1,) * (moments.ndim - 1))
    return values


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
    """The heralded two-mode state: four normalized Gaussian terms of signed
    weights w_j and (x_A, x_B) covariances Sigma_j, whose (p_A, p_B)
    covariances have the off-diagonal negated, and the heralding
    probability P; `density` is its (x_A, x_B) marginal."""

    success_prob: float


def cancellation(weights):
    """Sum of |w_j| over the terms, on the leading axis of weights: the
    error amplification of the signed sum."""
    return np.abs(weights).sum(axis=0)


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


def _refusal(success, lowest, highest) -> CVBellError:
    """Error of a refused row of `_condition`: its first failing check, in the
    order X, P, Sigma_j, from the extreme eigenvalues lowest and highest
    of X, Sigma_0, ..., Sigma_3."""
    if error := spd_error(lowest[0], highest[0]):
        return error
    if not MIN_SUCCESS_PROB <= success < np.inf:
        return InvalidRegimeError(
            f"invalid-regime: heralding probability {success:.3e} is not "
            "usable; the input state cannot trigger both detectors")
    return next(filter(None, map(spd_error, lowest[1:], highest[1:])))


def _eig2(p, q, r):
    """Lowest and highest eigenvalues of the symmetric 2x2 matrices
    [[p, r], [r, q]], elementwise."""
    mean = 0.5 * (p + q)
    radius = np.hypot(0.5 * (p - q), r)
    return mean - radius, mean + radius


def success_probability(squeezing, transmittance, apd_efficiency):
    """Heralding probability of parameter arrays inside their domains
    (unchecked): with s = eta (1 - T) and omega = (1 - lambda)(1 + lambda),

        P = lambda^2 s^2 (1 + lambda^2 (1 - s))
            / ((omega + lambda^2 s)(omega + lambda^2 s (2 - s))),

    the sum over n of (1 - lambda^2) lambda^(2n) (1 - (1 - s)^n)^2.  Its
    factors are sums of positive terms, so it keeps its relative accuracy
    where the four signed masses cancel.
    """
    lam2 = squeezing * squeezing
    s = apd_efficiency * (1.0 - transmittance)
    omega = (1.0 - squeezing) * (1.0 + squeezing)
    lam2s = lam2 * s
    return (lam2s * s * (1.0 + lam2 * (1.0 - s))
            / ((omega + lam2s) * (omega + lam2s * (2.0 - s))))


def _condition(entries, success_prob=None):
    """Condition one x-block, given by its entries (aa, ab, ac, ad, cc, cd)
    in a float64 array of shape (6,), or n x-blocks, shape (6, n), on a
    double click; the same code runs on float64 scalars and on (n,)
    arrays, and a row's values are bitwise the same either way.  The
    values must be numpy floats: on Python floats a zero divisor raises
    ZeroDivisionError in place of a refusal.

    Term j projects the detector modes S_j (none, C, D, both) onto vacuum:
    Sigma_j = (X_AB,AB - X_AB,S A_j^-1 X_S,AB) / 2 with A_j = I + X_SS, of
    mass q_j / det A_j.  With k = 1 / (1 + cc): Sigma_0 = [[aa, ab], [ab,
    aa]] / 2, of mass 1; Sigma_C = [[aa - ac^2 k, ab - ac ad k], [., aa -
    ad^2 k]] / 2, of mass -2 k, and Sigma_D its mirror image; Sigma_CD has
    eigenvalues sigma+- / 2 on (1, +-1) / sqrt 2, sigma+- = (aa +- ab) -
    (ac +- ad)^2 / (1 + (cc +- cd)), so correlation (sigma+ - sigma-) /
    (sigma+ + sigma-), and mass 4 / ((1 + (cc + cd))(1 + (cc - cd))).

    P is success_prob (a float64 or (n,) values) when given, else the sum
    of the masses; the weights are the masses over P.  A row is refused
    with the error of its first failing check: X, from the eigenvalues of
    X+ and X-, is positive definite with an eigenvalue condition number at
    most CONDITION_LIMIT (SingularMatrixError); P is finite and at least
    MIN_SUCCESS_PROB (InvalidRegimeError); every Sigma_j passes the check
    on X (SingularMatrixError), so every rotated marginal is proper.  A
    caller refuses a row of its own with a NaN P.

    Returns P; the weights and correlations of the four terms, and the
    entries (p, q, r) of twice each Sigma_j = [[p, r], [r, q]] / 2, each
    with the terms on the leading axis, shape (4,) or (4, n); and the list
    of the rows' errors, one entry per row.  A refused row holds NaN in
    every array.
    """
    aa, ab, ac, ad, cc, cd = entries
    with np.errstate(all="ignore"):
        # X+ and X-, each [[p, r], [r, q]]
        p_p, r_p, q_p = aa + ab, ac + ad, cc + cd
        p_m, r_m, q_m = aa - ab, ac - ad, cc - cd
        a_p, a_m, a_c = 1.0 + q_p, 1.0 + q_m, 1.0 + cc
        sigma_p, sigma_m = p_p - r_p * r_p / a_p, p_m - r_m * r_m / a_m
        p_c, q_c = aa - ac * ac / a_c, aa - ad * ad / a_c
        r_c = ab - ac * ad / a_c
        mean, half = 0.5 * (sigma_p + sigma_m), 0.5 * (sigma_p - sigma_m)
        # X+, X-, then twice Sigma_0, Sigma_C, Sigma_D and Sigma_CD
        p, q, r = np.array([[p_p, p_m, aa, p_c, q_c, mean],
                            [q_p, q_m, aa, q_c, p_c, mean],
                            [r_p, r_m, ab, r_c, r_c, half]])
        lowest, highest = _eig2(p, q, r)
        # row 1 becomes the extreme eigenvalues of X; rows 1-5 are checked
        lowest[1] = np.minimum(lowest[0], lowest[1])
        highest[1] = np.maximum(highest[0], highest[1])
        lowest, highest = lowest[1:], highest[1:]
        p, q, r = p[2:], q[2:], r[2:]
        correlations = r / np.sqrt(p * q)
        # the masses; term 0's is w_0, as det A_0 = 1
        w_0, w_c, w_d, w_cd = CLICK_WEIGHTS
        m_c, m_d, m_cd = w_c / a_c, w_d / a_c, w_cd / (a_p * a_m)
        success = (w_0 + m_c + m_d + m_cd if success_prob is None
                   else success_prob)
        weights = np.array([w_0 / success, m_c / success, m_d / success,
                            m_cd / success])
        usable = (lowest > 0.0) & (highest / lowest <= CONDITION_LIMIT)
        failed = ~(usable.all(axis=0) & (success >= MIN_SUCCESS_PROB)
                   & (success < np.inf))
    errors: list[CVBellError | None] = [None] * np.size(failed)
    if failed.any():
        rows = np.reshape(failed, -1)
        flat = [np.reshape(v, (-1, rows.size))
                for v in (success, lowest, highest)]
        for i in np.flatnonzero(rows):
            errors[i] = _refusal(flat[0][0, i], flat[1][:, i], flat[2][:, i])
        success, weights, correlations, p, q, r = (
            np.where(failed, np.nan, values)
            for values in (success, weights, correlations, p, q, r))
    return success, weights, correlations, (p, q, r), errors


def conditional_state(cov_out: np.ndarray) -> SignedGaussianMixture:
    """Signed four-Gaussian mixture of the double-click conditional state.

    cov_out is the 8x8 output covariance: finite entries
    (`inputs.coordinates`), a zero x-p cross block, p-block D X D and an
    x-block X symmetric under transposition and under the joint swap of A
    with B and C with D, each within STRUCTURE_TOL (DomainError
    otherwise).  Its six entries are conditioned as one row of float64
    scalars (`_condition`), with P the sum of the four masses; the row's
    refusal is raised, e.g. InvalidRegimeError for vacuum input.
    """
    cov = inputs.coordinates("covariance", cov_out)
    if cov.shape != (8, 8):
        raise DomainError(f"expected an 8x8 covariance, got shape {cov.shape}")
    x = cov[0::2, 0::2]
    entries = np.concatenate([x[0, :4], x[2, 2:]])
    # a difference of finite entries of opposite sign can overflow to inf,
    # which fails its check like any other gap above the tolerance
    with np.errstate(over="ignore"):
        if not np.all(np.abs(cov - gaussian.from_x_block(x))
                      <= STRUCTURE_TOL):
            raise DomainError("covariance must have a zero x-p cross block "
                              "and p-block D x D, D = diag(1, -1, 1, -1)")
        if not np.all(np.abs(x - x.T) <= STRUCTURE_TOL):
            raise DomainError("matrix is not symmetric")
        if not np.all(np.abs(x - gaussian.x_block_of_entries(entries))
                      <= STRUCTURE_TOL):
            raise DomainError("x-block must be invariant under the joint "
                              "swap of A with B and C with D")
    success, weights, _, (p, q, r), errors = _condition(entries)
    if errors[0] is not None:
        raise errors[0]
    covariances = 0.5 * np.array([p, r, r, q]).T.reshape(4, 2, 2)
    return SignedGaussianMixture(weights=weights, covariances=covariances,
                                 success_prob=float(success))


def wigner_value(state: SignedGaussianMixture, points: np.ndarray) -> np.ndarray:
    """Evaluate W at phase-space points (x_A, p_A, x_B, p_B), shape (..., 4).

    W = sum_j w_j g_j(x_A, x_B) g_j(p_A, -p_B), with g_j the zero-mean
    bivariate normal density of covariance Sigma_j: the p-part of term j
    is Sigma_j with its off-diagonal negated.  state goes through
    `inputs.record` and the points through `inputs.points`.
    """
    inputs.record("state", state, BivariateMixture)
    x_a, p_a, x_b, p_b = np.moveaxis(
        inputs.points("phase-space points", points), -1, 0)
    covs = state.covariances
    return (_term_densities(state.weights, covs, quadratic_moments(x_a, x_b))
            * _term_densities(np.ones(len(covs)), covs,
                              quadratic_moments(p_a, -p_b))).sum(axis=0)


def wigner_cut(state: SignedGaussianMixture, direction: np.ndarray,
               offsets: np.ndarray) -> np.ndarray:
    """W along the line r = offset * direction; returns rows (offset, W).

    `direction` must be a unit 4-vector in (x_A, p_A, x_B, p_B) order
    (`inputs.points`), and offsets a vector of finite coordinates; state
    goes through `inputs.record` in `wigner_value`.
    """
    direction = inputs.points("direction", direction)
    if direction.shape != (4,):
        raise DomainError("direction must be a 4-vector")
    if abs(np.linalg.norm(direction) - 1.0) > 1e-9:
        raise DomainError("direction must be normalized")
    offsets = inputs.coordinates("offsets", inputs.vector("offsets", offsets))
    values = wigner_value(state, offsets[:, None] * direction[None, :])
    return np.column_stack([offsets, values])
