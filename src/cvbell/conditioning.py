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
probability P and four (w_j, var_A, var_B, cov_AB) terms;
`conditional_state` reads one row as a `SignedGaussianMixture`.
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

#: detector modes (C, D) each term projects onto vacuum, one row per term
_VACUUM = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])

#: vacuum kernels K_j added to the x-part of the detector block; the
#: p-part gets the same kernels
_KERNELS = np.array([np.diag(k) for k in _VACUUM])

#: heralding probabilities smaller than this are numerically zero
MIN_SUCCESS_PROB = 64 * np.finfo(float).eps

#: largest entry of an x-p cross block, asymmetry or p-block mismatch that
#: an input covariance may carry
STRUCTURE_TOL = 1e-10


@dataclass(frozen=True)
class SignedGaussianMixture:
    """Wigner function of the heralded two-mode state, one row of
    `HeraldedTerms`: at r = (x_A, p_A, x_B, p_B),

    W(r) = prefactor * sum_j q_j / detector_det_roots_j * exp(-r^T R_j r)

    with q_j the CLICK_WEIGHTS and R_j = from_x_block(precisions_j).
    """

    success_prob: float
    weights: np.ndarray             # (4,), sums to 1
    covariances: np.ndarray         # (4, 2, 2)
    precisions: np.ndarray          # (4, 2, 2), x-part of each precision
    detector_det_roots: np.ndarray  # (4,)
    prefactor: float


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
    precisions: np.ndarray          # (n, 4, 2, 2), x-part of each precision
    detector_det_roots: np.ndarray  # (n, 4)
    det_x: np.ndarray               # (n,), determinant of the x-block
    errors: tuple[CVBellError | None, ...]

    @property
    def correlations(self) -> np.ndarray:
        """Correlation coefficient c_j of (x_A, x_B) per term, shape (n, 4).

        Measured at phases theta on A and phi on B, term j has correlation
        c_j cos(theta + phi).
        """
        cov = self.covariances
        return cov[..., 0, 1] / np.sqrt(cov[..., 0, 0] * cov[..., 1, 1])

    @property
    def cancellation(self) -> np.ndarray:
        """Sum of |w_j| per row: the error amplification of the signed sum."""
        return np.abs(self.weights).sum(axis=-1)


def _refuse(errors: list, rows: np.ndarray, make) -> None:
    """Give each flagged row that has no error yet the error make(row)."""
    for i in np.flatnonzero(rows):
        if errors[i] is None:
            errors[i] = make(i)


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


def _refuse_spd(errors: list, lowest: np.ndarray, highest: np.ndarray) -> None:
    """Refuse the rows holding a matrix that `spd_error` refuses.

    lowest and highest are the extreme eigenvalues, shape (n,) or (n, 4);
    the first refused term of a row names its error.
    """
    if lowest.ndim == 1:
        lowest, highest = lowest[:, None], highest[:, None]
    refused = spd_refused(lowest, highest)

    def make(i):
        j = int(np.argmax(refused[i]))
        return spd_error(lowest[i, j], highest[i, j])

    _refuse(errors, refused.any(axis=1), make)


def _det2(m: np.ndarray) -> np.ndarray:
    """Determinants of a stack of 2x2 matrices."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


#: gather indices and signs of the adjugate [[m11, -m01], [-m10, m00]]
_ADJ_ROWS, _ADJ_COLS = np.array([[1, 0], [1, 0]]), np.array([[1, 1], [0, 0]])
_ADJ_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _inv2(m: np.ndarray) -> np.ndarray:
    """Inverses of a stack of 2x2 matrices (adjugate over determinant)."""
    adj = m[..., _ADJ_ROWS, _ADJ_COLS] * _ADJ_SIGNS
    return adj / _det2(m)[..., None, None]


def _eig2(m: np.ndarray):
    """Lowest and highest eigenvalues of a stack of symmetric 2x2 matrices."""
    mean = 0.5 * (m[..., 0, 0] + m[..., 1, 1])
    radius = np.hypot(0.5 * (m[..., 0, 0] - m[..., 1, 1]), m[..., 0, 1])
    return mean - radius, mean + radius


def _symmetrized(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def heralded_terms(x_blocks: np.ndarray) -> HeraldedTerms:
    """Condition a stack of x-blocks X, shape (n, 4, 4), on a double click.

    Term j projects the detector modes S_j (none, C, D, both) onto vacuum.
    With A_j = I + X_SS, its (x_A, x_B) covariance is
    (X_AB,AB - X_AB,S A_j^-1 X_S,AB) / 2 and its unnormalized mass is
    q_j / det A_j, so P = sum_j q_j / det A_j.  This is the inverse-form
    conditioning (precision R_j = Gamma_AB - Gamma_AB,CD B_j^-1 Gamma_CD,AB
    with Gamma = X^-1 and augmented detector block B_j = Gamma_CD + K_j)
    rewritten by the Woodbury identity and the matrix determinant lemma,
    det R_j det B_j det X = det A_j, so X is never inverted.  A row is
    refused, with the error of its first failing check, when:

    * X is not symmetric (DomainError);
    * X, a B_j or an R_j is not positive definite or has an eigenvalue
      condition number above CONDITION_LIMIT (SingularMatrixError); the
      B_j are checked before P, the R_j after;
    * P is not finite or below MIN_SUCCESS_PROB (InvalidRegimeError);
    * a term covariance is not positive definite, which would make some
      rotated marginal improper (SingularMatrixError).
    """
    x = np.asarray(x_blocks, dtype=float)
    if x.ndim != 3 or x.shape[1:] != (4, 4):
        raise DomainError(
            f"expected a stack of 4x4 x-blocks, got shape {x.shape}")
    n = x.shape[0]
    errors: list[CVBellError | None] = [None] * n
    with np.errstate(all="ignore"):
        symmetric = np.all(np.abs(x - np.swapaxes(x, 1, 2)) <= STRUCTURE_TOL,
                           axis=(1, 2))
        _refuse(errors, ~symmetric,
                lambda i: DomainError("matrix is not symmetric"))
        x = np.where(symmetric[:, None, None], _symmetrized(x), np.eye(4))
        eigs = np.linalg.eigvalsh(x)
        _refuse_spd(errors, eigs[:, 0], eigs[:, -1])
        det_x = np.prod(eigs, axis=-1)
        homodyne, cross, detector = x[:, :2, :2], x[:, :2, 2:], x[:, 2:, 2:]

        # B_j = Gamma_CD + K_j, checked only; Gamma_CD is the inverse of the
        # Schur complement of X_AB,AB in X
        schur = detector - np.swapaxes(cross, 1, 2) @ _inv2(homodyne) @ cross
        blocks = _inv2(_symmetrized(schur))[:, None] + _KERNELS
        _refuse_spd(errors, *_eig2(blocks))

        a = np.eye(2) + detector[:, None] * (_VACUUM[:, :, None]
                                             * _VACUUM[:, None, :])
        det_a = _det2(a)
        masses = np.array(CLICK_WEIGHTS, dtype=float) / det_a
        success = masses.sum(axis=-1)
        _refuse(errors, ~(np.isfinite(success) & (success >= MIN_SUCCESS_PROB)),
                lambda i: InvalidRegimeError(
                    f"invalid-regime: heralding probability {success[i]:.3e} "
                    "is not usable; the input state cannot trigger both "
                    "detectors"))

        coupling = cross[:, None] * _VACUUM[:, None, :]
        doubled = _symmetrized(homodyne[:, None] - coupling @ _inv2(a)
                               @ np.swapaxes(coupling, 2, 3))
        precisions = _symmetrized(_inv2(doubled))
        _refuse_spd(errors, *_eig2(precisions))

        covariances = 0.5 * doubled
        proper = (covariances[..., 0, 0] > 0) & (covariances[..., 1, 1] > 0) \
            & (_det2(covariances) > 0)
        _refuse(errors, ~proper.all(axis=1),
                lambda i: SingularMatrixError(
                    "marginal term covariance is not positive definite"))
        weights = masses / success[:, None]
        # det B_j through the determinant lemma keeps the Wigner
        # coefficients q_j / det B_j consistent with the weights
        roots = det_a * _det2(doubled) / det_x[:, None]

    failed = np.array([e is not None for e in errors], dtype=bool)

    def clean(values):
        return np.where(failed.reshape((n,) + (1,) * (values.ndim - 1)),
                        np.nan, values)

    return HeraldedTerms(success_prob=clean(success), weights=clean(weights),
                         covariances=clean(covariances),
                         precisions=clean(precisions),
                         detector_det_roots=clean(roots),
                         det_x=clean(det_x),
                         errors=tuple(errors))


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
    success = float(terms.success_prob[0])
    return SignedGaussianMixture(
        success_prob=success, weights=terms.weights[0],
        covariances=terms.covariances[0], precisions=terms.precisions[0],
        detector_det_roots=terms.detector_det_roots[0],
        prefactor=1.0 / (np.pi ** 2 * success * float(terms.det_x[0])))


def wigner_value(state: SignedGaussianMixture, points: np.ndarray) -> np.ndarray:
    """Evaluate W at phase-space points of shape (..., 4).

    Each term's exponent is the full quadratic form r^T R_j r with the 4x4
    precision R_j = from_x_block(precisions_j).  The expanded 2x2 form
    a (x_A^2 + p_A^2) + 2 b (x_A x_B - p_A p_B) + c (x_B^2 + p_B^2) is the
    same algebra but rounds differently, and where W crosses zero the
    signed terms cancel and magnify that: it moves 43 of the 121 `fig2a`
    values in their 12-digit text, by up to 7.5e-11 relative.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != 4:
        raise DomainError("phase-space points must have 4 components")
    flat = pts.reshape(-1, 4)
    total = np.zeros(flat.shape[0])
    precisions = gaussian.from_x_block(state.precisions)
    for q, precision, root in zip(CLICK_WEIGHTS, precisions,
                                  state.detector_det_roots):
        quad = np.einsum("ni,ij,nj->n", flat, precision, flat)
        total += q / root * np.exp(-quad)
    return (state.prefactor * total).reshape(pts.shape[:-1])


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
