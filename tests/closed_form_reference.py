"""The closed form on the 16 entries of X, with one numpy call per entry
and per check: `x_block` with its 16-way stack and a domain check per
parameter, the generic conditioning kernel `heralded_terms` on a stack of
(n, 4, 4) x-blocks (4x4 `eigvalsh`, batched 2x2 inverses, P the sum of
the four masses), and `evaluate`, the CHSH correlators of parameter rows
through both.  The tests hold `gaussian.x_block` to this route bitwise,
and the package's six-entry kernel to its refusals and, where both are
accurate, its values.  The oracles `exact_*` evaluate the inverse-form
conditioning of the same x-block at 50 digits in mpmath: P, the
correlators and the Wigner function.
"""

from dataclasses import dataclass

import mpmath
import numpy as np

from cvbell.bell import _arcsine_mean
from cvbell.conditioning import (CLICK_WEIGHTS, CONDITION_LIMIT,
                                 MIN_SUCCESS_PROB, STRUCTURE_TOL)
from cvbell.errors import (CVBellError, DomainError, InvalidRegimeError,
                           SingularMatrixError)


def _unit(v):
    return (0.0 < v) & (v <= 1.0)


#: pipeline parameter -> (domain as error text, elementwise membership)
DOMAINS = {
    "squeezing": ("[0, 1)", lambda v: (0.0 <= v) & (v < 1.0)),
    "transmittance": ("(0, 1]", _unit),
    "apd_efficiency": ("(0, 1]", _unit),
    "homodyne_efficiency": ("(0, 1]", _unit),
}


def domain_error(name, value):
    return DomainError(f"{name} must lie in {DOMAINS[name][0]}, "
                       f"got {float(value)}")


def check_domain(name, values):
    values = np.asarray(values, dtype=float)
    inside = DOMAINS[name][1](values)
    if not np.all(inside):
        raise domain_error(name, values[~inside].flat[0])


def x_block(squeezing, transmittance, apd_efficiency, homodyne_efficiency):
    lam, trans, eta, eta_h = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (squeezing, transmittance,
                                               apd_efficiency,
                                               homodyne_efficiency)))
    for name, val in zip(DOMAINS, (lam, trans, eta, eta_h)):
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


_VACUUM = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


@dataclass(frozen=True)
class HeraldedTerms:
    """P (n,), weights (n, 4) and (x_A, x_B) covariances (n, 4, 2, 2) of a
    stack of x-blocks, and the per-row refusals; refused rows hold NaN."""

    success_prob: np.ndarray
    weights: np.ndarray
    covariances: np.ndarray
    errors: tuple[CVBellError | None, ...]

    @property
    def correlations(self):
        covs = self.covariances
        return covs[..., 0, 1] / np.sqrt(covs[..., 0, 0] * covs[..., 1, 1])

    @property
    def cancellation(self):
        return np.abs(self.weights).sum(axis=-1)


def spd_error(lowest, highest):
    if not lowest > 0.0:
        return SingularMatrixError("matrix is not positive definite",
                                   condition_estimate=float("inf"))
    cond = highest / lowest
    if not cond <= CONDITION_LIMIT:
        return SingularMatrixError("matrix too ill-conditioned to invert",
                                   condition_estimate=float(cond))
    return None


def _refusal(symmetric, success, lowest, highest):
    if not symmetric:
        return DomainError("matrix is not symmetric")
    if error := spd_error(lowest[0], highest[0]):
        return error
    if not MIN_SUCCESS_PROB <= success < np.inf:
        return InvalidRegimeError(
            f"invalid-regime: heralding probability {success:.3e} is not "
            "usable; the input state cannot trigger both detectors")
    return next(filter(None, map(spd_error, lowest[1:], highest[1:])))


def _det2(m):
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _inv2(m):
    adj = (m[..., [[1, 0], [1, 0]], [[1, 1], [0, 0]]]
           * np.array([[1.0, -1.0], [-1.0, 1.0]]))
    return adj / _det2(m)[..., None, None]


def _eig2(m):
    mean = 0.5 * (m[..., 0, 0] + m[..., 1, 1])
    radius = np.hypot(0.5 * (m[..., 0, 0] - m[..., 1, 1]), m[..., 0, 1])
    return mean - radius, mean + radius


def _symmetrized(m):
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def heralded_terms(x_blocks):
    x = np.asarray(x_blocks, dtype=float)
    if x.ndim != 3 or x.shape[1:] != (4, 4):
        raise DomainError(
            f"expected a stack of 4x4 x-blocks, got shape {x.shape}")
    with np.errstate(all="ignore"):
        symmetric = np.all(np.abs(x - np.swapaxes(x, 1, 2)) <= STRUCTURE_TOL,
                           axis=(1, 2))
        x = np.where(symmetric[:, None, None], _symmetrized(x), np.eye(4))
        eigs = np.linalg.eigvalsh(x)
        homodyne, cross, detector = x[:, :2, :2], x[:, :2, 2:], x[:, 2:, 2:]
        a = np.eye(2) + detector[:, None] * (_VACUUM[:, :, None]
                                             * _VACUUM[:, None, :])
        masses = np.array(CLICK_WEIGHTS, dtype=float) / _det2(a)
        success = masses.sum(axis=-1)
        coupling = cross[:, None] * _VACUUM[:, None, :]
        covariances = 0.5 * _symmetrized(
            homodyne[:, None]
            - coupling @ _inv2(a) @ np.swapaxes(coupling, 2, 3))
        weights = masses / success[:, None]
        term_lowest, term_highest = _eig2(covariances)
        lowest = np.column_stack([eigs[:, 0], term_lowest])
        highest = np.column_stack([eigs[:, -1], term_highest])
        usable = (lowest > 0.0) & (highest / lowest <= CONDITION_LIMIT)
        failed = ~(symmetric & usable.all(axis=1)
                   & (success >= MIN_SUCCESS_PROB) & (success < np.inf))
    errors = [None] * len(x)
    for i in np.flatnonzero(failed):
        errors[i] = _refusal(symmetric[i], success[i], lowest[i], highest[i])
    for values in (success, weights, covariances):
        values[failed] = np.nan
    return HeraldedTerms(success_prob=success, weights=weights,
                         covariances=covariances, errors=tuple(errors))


def evaluate(rows, angles):
    """(correlators, P, cancellation, errors) of `bell._evaluate`."""
    n = len(rows["squeezing"])
    errors = [None] * n
    safe = []
    for name, (_, inside) in DOMAINS.items():
        values = np.asarray(rows[name], dtype=float)
        ok = inside(values)
        for i in np.flatnonzero(~ok):
            if errors[i] is None:
                errors[i] = domain_error(name, values[i])
        safe.append(np.where(ok, values, 0.5))
    x = x_block(*safe)
    x[[e is not None for e in errors]] = np.nan
    terms = heralded_terms(x)
    errors = [own or kernel for own, kernel in zip(errors, terms.errors)]
    theta1, theta2, phi1, phi2 = angles
    cosines = np.cos([[theta1 + phi1, theta1 + phi2],
                      [theta2 + phi1, theta2 + phi2]])
    corr = _arcsine_mean(terms.weights[:, None, None, :],
                         terms.correlations[:, None, None, :]
                         * cosines[..., None])
    return corr, terms.success_prob, terms.cancellation, errors


# ---------------------------------------------------------------------------
# oracles at 50 digits


def exact_terms(params):
    """Inverse-form conditioning on the x-block, at the working precision
    of mpmath: P, det X and, per term, (q_j, det B_j, R_j) with B_j the
    augmented detector block and R_j the (x_A, x_B) precision.  The x-block
    entries are the closed form of `gaussian.x_block` in exact arithmetic."""
    lam, t, eta, eta_h = (mpmath.mpf(v) for v in (
        params.squeezing, params.transmittance, params.apd_efficiency,
        params.homodyne_efficiency))
    ch = mpmath.cosh(2 * mpmath.atanh(lam))
    sh = mpmath.sinh(2 * mpmath.atanh(lam))
    rfl, gain = mpmath.sqrt(1 - t), mpmath.sqrt(eta_h * eta)
    aa = eta_h * (t * ch + 1 - t) + 1 - eta_h
    cc = eta * ((1 - t) * ch + t) + 1 - eta
    ac = gain * mpmath.sqrt(t) * rfl * (1 - ch)
    ad = -gain * mpmath.sqrt(t) * rfl * sh
    ab, cd = eta_h * t * sh, eta * (1 - t) * sh
    x = mpmath.matrix([[aa, ab, ac, ad], [ab, aa, ad, ac],
                       [ac, ad, cc, cd], [ad, ac, cd, cc]])
    gamma = x ** -1
    terms = []
    for q, kernel in zip(CLICK_WEIGHTS, ((0, 0), (1, 0), (0, 1), (1, 1))):
        block = gamma[2:4, 2:4] + mpmath.diag(kernel)
        reduced = gamma[0:2, 0:2] \
            - gamma[0:2, 2:4] * block ** -1 * gamma[2:4, 0:2]
        terms.append((q, mpmath.det(block), reduced))
    det_x = mpmath.det(x)
    success = sum(q / (mpmath.det(reduced) * det_b)
                  for q, det_b, reduced in terms) / det_x
    return success, det_x, terms


def exact_success_prob(params):
    """P at 50 digits."""
    with mpmath.workdps(50):
        return float(exact_terms(params)[0])


def _exact_correlation(success, det_x, terms, theta, phi):
    total = 0
    for q, det_b, reduced in terms:
        mass = q / (mpmath.det(reduced) * det_b * det_x)
        corr = -reduced[0, 1] / mpmath.sqrt(reduced[0, 0] * reduced[1, 1])
        total += mass * mpmath.asin(corr * mpmath.cos(theta + phi))
    return float(2 * total / (mpmath.pi * success))


def exact_sign_correlation(params, theta, phi):
    """E at 50 digits: sum_j w_j (2/pi) arcsin(c_j cos(theta + phi)), with
    c_j = -R_j[0, 1] / sqrt(R_j[0, 0] R_j[1, 1]) the correlation of the
    covariance R_j^-1 / 2."""
    with mpmath.workdps(50):
        return _exact_correlation(*exact_terms(params), theta, phi)


def exact_chsh(params):
    """The four correlators (2, 2) at the angles of params and P, each at
    50 digits, from one conditioning."""
    with mpmath.workdps(50):
        terms = exact_terms(params)
        theta1, theta2, phi1, phi2 = params.angles
        corr = np.array([[_exact_correlation(*terms, theta, phi)
                          for phi in (phi1, phi2)] for theta in (theta1, theta2)])
        return corr, float(terms[0])


def exact_wigner(params, points):
    """W at 50 digits at each phase-space point (x_A, p_A, x_B, p_B):
    sum_j q_j / det B_j exp(-x^T R_j x - p^T D R_j D p) / (pi^2 P det X),
    with x = (x_A, x_B), p = (p_A, p_B) and D = diag(1, -1)."""
    with mpmath.workdps(50):
        success, det_x, terms = exact_terms(params)
        scale = mpmath.pi ** 2 * success * det_x
        values = []
        for x_a, p_a, x_b, p_b in np.asarray(points, dtype=float):
            x = mpmath.matrix([x_a, x_b])
            p = mpmath.matrix([p_a, -p_b])
            total = sum(q / det_b * mpmath.exp(-(x.T * reduced * x)[0]
                                               - (p.T * reduced * p)[0])
                        for q, det_b, reduced in terms)
            values.append(float(total / scale))
        return np.array(values)
