"""CHSH correlators from sign-binned homodyne outcomes.

The heralded state is a signed mixture of four Gaussians, conditioned
from the 4x4 x-quadrature block of the source (see `gaussian` and
`conditioning`).  Measured at phase theta on A and phi on B, term j is a
bivariate Gaussian with correlation coefficient c_j cos(theta + phi), and
its sign-binned correlator follows from the Gaussian orthant probability,
so the full correlator is the weight-averaged arcsine

    E(theta, phi) = sum_j w_j (2/pi) arcsin(c_j cos(theta + phi)).

Four (w_j, c_j) pairs describe a parameter point.  `chsh`, `sweep` and the
pre-scan of `optimize_lambda` evaluate whole arrays of parameter rows with
one call of `conditioning.heralded_terms`; a single point is a batch of
one.  `rotated_marginal` gives the bivariate mixture of one setting for
the Monte Carlo sampler and for the 2D quadrature fallback that guards the
closed form in the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import conditioning, gaussian
from .errors import DomainError, OptimizationError

DEFAULT_ANGLES = (0.0, np.pi / 2, -np.pi / 4, np.pi / 4)

GOLDEN_RATIO = (1.0 + np.sqrt(5.0)) / 2.0

#: clamp |rho| at this bound, counting occurrences for diagnostics
_RHO_BOUND = 1.0 - 1e-12
_clamp_count = 0


def clamp_count() -> int:
    """Number of times a correlation coefficient had to be clamped to (-1, 1)."""
    return _clamp_count


@dataclass(frozen=True)
class ExperimentParams:
    """Source and analysis settings for one CHSH evaluation.

    squeezing is tanh of the squeeze parameter; angles are the two
    quadrature phases per party, (theta1, theta2, phi1, phi2).
    """

    squeezing: float
    transmittance: float
    apd_efficiency: float
    homodyne_efficiency: float
    angles: tuple[float, float, float, float] = DEFAULT_ANGLES

    def __post_init__(self):
        for name in gaussian.PARAMS:
            gaussian.check_domain(name, getattr(self, name))
        if len(self.angles) != 4:
            raise DomainError("angles must be (theta1, theta2, phi1, phi2)")
        object.__setattr__(self, "angles", tuple(float(a) for a in self.angles))

    def output_covariance(self) -> np.ndarray:
        return gaussian.output_covariance(self.squeezing, self.transmittance,
                                          self.apd_efficiency,
                                          self.homodyne_efficiency)


@dataclass(frozen=True)
class BivariateMixture:
    """Signed mixture of zero-mean bivariate Gaussians; weights sum to 1."""

    weights: np.ndarray        # shape (4,)
    covariances: np.ndarray    # shape (4, 2, 2)

    def density(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Joint density on a broadcastable grid of quadrature values."""
        x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        out = np.zeros_like(x, dtype=float)
        for w, cov in zip(self.weights, self.covariances):
            det = cov[0, 0] * cov[1, 1] - cov[0, 1] ** 2
            quad = (cov[1, 1] * x * x - 2.0 * cov[0, 1] * x * y
                    + cov[0, 0] * y * y) / det
            out += w * np.exp(-0.5 * quad) / (2.0 * np.pi * np.sqrt(det))
        return out


@dataclass(frozen=True)
class BellResult:
    """Four correlators E(theta_j, phi_k), the CHSH combination, the
    heralding probability, and the cancellation factor sum_j |w_j| of the
    signed mixture, by which it amplifies rounding errors."""

    correlators: np.ndarray    # shape (2, 2), rows theta, columns phi
    S: float
    success_prob: float
    cancellation: float


def chsh_value(correlators):
    """CHSH combination E11 + E12 + E21 - E22 of correlators (..., 2, 2)."""
    c = np.asarray(correlators)
    return c[..., 0, 0] + c[..., 0, 1] + c[..., 1, 0] - c[..., 1, 1]


def _arcsine_mean(weights: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_j w_j (2/pi) arcsin(rho_j) over the last axis.

    |rho| is clamped to _RHO_BOUND; each clamped element is counted.
    """
    global _clamp_count
    over = np.abs(rho) > _RHO_BOUND
    if over.any():
        _clamp_count += int(np.count_nonzero(over))
        rho = np.where(over, np.copysign(_RHO_BOUND, rho), rho)
    return (weights * (2.0 / np.pi) * np.arcsin(rho)).sum(axis=-1)


def rotated_marginal(state: conditioning.SignedGaussianMixture,
                     theta: float, phi: float) -> BivariateMixture:
    """Marginal of (x_theta on A, x_phi on B) as a signed bivariate mixture.

    Each term keeps its variances; its covariance is cov_AB cos(theta+phi),
    because the (p_A, p_B) covariance is the (x_A, x_B) one with cov_AB
    negated.  The conditioning refuses a term whose (x_A, x_B) covariance
    is not positive definite, so every rotated term is a proper Gaussian.
    """
    covs = state.covariances.copy()
    covs[:, 0, 1] = covs[:, 1, 0] = covs[:, 0, 1] * np.cos(theta + phi)
    return BivariateMixture(weights=state.weights.copy(), covariances=covs)


def sign_correlation(marginal: BivariateMixture) -> float:
    """Closed-form sign-binned correlator of a signed Gaussian mixture."""
    covs = marginal.covariances
    rho = covs[:, 0, 1] / np.sqrt(covs[:, 0, 0] * covs[:, 1, 1])
    return float(_arcsine_mean(marginal.weights, rho))


def sign_correlation_quadrature(marginal: BivariateMixture,
                                nodes_per_quadrant: int = 48,
                                sigma_range: float = 6.0) -> float:
    """Quadrature evaluation of the sign-binned correlator.

    Integrates sign(x*y) * density quadrant by quadrant with Gauss-Legendre
    nodes (so the sign discontinuity never crosses a panel), giving the
    independent check on the arcsine closed form.
    """
    sx = sigma_range * np.sqrt(max(cov[0, 0] for cov in marginal.covariances))
    sy = sigma_range * np.sqrt(max(cov[1, 1] for cov in marginal.covariances))
    nodes, wts = np.polynomial.legendre.leggauss(nodes_per_quadrant)
    x_pos = (nodes + 1.0) * sx / 2.0
    y_pos = (nodes + 1.0) * sy / 2.0
    wx = wts * sx / 2.0
    wy = wts * sy / 2.0
    total = 0.0
    for sgn_x, sgn_y in itertools.product((1.0, -1.0), repeat=2):
        dens = marginal.density(sgn_x * x_pos[:, None], sgn_y * y_pos[None, :])
        total += sgn_x * sgn_y * (wx @ dens @ wy)
    return float(total)


def _evaluate(rows: dict, angles):
    """Correlators of parameter rows with one call of the closed form.

    rows maps each pipeline parameter (`gaussian.PARAMS`) to an
    array of n values.  Returns the correlators (n, 2, 2), P (n,), the
    cancellation factor (n,) and the per-row errors: the DomainError
    ExperimentParams raises for a value outside its domain, else the
    refusal of `conditioning.heralded_terms`.  Failed rows hold NaN.
    """
    n = len(rows["squeezing"])
    errors: list = [None] * n
    safe = []
    for name, param in gaussian.PARAMS.items():
        values = np.asarray(rows[name], dtype=float)
        ok = param.inside(values)
        for i in np.flatnonzero(~ok):
            if errors[i] is None:
                errors[i] = gaussian.domain_error(name, values[i])
        # an out-of-domain row runs on a placeholder and keeps its error
        safe.append(np.where(ok, values, 0.5))
    terms = conditioning.heralded_terms(gaussian.x_block(*safe))
    errors = [own or kernel for own, kernel in zip(errors, terms.errors)]
    theta1, theta2, phi1, phi2 = angles
    cosines = np.cos([[theta1 + phi1, theta1 + phi2],
                      [theta2 + phi1, theta2 + phi2]])
    failed = np.array([e is not None for e in errors], dtype=bool)
    correlations = np.where(failed[:, None], np.nan, terms.correlations)
    corr = _arcsine_mean(terms.weights[:, None, None, :],
                         correlations[:, None, None, :] * cosines[..., None])
    success = np.where(failed, np.nan, terms.success_prob)
    cancellation = np.where(failed, np.nan, terms.cancellation)
    return corr, success, cancellation, errors


def _rows(fixed: dict, **varying) -> dict:
    """Parameter rows for `_evaluate`: the values in fixed, repeated, and
    the arrays in varying; one row when nothing varies."""
    n = len(next(iter(varying.values()))) if varying else 1
    return {name: varying[name] if name in varying else np.full(n, fixed[name])
            for name in gaussian.PARAMS}


def chsh(params: ExperimentParams) -> BellResult:
    """Run the Gaussian pipeline end to end and assemble the CHSH parameter.

    Raises the refusal of the conditioning step when the parameters cannot
    herald (InvalidRegimeError, e.g. zero squeezing) or a matrix is unusable.
    """
    corr, success, cancellation, errors = _evaluate(_rows(vars(params)),
                                                    params.angles)
    if errors[0] is not None:
        raise errors[0]
    return BellResult(correlators=corr[0], S=float(chsh_value(corr[0])),
                      success_prob=float(success[0]),
                      cancellation=float(cancellation[0]))


def _golden_section_max(fun, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section search for the maximum of a unimodal scalar function."""
    c = hi - (hi - lo) / GOLDEN_RATIO
    d = lo + (hi - lo) / GOLDEN_RATIO
    fc, fd = fun(c), fun(d)
    while abs(hi - lo) > tol:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - (hi - lo) / GOLDEN_RATIO
            fc = fun(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + (hi - lo) / GOLDEN_RATIO
            fd = fun(d)
    mid = 0.5 * (lo + hi)
    return mid, fun(mid)


def optimize_lambda(transmittance: float, apd_efficiency: float,
                    homodyne_efficiency: float,
                    angles: tuple[float, float, float, float] = DEFAULT_ANGLES,
                    tol: float = 1e-4) -> tuple[float, float]:
    """Squeezing value maximizing the CHSH parameter, and the maximum.

    A 20-point pre-scan brackets the peak and errors out if two separated
    local maxima agree within 0.005 (the unimodality assumption behind
    golden-section search would then be unsafe).
    """
    fixed = dict(transmittance=transmittance, apd_efficiency=apd_efficiency,
                 homodyne_efficiency=homodyne_efficiency)

    def s_values(lams: np.ndarray) -> np.ndarray:
        corr, _, _, errors = _evaluate(_rows(fixed, squeezing=lams), angles)
        values = chsh_value(corr)
        values[[e is not None for e in errors]] = -np.inf
        return values

    def objective(lam: float) -> float:
        return float(s_values(np.array([lam]))[0])

    grid = np.linspace(0.01, 0.95, 20)
    values = s_values(grid)
    maxima = [i for i in range(1, len(grid) - 1)
              if values[i] >= values[i - 1] and values[i] >= values[i + 1]
              and np.isfinite(values[i])]
    if not maxima:
        raise OptimizationError("no interior maximum found in the pre-scan")
    best = max(maxima, key=lambda i: values[i])
    for other in maxima:
        if abs(other - best) > 1 and abs(values[other] - values[best]) < 0.005:
            raise OptimizationError(
                "pre-scan found two comparable separated maxima; "
                "refusing unimodal search")
    lam_opt, s_max = _golden_section_max(objective, grid[best - 1],
                                         grid[best + 1], tol)
    return float(lam_opt), float(s_max)


@dataclass(frozen=True)
class SweepPoint:
    """One row of a parameter sweep; `error` is set when the point failed."""

    value: float
    S: float = np.nan
    success_prob: float = np.nan
    error: str | None = None


def sweep(axis: str, grid, fixed: ExperimentParams) -> list[SweepPoint]:
    """Evaluate the CHSH pipeline along one parameter axis in one array call.

    Rows are ordered by axis value.  A point that fails records the error
    text its own `chsh` call would raise, and the sweep continues.
    """
    axes = tuple(gaussian.SWEEP_KEYS.values())
    if axis not in axes:
        raise DomainError(f"sweep axis must be one of {axes}, got {axis!r}")
    values = np.array(sorted(float(v) for v in grid))
    corr, success, _, errors = _evaluate(_rows(vars(fixed), **{axis: values}),
                                         fixed.angles)
    s_values = chsh_value(corr)
    return [SweepPoint(value=float(v), error=str(e)) if e is not None
            else SweepPoint(value=float(v), S=float(s), success_prob=float(p))
            for v, s, p, e in zip(values, s_values, success, errors)]
