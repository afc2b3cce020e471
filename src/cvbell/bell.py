"""CHSH correlators from sign-binned homodyne outcomes.

The heralded state is a signed mixture of four Gaussians, the (w_j,
Sigma_j) terms of `conditioning.herald`.  Measured at phase theta on A
and phi on B, term j is a bivariate Gaussian with correlation c_j
cos(theta + phi), c_j the correlation of Sigma_j, and its sign-binned
correlator follows from the Gaussian orthant probability, so

    E(theta, phi) = sum_j w_j (2/pi) arcsin(c_j cos(theta + phi)).

The kernel, `gaussian.x_entries`, `conditioning.success_probability`
and the conditioning of `conditioning.herald`, runs one parameter row of
`chsh` on float64 scalars, far cheaper per numpy call than 1-element
arrays, and the rows of `sweep`, the pre-scan of `optimize_lambda` and
the `fig2` panels as arrays, one call per batch; a row's values are
bitwise the same either way.  The golden-section search of
`optimize_lambda` evaluates, per call, every point that its next
`LAMBDA_LOOKAHEAD` steps could need, so it makes at most four calls, and
its result is bitwise that of the one-point-at-a-time search.
`rotated_marginal` gives the terms at one setting as a
`conditioning.BivariateMixture`, for the Monte Carlo sampler and for the
2D quadrature fallback that guards the closed form in the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import conditioning, gaussian, inputs
from .conditioning import BivariateMixture
from .inputs import PARAMS, SWEEP_KEYS
from .errors import DomainError, OptimizationError

DEFAULT_ANGLES = (0.0, np.pi / 2, -np.pi / 4, np.pi / 4)

GOLDEN_RATIO = (1.0 + np.sqrt(5.0)) / 2.0

#: golden-section tolerance on the squeezing of `optimize_lambda`
LAMBDA_TOL = 1e-4

#: golden-section steps `optimize_lambda` looks ahead per closed-form call:
#: 31 and 63 rows cost 1.1x and 1.15-1.2x one row (best of 2000 on a
#: 2-core Xeon), and five steps won 4 of 6 alternating rounds of 8
#: searches against four and all 6 against three and six
LAMBDA_LOOKAHEAD = 5

#: Gauss-Legendre nodes per quadrant axis of `sign_correlation_quadrature`
#: and its box half-width in standard deviations of the widest term
QUADRATURE_NODES, QUADRATURE_SIGMAS = 48, 6.0


@dataclass(frozen=True)
class ExperimentParams:
    """Source and analysis settings for one CHSH evaluation.

    squeezing is tanh of the squeeze parameter; angles are the two
    quadrature phases per party, (theta1, theta2, phi1, phi2).  Each
    parameter goes through `inputs.parameter` (an array is refused) and is
    stored as a float; the angles go through `inputs.angles`.
    """

    squeezing: float
    transmittance: float
    apd_efficiency: float
    homodyne_efficiency: float
    angles: tuple[float, float, float, float] = DEFAULT_ANGLES

    def __post_init__(self):
        for name in PARAMS:
            object.__setattr__(self, name, inputs.parameter(
                name, getattr(self, name)))
        object.__setattr__(self, "angles", inputs.angles(self.angles))

    def output_covariance(self) -> np.ndarray:
        return gaussian.output_covariance(self.squeezing, self.transmittance,
                                          self.apd_efficiency,
                                          self.homodyne_efficiency)


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
    """CHSH combination E11 + E12 + E21 - E22 of a batch of correlators
    (`inputs.reals`), shape (..., 2, 2)."""
    c = inputs.reals("correlators", correlators)
    if c.shape[-2:] != (2, 2):
        raise DomainError("correlators must have shape (..., 2, 2), got "
                          f"shape {c.shape}")
    return c[..., 0, 0] + c[..., 0, 1] + c[..., 1, 0] - c[..., 1, 1]


def _arcsine_mean(weights: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_j w_j (2/pi) arcsin(rho_j) over the last axis; the terms
    `conditioning.herald` accepts have |rho_j| <= 1 - 2 / (1 +
    CONDITION_LIMIT), so no clamp is needed."""
    return (weights * (2.0 / np.pi) * np.arcsin(rho)).sum(axis=-1)


def rotated_marginal(state: conditioning.SignedGaussianMixture,
                     theta: float, phi: float) -> BivariateMixture:
    """Marginal of (x_theta on A, x_phi on B) as a signed bivariate mixture.

    Each term keeps its variances; its covariance is cov_AB cos(theta+phi),
    because the (p_A, p_B) covariance is the (x_A, x_B) one with cov_AB
    negated.  The conditioning refuses a term whose (x_A, x_B) covariance
    is not positive definite, so every rotated term is a proper Gaussian.
    theta and phi go through `inputs.angles`.
    """
    theta, phi = inputs.angles((theta, phi), 2)
    covs = state.covariances.copy()
    covs[:, 0, 1] = covs[:, 1, 0] = covs[:, 0, 1] * np.cos(theta + phi)
    return BivariateMixture(weights=state.weights.copy(), covariances=covs)


def sign_correlation(marginal: BivariateMixture) -> float:
    """Closed-form sign-binned correlator of a signed Gaussian mixture;
    DomainError for a term with |correlation| > 1."""
    covs = marginal.covariances
    rho = covs[:, 0, 1] / np.sqrt(covs[:, 0, 0] * covs[:, 1, 1])
    if np.any(np.abs(rho) > 1.0):
        raise DomainError("a mixture term has a correlation coefficient "
                          "outside [-1, 1]")
    return float(_arcsine_mean(marginal.weights, rho))


def sign_correlation_quadrature(marginal: BivariateMixture) -> float:
    """Quadrature evaluation of the sign-binned correlator.

    Integrates sign(x*y) * density quadrant by quadrant with Gauss-Legendre
    nodes (so the sign discontinuity never crosses a panel), giving the
    independent check on the arcsine closed form.
    """
    sx, sy = QUADRATURE_SIGMAS * np.sqrt(
        marginal.covariances[:, (0, 1), (0, 1)].max(axis=0))
    nodes, wts = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
    x_pos = (nodes + 1.0) * sx / 2.0
    y_pos = (nodes + 1.0) * sy / 2.0
    wx = wts * sx / 2.0
    wy = wts * sy / 2.0
    total = 0.0
    for sgn_x, sgn_y in itertools.product((1.0, -1.0), repeat=2):
        dens = marginal.density(sgn_x * x_pos[:, None], sgn_y * y_pos[None, :])
        total += sgn_x * sgn_y * (wx @ dens @ wy)
    return float(total)


def _evaluate(values, angles):
    """Correlators of one parameter row, or of a batch of rows, with one
    call of the closed form.

    values holds the pipeline parameters in `PARAMS` order, shape
    (4,) for one row, which runs as float64 scalars, or (4, n) for n rows;
    the shape is the only selector.  Returns the correlators, shape (2, 2)
    or (n, 2, 2); P and the cancellation factor, scalars or (n,); and the
    rows' errors, a list of one entry per row: the DomainError
    ExperimentParams raises for the first of a row's values outside its
    domain, in PARAMS order, else the refusal of `conditioning.herald`.
    Failed rows hold NaN.
    """
    values = np.asarray(values, dtype=float)
    ok = inputs.inside_domains(values)
    inside = ok.all(axis=0)
    own = {}
    if not inside.all():
        names = tuple(PARAMS)
        flat_ok, flat = ok.reshape(4, -1), values.reshape(4, -1)
        for i in np.flatnonzero(~inside):
            k = int(np.argmin(flat_ok[:, i]))
            own[i] = inputs.domain_error(names[k], flat[k, i])
        values = np.where(ok, values, 0.5)
    lam, trans, eta, eta_h = values
    success = conditioning.success_probability(lam, trans, eta)
    if own:
        # an out-of-domain row gets a NaN P, which the kernel refuses
        success = np.where(inside, success, np.nan)
    success, weights, correlations, _, errors = conditioning._condition(
        gaussian.x_entries(lam, trans, eta, eta_h), success)
    for i, error in own.items():
        errors[i] = error
    theta1, theta2, phi1, phi2 = angles
    cosines = np.cos([[theta1 + phi1, theta1 + phi2],
                      [theta2 + phi1, theta2 + phi2]])
    corr = _arcsine_mean(weights.T[..., None, None, :],
                         correlations.T[..., None, None, :]
                         * cosines[..., None])
    return corr, success, conditioning.cancellation(weights), errors


def _rows(fixed: dict, name: str, values) -> np.ndarray:
    """Parameter rows (4, n) for `_evaluate`: the n values of name, and
    each other parameter's value in fixed, repeated."""
    values = np.asarray(values, dtype=float)
    return np.array([values if key == name else np.full(len(values),
                                                        fixed[key])
                     for key in PARAMS])


def chsh(params: ExperimentParams) -> BellResult:
    """Run the Gaussian pipeline end to end and assemble the CHSH parameter.

    The closed form runs on the one row of params, as float64 scalars.
    Raises the refusal of the conditioning step when the parameters cannot
    herald (InvalidRegimeError, e.g. zero squeezing) or a matrix is unusable.
    """
    corr, success, cancellation, errors = _evaluate(
        [getattr(params, name) for name in PARAMS], params.angles)
    if errors[0] is not None:
        raise errors[0]
    return BellResult(correlators=corr, S=float(chsh_value(corr)),
                      success_prob=float(success),
                      cancellation=float(cancellation))


def _golden_step(lo, hi, c, d, c_wins: bool):
    """One golden-section step from the bracket [lo, hi] with inner points
    c < d: keep the side of the better point and place a new inner point."""
    if c_wins:
        hi, d = d, c
        return lo, hi, hi - (hi - lo) / GOLDEN_RATIO, d
    lo, c = c, d
    return lo, hi, c, lo + (hi - lo) / GOLDEN_RATIO


def _golden_section_max(values, lo: float, hi: float, tol: float,
                        lookahead: int) -> tuple[float, float]:
    """Golden-section search for the maximum of a unimodal function.

    values maps an array of points to their function values.  The search
    runs in rounds: each round evaluates, in one call of values, every
    point that the next lookahead steps could need.  From the current
    bracket it walks the tree of steps, following the branch that
    f(c) > f(d) selects where both values are known and both branches
    elsewhere.  A round thus asks for at most 2^lookahead new points, fewer
    where two branches place the same point, plus the final midpoint of
    every branch whose bracket shrinks to tol within the round.  The
    values are kept by point, and the steps then replay the
    one-point-at-a-time search with the same arithmetic, comparison and
    ties, so the result is bitwise that search's whenever the value of a
    point does not depend on the other points evaluated with it.  The
    one-point search's evaluation of the inner point its last step places
    is skipped, because no comparison reads it.  A tol below the float
    spacing of the bracket would step forever; the search ends, at the
    midpoint, once a step returns to a bracket and inner points it has
    held before.  A search that never repeats a state is unchanged.
    """
    known: dict[float, float] = {}

    def wanted(state, depth: int) -> list:
        lo, hi, c, d = state
        if abs(hi - lo) <= tol:
            return [0.5 * (lo + hi)]
        if depth == lookahead:
            return []
        points = [x for x in (c, d) if x not in known]
        for c_wins in ((known[c] > known[d],) if not points
                       else (True, False)):
            points += wanted(_golden_step(*state, c_wins), depth + 1)
        return points

    state = (lo, hi, hi - (hi - lo) / GOLDEN_RATIO,
             lo + (hi - lo) / GOLDEN_RATIO)
    seen = set()
    while True:
        lo, hi, c, d = state
        # the steps are a function of the state, so a state seen before
        # repeats forever: the bracket has stopped shrinking above tol
        done = abs(hi - lo) <= tol or state in seen
        seen.add(state)
        needs = [0.5 * (lo + hi)] if done else [c, d]
        if any(x not in known for x in needs):
            points = [x for x in dict.fromkeys(needs if done
                                               else wanted(state, 0))
                      if x not in known]
            known.update(zip(points, values(np.array(points))))
        if done:
            return needs[0], known[needs[0]]
        state = _golden_step(*state, known[c] > known[d])


def optimize_lambda(transmittance: float, apd_efficiency: float,
                    homodyne_efficiency: float,
                    angles: tuple[float, float, float, float] = DEFAULT_ANGLES
                    ) -> tuple[float, float]:
    """Squeezing value maximizing the CHSH parameter, and the maximum.

    A 20-point pre-scan brackets the peak and errors out if two separated
    local maxima agree within 0.005 (the unimodality assumption behind
    golden-section search would then be unsafe).  When the pre-scan
    refuses every row (nothing heralds, as at T = 1), the first row's
    refusal is raised.  The fixed parameters go through `inputs.parameter`
    (an array is refused) and the angles through `inputs.angles`.
    """
    fixed = {name: inputs.parameter(name, value) for name, value in
             (("transmittance", transmittance),
              ("apd_efficiency", apd_efficiency),
              ("homodyne_efficiency", homodyne_efficiency))}
    angles = inputs.angles(angles)

    def scan(lams: np.ndarray) -> tuple[np.ndarray, list]:
        corr, _, _, errors = _evaluate(_rows(fixed, "squeezing", lams),
                                       angles)
        values = chsh_value(corr)
        values[[e is not None for e in errors]] = -np.inf
        return values, errors

    grid = np.linspace(0.01, 0.95, 20)
    values, errors = scan(grid)
    if all(e is not None for e in errors):
        raise errors[0]
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
    lam_opt, s_max = _golden_section_max(lambda lams: scan(lams)[0],
                                         grid[best - 1], grid[best + 1],
                                         LAMBDA_TOL, LAMBDA_LOOKAHEAD)
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

    Rows are ordered by axis value, NaN last.  A point that fails records
    the error text its own `chsh` call would raise, and the sweep
    continues.  The grid is a batch along one axis (`inputs.vector`),
    checked before anything is evaluated; an array of real dtype is
    accepted by its dtype alone.
    """
    axes = tuple(SWEEP_KEYS.values())
    if not (isinstance(axis, str) and axis in axes):
        raise DomainError(f"sweep axis must be one of {axes}, got {axis!r}")
    # np.sort, not sorted(): NaN compares false, so sorted() would leave it
    # and its neighbours in place; np.sort puts it last
    values = np.sort(inputs.vector(axis, grid))
    corr, success, _, errors = _evaluate(_rows(vars(fixed), axis, values),
                                         fixed.angles)
    s_values = chsh_value(corr)
    return [SweepPoint(value=float(v), error=str(e)) if e is not None
            else SweepPoint(value=float(v), S=float(s), success_prob=float(p))
            for v, s, p, e in zip(values, s_values, success, errors)]
