import itertools
import time
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from cvbell import bell, cli, conditioning, fock, gaussian
from cvbell.errors import (CVBellError, DomainError, InvalidRegimeError,
                           OptimizationError)
from conftest import integrate_mixture_2d
import symplectic_reference as ref

# ---------------------------------------------------------------------------
# per-term 8x8 reference: the conditioning the x-block kernel replaces (full
# 8x8 inverse, one 4x4 Schur complement per vacuum kernel, every matrix
# through the guarded spd_inverse, projected 2x2 marginals), kept here to
# check it

REF_KERNELS = (np.zeros(4), np.array([1.0, 1.0, 0.0, 0.0]),
               np.array([0.0, 0.0, 1.0, 1.0]), np.ones(4))


def reference_chsh(params):
    """(correlators, S, P) of params through the 8x8 per-term pipeline."""
    cov = ref.component_covariance(params.squeezing, params.transmittance,
                                   params.apd_efficiency,
                                   params.homodyne_efficiency)
    inv = ref.spd_inverse(cov)
    homodyne, coupling, detector = inv[:4, :4], inv[:4, 4:], inv[4:, 4:]
    masses, covs = [], []
    for q, kernel in zip(conditioning.CLICK_WEIGHTS, REF_KERNELS):
        block = detector + np.diag(kernel)
        reduced = homodyne - coupling @ ref.spd_inverse(block) @ coupling.T
        precision = 0.5 * (reduced + reduced.T)
        masses.append(q / (np.sqrt(np.linalg.det(precision))
                           * np.sqrt(np.linalg.det(block))))
        covs.append(ref.spd_inverse(precision) / 2.0)
    success = sum(masses) / np.sqrt(np.linalg.det(cov))
    if not success >= conditioning.MIN_SUCCESS_PROB:
        raise InvalidRegimeError(f"heralding probability {success:.3e}")
    weights = np.array(masses) / sum(masses)
    corr = np.empty((2, 2))
    for j, theta in enumerate(params.angles[:2]):
        for k, phi in enumerate(params.angles[2:]):
            proj = np.array([[np.cos(theta), np.sin(theta), 0.0, 0.0],
                             [0.0, 0.0, np.cos(phi), np.sin(phi)]])
            cov2 = np.einsum("ai,nij,bj->nab", proj, np.array(covs), proj)
            rho = cov2[:, 0, 1] / np.sqrt(cov2[:, 0, 0] * cov2[:, 1, 1])
            corr[j, k] = float(np.sum(weights * (2.0 / np.pi) * np.arcsin(rho)))
    s = corr[0, 0] + corr[0, 1] + corr[1, 0] - corr[1, 1]
    return corr, s, success


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
    for q, kernel in zip(conditioning.CLICK_WEIGHTS,
                         ((0, 0), (1, 0), (0, 1), (1, 1))):
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


def exact_sign_correlation(params, theta, phi):
    """E at 50 digits: sum_j w_j (2/pi) arcsin(c_j cos(theta + phi)), with
    c_j = -R_j[0, 1] / sqrt(R_j[0, 0] R_j[1, 1]) the correlation of the
    covariance R_j^-1 / 2."""
    with mpmath.workdps(50):
        success, det_x, terms = exact_terms(params)
        total = 0
        for q, det_b, reduced in terms:
            mass = q / (mpmath.det(reduced) * det_b * det_x)
            corr = -reduced[0, 1] / mpmath.sqrt(reduced[0, 0] * reduced[1, 1])
            total += mass * mpmath.asin(corr * mpmath.cos(theta + phi))
        return float(2 * total / (mpmath.pi * success))


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


def single_term_mixture(rho, var_x=1.0, var_y=1.0):
    cov = np.array([[var_x, rho * np.sqrt(var_x * var_y)],
                    [rho * np.sqrt(var_x * var_y), var_y]])
    return bell.BivariateMixture(weights=np.array([1.0]),
                                 covariances=cov[None, :, :])


class TestExperimentParams:
    def test_default_angles(self):
        p = bell.ExperimentParams(0.5, 0.95, 0.3, 1.0)
        assert p.angles == pytest.approx((0.0, np.pi / 2, -np.pi / 4, np.pi / 4))

    @pytest.mark.parametrize("kwargs", [
        dict(squeezing=1.0, transmittance=0.95, apd_efficiency=0.3,
             homodyne_efficiency=1.0),
        dict(squeezing=0.5, transmittance=0.0, apd_efficiency=0.3,
             homodyne_efficiency=1.0),
        dict(squeezing=0.5, transmittance=0.95, apd_efficiency=1.3,
             homodyne_efficiency=1.0),
        dict(squeezing=0.5, transmittance=0.95, apd_efficiency=0.3,
             homodyne_efficiency=0.0),
    ])
    def test_range_validation(self, kwargs):
        with pytest.raises(DomainError):
            bell.ExperimentParams(**kwargs)

    @pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf])
    def test_non_finite_angle_raises(self, angle):
        with pytest.raises(DomainError, match="angles must be finite"):
            bell.ExperimentParams(0.5, 0.95, 0.3, 1.0,
                                  angles=(angle, np.pi / 2, 0.0, 0.0))


SHAPE_TEXT = "angles must be (theta1, theta2, phi1, phi2)"

#: malformed CHSH angles and the start of the DomainError text they raise
BAD_ANGLES = {
    "str": (("a", 0.0, 0.0, 0.0), "angles must be real numbers"),
    "numeric-str": (("0.5", 0.0, 0.0, 0.0), "angles must be real numbers"),
    "none": ((None, 0.0, 0.0, 0.0), "angles must be real numbers"),
    "complex": ((1j, 0.0, 0.0, 0.0), "angles must be real numbers"),
    "scalar": (0.0, SHAPE_TEXT),
    "two": ((0.0, 1.0), SHAPE_TEXT),
    "three": ((0.0, 1.0, 2.0), SHAPE_TEXT),
    "nan": ((np.nan, 0.0, 0.0, 0.0), "angles must be finite"),
}


def heralded_chsh(angles):
    rho, _ = fock.lossy_click_conditioning(0.3, 0.95, 0.3, 16)
    return fock.fock_chsh(rho, angles)


ANGLE_ENTRY_POINTS = {
    "params": lambda angles: bell.ExperimentParams(0.5, 0.95, 0.3, 1.0,
                                                   angles=angles),
    "optimize": lambda angles: bell.optimize_lambda(0.95, 0.3, 1.0, angles),
    "fock_chsh": heralded_chsh,
}


@pytest.mark.parametrize("entry, case", [
    (entry, case) for entry in ANGLE_ENTRY_POINTS for case in BAD_ANGLES
    # ExperimentParams already refused these with the same texts
    if not (entry == "params" and case in ("two", "three", "nan"))])
def test_malformed_angles_raise_domain_error(entry, case):
    angles, text = BAD_ANGLES[case]
    with pytest.raises(DomainError) as info:
        ANGLE_ENTRY_POINTS[entry](angles)
    assert str(info.value).startswith(text)


class TestRotatedMarginal:
    def test_vanishing_squeezing_gives_no_correlation(self):
        params = bell.ExperimentParams(1e-4, 0.95, 0.3, 1.0)
        state = conditioning.conditional_state(params.output_covariance())
        marginal = bell.rotated_marginal(state, 0.0, 0.0)
        mixture_cov = (marginal.weights[:, None, None]
                       * marginal.covariances).sum(axis=0)
        assert abs(mixture_cov[0, 1]) < 1e-3

    def test_terms_positive_definite(self, realistic_state):
        marginal = bell.rotated_marginal(realistic_state, 0.4, -1.1)
        for cov in marginal.covariances:
            assert np.all(np.linalg.eigvalsh(cov) > 0)

    def test_weights_sum_to_one(self, realistic_state):
        marginal = bell.rotated_marginal(realistic_state, 0.7, 0.2)
        assert abs(marginal.weights.sum() - 1.0) < 1e-9

    def test_integrates_to_one(self, realistic_state):
        marginal = bell.rotated_marginal(realistic_state, 0.0, -np.pi / 4)
        assert abs(integrate_mixture_2d(marginal) - 1.0) < 1e-9


class TestSignCorrelation:
    def test_uncorrelated_gives_zero(self):
        assert bell.sign_correlation(single_term_mixture(0.0)) == 0.0

    def test_perfect_correlation_gives_one(self):
        assert bell.sign_correlation(single_term_mixture(1.0 - 1e-13)) == \
            pytest.approx(1.0, abs=1e-5)

    def test_near_unit_correlation_is_not_clamped(self):
        rho = 1.0 - 1e-14
        assert bell.sign_correlation(single_term_mixture(rho)) == \
            (2.0 / np.pi) * np.arcsin(rho)

    def test_correlation_above_one_raises(self):
        with pytest.raises(DomainError):
            bell.sign_correlation(single_term_mixture(1.0 + 1e-9))

    def test_accepted_terms_stay_inside_unit_correlation(self):
        # the arcsine has no clamp: near the squeezing limit every term the
        # conditioning accepts must keep |c_j| < 1
        grid = np.array(list(itertools.product(
            1.0 - 10.0 ** -np.arange(1, 15), (0.85, 0.99, 0.999999),
            (0.01, 1.0), (0.01, 1.0))))
        terms = conditioning.heralded_terms(gaussian.x_block(*grid.T))
        accepted = np.array([e is None for e in terms.errors])
        assert accepted.any()
        assert np.all(np.abs(terms.correlations[accepted]) < 1.0)

    def test_closed_form_vs_quadrature_at_reference_point(self, cut_state):
        marginal = bell.rotated_marginal(cut_state, 0.0, -np.pi / 4)
        closed = bell.sign_correlation(marginal)
        quad = bell.sign_correlation_quadrature(marginal)
        assert abs(closed - quad) < 1e-6

    def test_closed_form_vs_quadrature_random_draws(self):
        rng = np.random.default_rng(202)
        for _ in range(20):
            lam = rng.uniform(0.3, 0.65)
            t = rng.uniform(0.9, 0.99)
            eta = rng.uniform(0.1, 1.0)
            eta_bhd = rng.uniform(0.85, 1.0)
            theta, phi = rng.uniform(-np.pi, np.pi, size=2)
            params = bell.ExperimentParams(lam, t, eta, eta_bhd)
            state = conditioning.conditional_state(params.output_covariance())
            marginal = bell.rotated_marginal(state, theta, phi)
            closed = bell.sign_correlation(marginal)
            quad = bell.sign_correlation_quadrature(marginal)
            assert abs(closed - quad) < 1e-6


class TestChsh:
    def test_maximum_violation_operating_point(self):
        params = bell.ExperimentParams(0.57 / 0.99, 0.99, 1.0, 1.0)
        assert bell.chsh(params).S == pytest.approx(2.046, abs=0.005)

    def test_realistic_operating_point(self, realistic_params):
        result = bell.chsh(realistic_params)
        assert result.S == pytest.approx(2.02, abs=0.01)

    def test_degenerate_angles_cannot_violate(self):
        params = bell.ExperimentParams(0.57, 0.99, 1.0, 1.0,
                                       angles=(0.0, 0.0, 0.0, 0.0))
        assert abs(bell.chsh(params).S) <= 2.0

    def test_correlator_bounds(self, realistic_params):
        result = bell.chsh(realistic_params)
        assert np.all(np.abs(result.correlators) <= 1.0)

    def test_correlator_magnitude_bound_on_angle_grid(self, realistic_state):
        for theta in np.linspace(0.0, np.pi, 16):
            for phi in np.linspace(-np.pi, np.pi, 16):
                marginal = bell.rotated_marginal(realistic_state, theta, phi)
                assert abs(bell.sign_correlation(marginal)) <= 1.0

    def test_tsirelson_bound_random_draws(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            params = bell.ExperimentParams(
                rng.uniform(0.05, 0.8), rng.uniform(0.85, 1.0),
                rng.uniform(0.05, 1.0), rng.uniform(0.7, 1.0),
                angles=tuple(rng.uniform(-np.pi, np.pi, size=4)))
            assert abs(bell.chsh(params).S) <= 2.0 * np.sqrt(2.0) + 1e-9

    def test_opposite_angle_shift_invariance(self):
        # the heralded state is invariant under opposite-sign rotations of
        # the two analysis phases, so shifting both parties this way leaves
        # every correlator and S unchanged
        base = bell.ExperimentParams(0.6, 0.95, 0.3, 0.95)
        s0 = bell.chsh(base).S
        for delta in (0.17, -0.4, 1.1):
            t1, t2, p1, p2 = base.angles
            shifted = bell.ExperimentParams(
                0.6, 0.95, 0.3, 0.95,
                angles=(t1 + delta, t2 + delta, p1 - delta, p2 - delta))
            assert abs(bell.chsh(shifted).S - s0) < 1e-9

    def test_beamsplitter_phase_convention_invariance(self, realistic_params):
        # flipping the sign of both tap arms is a phase choice; observables
        # must not move
        p = realistic_params
        args = (p.squeezing, p.transmittance, p.apd_efficiency,
                p.homodyne_efficiency)
        state_std = conditioning.conditional_state(
            ref.component_covariance(*args))
        state_flip = conditioning.conditional_state(
            ref.component_covariance(*args, flip_taps=True))
        for theta, phi in [(0.0, -np.pi / 4), (np.pi / 2, np.pi / 4)]:
            e_std = bell.sign_correlation(
                bell.rotated_marginal(state_std, theta, phi))
            e_flip = bell.sign_correlation(
                bell.rotated_marginal(state_flip, theta, phi))
            assert abs(e_std - e_flip) < 1e-10


class TestAgainstReference:
    def test_random_draws(self):
        # E and S within 8 sum|w_j| eps of the 8x8 reference, P within that
        # relative bound of its 50-digit value.  The reference's own P is
        # off by up to about 35 sum|w_j| eps near lambda = 0.9, where it
        # inverts an x-block of condition number ~300, so P is held to the
        # reference within the bound times that condition number.
        eps = np.finfo(float).eps
        rng = np.random.default_rng(2005)
        compared = 0
        for _ in range(240):
            params = bell.ExperimentParams(
                rng.uniform(1e-3, 0.9), rng.uniform(0.85, 0.999),
                rng.uniform(0.05, 1.0), rng.uniform(0.5, 1.0),
                angles=tuple(rng.uniform(-np.pi, np.pi, size=4)))
            try:
                corr, s, success = reference_chsh(params)
            except InvalidRegimeError:
                with pytest.raises(InvalidRegimeError):
                    bell.chsh(params)
                continue
            result = bell.chsh(params)
            bound = 8.0 * result.cancellation * eps
            assert np.max(np.abs(result.correlators - corr)) <= bound
            assert abs(result.S - s) <= bound
            exact = exact_success_prob(params)
            assert abs(result.success_prob - exact) <= bound * exact
            cond = np.linalg.cond(gaussian.x_block(
                params.squeezing, params.transmittance, params.apd_efficiency,
                params.homodyne_efficiency))
            assert abs(result.success_prob - success) <= bound * cond * success
            compared += 1
        assert compared >= 200

    def test_wigner_matches_50_digit_oracle(self, cut_params, cut_state):
        # the 121 points of the fig2a cut and random points with p != 0,
        # within 4 sum|w_j| eps max|W| of the 50-digit inverse form
        rng = np.random.default_rng(2005)
        offsets = np.linspace(-3.0, 3.0, 121)
        points = np.vstack([offsets[:, None] * cli.CUT_DIRECTION,
                            rng.normal(scale=1.5, size=(40, 4))])
        exact = exact_wigner(cut_params, points)
        values = conditioning.wigner_value(cut_state, points)
        bound = (4.0 * np.abs(cut_state.weights).sum()
                 * np.finfo(float).eps * np.max(np.abs(exact)))
        assert np.max(np.abs(values - exact)) <= bound

    def test_cancellation_factor(self, realistic_params):
        result = bell.chsh(realistic_params)
        state = conditioning.conditional_state(
            realistic_params.output_covariance())
        assert result.cancellation == pytest.approx(
            np.abs(state.weights).sum(), rel=1e-12)
        assert 1.4e4 < result.cancellation < 1.6e4

    def test_chsh_builds_no_marginals(self, monkeypatch, realistic_params):
        def refuse(*args):
            raise AssertionError("chsh built a per-setting marginal")

        expected = bell.chsh(realistic_params)
        monkeypatch.setattr(bell, "rotated_marginal", refuse)
        monkeypatch.setattr(bell, "sign_correlation", refuse)
        assert bell.chsh(realistic_params).S == expected.S


def sequential_golden_max(values, lo, hi, tol, lookahead):
    """The one-point-at-a-time golden-section search, one call of values
    per point, that the lookahead rounds of `bell._golden_section_max`
    replay; lookahead is ignored."""
    def fun(x):
        return values(np.array([x]))[0]

    c = hi - (hi - lo) / bell.GOLDEN_RATIO
    d = lo + (hi - lo) / bell.GOLDEN_RATIO
    fc, fd = fun(c), fun(d)
    while abs(hi - lo) > tol:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - (hi - lo) / bell.GOLDEN_RATIO
            fc = fun(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + (hi - lo) / bell.GOLDEN_RATIO
            fd = fun(d)
    mid = 0.5 * (lo + hi)
    return mid, fun(mid)


def optimize_outcome(*args):
    """optimize_lambda's result, or the text of its OptimizationError."""
    try:
        return bell.optimize_lambda(*args)
    except OptimizationError as exc:
        return str(exc)


def optimize_rows(seed, n, homodyne_range):
    """n seeded (T, eta, eta_BHD) rows of the scan box, T in [0.9, 0.99]
    and eta in [0.1, 1]."""
    rng = np.random.default_rng(seed)
    return [(rng.uniform(0.9, 0.99), rng.uniform(0.1, 1.0),
             rng.uniform(*homodyne_range)) for _ in range(n)]


class TestOptimizeLambda:
    #: the README configuration and the README's Python example
    README_ROWS = [(0.95, 0.3, 0.95), (0.99, 1.0, 1.0)]

    @pytest.mark.parametrize("lookahead", [1, bell.LAMBDA_LOOKAHEAD])
    @pytest.mark.parametrize("tol", [1e-300, 1e-17])
    def test_search_ends_where_the_bracket_stops_shrinking(self, lookahead,
                                                           tol):
        # a bracket a few float spacings wide cannot reach tol, and the
        # one-point search would step through the same states forever; the
        # peak of -(x - 0.3)^2 is flat to rounding within 1e-8 of 0.3
        start = time.perf_counter()
        point, value = bell._golden_section_max(
            lambda xs: -(xs - 0.3) ** 2, 0.2, 0.45, tol, lookahead)
        assert time.perf_counter() - start < 1.0
        assert abs(point - 0.3) < 1e-7 and value == -(point - 0.3) ** 2

    @pytest.mark.parametrize("rows", [
        optimize_rows(181, 30, (1.0, 1.0)),
        optimize_rows(182, 30, (0.8, 1.0)),
        README_ROWS], ids=["scan-box", "lossy-homodyne", "readme"])
    def test_bitwise_equal_to_sequential_search(self, monkeypatch, rows):
        lookahead = [optimize_outcome(*row) for row in rows]
        monkeypatch.setattr(bell, "_golden_section_max",
                            sequential_golden_max)
        sequential = [optimize_outcome(*row) for row in rows]
        assert lookahead == sequential
        searched = sum(isinstance(out, tuple) for out in lookahead)
        assert searched >= 2 * len(rows) // 3

    def test_at_most_four_kernel_calls(self, monkeypatch):
        # the one-point-at-a-time search makes 19: the pre-scan, c and d,
        # 15 steps and the final midpoint
        kernel, calls = conditioning.heralded_terms, []

        def counted(x_blocks):
            calls.append(len(x_blocks))
            return kernel(x_blocks)

        monkeypatch.setattr(conditioning, "heralded_terms", counted)
        for row in [(0.95, 0.3, 1.0), *self.README_ROWS]:
            calls.clear()
            bell.optimize_lambda(*row)
            assert len(calls) <= 4

    def test_rows_bitwise_independent_of_batch(self):
        rng = np.random.default_rng(183)
        rows = {"squeezing": rng.uniform(0.05, 0.95, 31),
                "transmittance": rng.uniform(0.5, 1.0, 31),
                "apd_efficiency": rng.uniform(0.05, 1.0, 31),
                "homodyne_efficiency": rng.uniform(0.5, 1.0, 31)}
        corr, success, cancellation, errors = bell._evaluate(
            rows, bell.DEFAULT_ANGLES)
        assert not any(errors)
        for i in range(31):
            one = bell._evaluate({k: v[i:i + 1] for k, v in rows.items()},
                                 bell.DEFAULT_ANGLES)
            assert one[0][0].tobytes() == corr[i].tobytes()
            assert one[1][0] == success[i] and one[2][0] == cancellation[i]

    def test_no_interior_maximum_raises(self):
        # at 80% homodyne efficiency S rises all along the pre-scan grid
        with pytest.raises(OptimizationError) as info:
            bell.optimize_lambda(0.95, 0.3, 0.8)
        assert str(info.value) == "no interior maximum found in the pre-scan"

    def test_nothing_heralds_raises_the_refusal(self):
        # at T = 1 no photon reaches the taps: the pre-scan refuses every
        # row, and the first row's refusal is raised
        with pytest.raises(InvalidRegimeError) as info:
            bell.optimize_lambda(1.0, 0.3, 0.95)
        assert "heralding probability 0.000e+00 is not usable" in \
            str(info.value)

    def test_two_separated_maxima_raise(self, monkeypatch):
        # S(lambda) = -min(|lambda - 0.3|, |lambda - 0.7|): two peaks whose
        # pre-scan values differ by 0.004
        def two_peaks(rows, angles):
            lams = np.asarray(rows["squeezing"])
            corr = np.zeros((len(lams), 2, 2))
            corr[:, 0, 0] = -np.minimum(abs(lams - 0.3), abs(lams - 0.7))
            return corr, None, None, [None] * len(lams)

        monkeypatch.setattr(bell, "_evaluate", two_peaks)
        with pytest.raises(OptimizationError) as info:
            bell.optimize_lambda(0.95, 0.3, 1.0)
        assert str(info.value) == ("pre-scan found two comparable separated "
                                   "maxima; refusing unimodal search")

    @pytest.mark.parametrize("name, value, text", [
        ("transmittance", 1.5, "transmittance must lie in (0, 1], got 1.5"),
        ("apd_efficiency", 0.0, "apd_efficiency must lie in (0, 1], got 0.0"),
        ("homodyne_efficiency", np.nan,
         "homodyne_efficiency must lie in (0, 1], got nan"),
    ], ids=["transmittance", "apd_efficiency", "homodyne_efficiency"])
    def test_fixed_parameter_outside_domain_raises(self, name, value, text):
        fixed = dict(transmittance=0.95, apd_efficiency=0.3,
                     homodyne_efficiency=0.95)
        with pytest.raises(DomainError) as info:
            bell.optimize_lambda(**{**fixed, name: value})
        assert str(info.value) == text

    def test_ideal_product_near_quoted_value(self):
        lam_opt, _ = bell.optimize_lambda(0.99, 1.0, 1.0)
        assert lam_opt * 0.99 == pytest.approx(0.57, abs=0.02)

    def test_transmittance_ordering(self):
        _, s_95 = bell.optimize_lambda(0.95, 1.0, 1.0)
        _, s_90 = bell.optimize_lambda(0.90, 1.0, 1.0)
        assert 2.0 <= s_95 <= 2.05
        assert s_95 > s_90

    def test_local_maximality(self):
        lam_opt, s_max = bell.optimize_lambda(0.95, 1.0, 1.0)
        for shift in (-0.05, 0.05):
            params = bell.ExperimentParams(lam_opt + shift, 0.95, 1.0, 1.0)
            assert bell.chsh(params).S < s_max


class TestSweep:
    def test_apd_efficiency_sweep_is_flat(self):
        fixed = bell.ExperimentParams(0.57 / 0.95, 0.95, 0.3, 1.0)
        points = bell.sweep("apd_efficiency", np.linspace(0.05, 1.0, 12), fixed)
        values = [p.S for p in points]
        assert max(values) - min(values) < 0.02

    def test_homodyne_sweep_crosses_two(self):
        fixed = bell.ExperimentParams(0.57 / 0.95, 0.95, 0.3, 1.0)
        points = bell.sweep("homodyne_efficiency",
                            np.linspace(0.85, 1.0, 16), fixed)
        crossings = [(a.value, b.value) for a, b in zip(points, points[1:])
                     if a.S < 2.0 <= b.S]
        assert len(crossings) == 1
        lo, hi = crossings[0]
        assert 0.88 <= lo <= hi <= 0.93

    def test_vacuum_endpoint_recorded_not_raised(self):
        fixed = bell.ExperimentParams(0.5, 0.95, 0.3, 1.0)
        points = bell.sweep("squeezing", [0.0, 0.3, 0.5], fixed)
        assert points[0].error is not None
        assert "invalid-regime" in points[0].error
        assert points[1].error is None and np.isfinite(points[1].S)

    def test_rows_ordered_and_thread_independent(self):
        fixed = bell.ExperimentParams(0.5, 0.95, 0.3, 1.0)
        grid = [0.6, 0.3, 0.5, 0.4]
        seq = bell.sweep("squeezing", grid, fixed)
        assert [p.value for p in seq] == sorted(grid)

    def test_batched_rows_equal_single_chsh_calls(self):
        rng = np.random.default_rng(31)
        fixed = bell.ExperimentParams(0.6, 0.95, 0.3, 0.95,
                                      angles=tuple(rng.uniform(-3, 3, 4)))
        for axis, grid in (("squeezing", np.linspace(0.05, 0.90, 35)),
                           ("apd_efficiency", np.linspace(0.05, 1.0, 20)),
                           ("homodyne_efficiency", np.linspace(0.8, 1.0, 21))):
            for point in bell.sweep(axis, grid, fixed):
                single = bell.chsh(replace(fixed, **{axis: point.value}))
                assert abs(point.S - single.S) <= 1e-15
                assert abs(point.success_prob - single.success_prob) \
                    <= 1e-15 * single.success_prob

    def test_bad_rows_recorded_with_the_scalar_error_text(self):
        fixed = bell.ExperimentParams(0.5, 0.95, 0.3, 1.0)
        points = bell.sweep("squeezing", [0.0, 0.4, 1.2], fixed)
        for point in (points[0], points[2]):
            with pytest.raises(CVBellError) as info:
                bell.chsh(replace(fixed, squeezing=point.value))
            assert point.error == str(info.value)
            assert np.isnan(point.S) and np.isnan(point.success_prob)
        assert "invalid-regime" in points[0].error
        assert "squeezing must lie in [0, 1)" in points[2].error
        assert points[1] == bell.sweep("squeezing", [0.4], fixed)[0]
        eff = bell.sweep("apd_efficiency", [0.0, 0.5], fixed)
        with pytest.raises(DomainError) as info:
            bell.ExperimentParams(0.5, 0.95, 0.0, 1.0)
        assert eff[0].error == str(info.value)
        assert eff[1].error is None
        assert bell.sweep("squeezing", [], fixed) == []

    def test_unknown_axis(self):
        fixed = bell.ExperimentParams(0.5, 0.95, 0.3, 1.0)
        with pytest.raises(DomainError):
            bell.sweep("transmittance", [0.9], fixed)
