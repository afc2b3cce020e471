import itertools
import time
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from cvbell import bell, cli, conditioning, fock, gaussian, inputs
from cvbell.errors import (CVBellError, DomainError, InvalidRegimeError,
                           OptimizationError, SingularMatrixError)
from conftest import integrate_mixture_2d
import closed_form_reference as per_call
from closed_form_reference import (exact_chsh, exact_success_prob,
                                   exact_wigner)
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

    @pytest.mark.parametrize("value", ["0.6", 0.6 + 0j, None,
                                       np.array([0.6, 0.5]), True],
                             ids=["str", "complex", "none", "two-element",
                                  "bool"])
    def test_parameter_must_be_one_real_number(self, value):
        fields = dict(squeezing=0.5, transmittance=0.95, apd_efficiency=0.3,
                      homodyne_efficiency=1.0)
        for name in gaussian.PARAMS:
            with pytest.raises(DomainError) as info:
                bell.ExperimentParams(**{**fields, name: value})
            assert str(info.value) == \
                f"{name} must be a real number, got {value!r}"

    def test_parameters_stored_as_floats(self):
        p = bell.ExperimentParams(np.float32(0.5), 1, np.float64(0.3),
                                  np.int64(1))
        assert [type(getattr(p, name)) for name in gaussian.PARAMS] == \
            [float] * 4
        assert (p.squeezing, p.transmittance, p.homodyne_efficiency) == \
            (0.5, 1.0, 1.0)

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
    # Python counts True as the number 1; an angle of True is refused
    "bool": ((True, 0.0, 0.0, 0.0), "angles must be real numbers"),
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
        lam, trans, eta, _ = grid.T
        _, _, correlations, _, errors = conditioning._condition(
            gaussian.x_entries(*grid.T),
            conditioning.success_probability(lam, trans, eta))
        accepted = np.array([e is None for e in errors])
        assert accepted.any()
        assert np.all(np.abs(correlations[:, accepted]) < 1.0)

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


def domain_sweep_rows(n, seed):
    """n seeded parameter rows over the whole domain.  Half the squeezings
    are 1 - 10^U(-12, 0), the rest uniform in [0, 1), and the other
    parameters uniform in (0, 1]; 1 row in 10 is from the small-P corner
    (lambda 10^U(-4, -1), T in [0.99, 0.9999]), and 1 row in 50 holds
    -0.5, 0, 1, 1.5 or NaN in one or two parameters."""
    rng = np.random.default_rng(seed)
    lam = np.where(rng.random(n) < 0.5, 1.0 - 10.0 ** rng.uniform(-12, 0, n),
                   rng.random(n))
    rows = {"squeezing": lam, "transmittance": 1.0 - rng.random(n),
            "apd_efficiency": 1.0 - rng.random(n),
            "homodyne_efficiency": 1.0 - rng.random(n)}
    corner = rng.random(n) < 0.1
    rows["squeezing"][corner] = 10.0 ** rng.uniform(-4, -1, corner.sum())
    rows["transmittance"][corner] = rng.uniform(0.99, 0.9999, corner.sum())
    for i in np.flatnonzero(rng.random(n) < 1 / 50):
        for name in rng.choice(list(gaussian.PARAMS), rng.integers(1, 3),
                               replace=False):
            rows[name][i] = rng.choice([-0.5, 0.0, 1.0, 1.5, np.nan])
    return rows


def stacked(rows):
    """The (4, n) parameter rows that `bell._evaluate` takes, of a dict of
    arrays by name."""
    return np.array([rows[name] for name in gaussian.PARAMS])


def error_texts(errors):
    return [None if e is None else (type(e), str(e)) for e in errors]


def x_condition_number(params):
    """Eigenvalue condition number of the float x-block of params, at 50
    digits."""
    x = gaussian.x_block(params.squeezing, params.transmittance,
                         params.apd_efficiency, params.homodyne_efficiency)
    with mpmath.workdps(50):
        eigs = mpmath.eigsy(mpmath.matrix(x.tolist()), eigvals_only=True)
        return float(max(eigs) / min(eigs))


def params_of(rows, i, angles=bell.DEFAULT_ANGLES):
    return bell.ExperimentParams(*(rows[name][i] for name in gaussian.PARAMS),
                                 angles=angles)


def closed_form_budget(cancellation):
    """Rounding budget of a closed-form correlator: 8 sum|w_j| eps + 4 eps."""
    eps = np.finfo(float).eps
    return 8.0 * cancellation * eps + 4.0 * eps


class TestAgainstPerCallRoute:
    """The closed form against `closed_form_reference`, the route on the 16
    entries of X: the generic (n, 4, 4) kernel with P the sum of the four
    masses.  Domain refusals are bitwise; the kernel's refusals keep their
    types except where the 50-digit values decide otherwise; where the
    reference is accurate, the values agree within the closed-form budget.
    `TestFiftyDigits` holds the values to 50 digits."""

    def test_evaluate_refusals(self):
        rows = domain_sweep_rows(4000, 2501)
        angles = tuple(np.random.default_rng(2502).uniform(-np.pi, np.pi, 4))
        corr, success, cancellation, errors = bell._evaluate(stacked(rows),
                                                             angles)
        ref_corr, ref_success, ref_cancellation, ref_errors = \
            per_call.evaluate(rows, angles)
        floor = conditioning.MIN_SUCCESS_PROB
        regained = 0
        for i, (error, ref) in enumerate(zip(errors, ref_errors)):
            if isinstance(ref, DomainError):
                assert error_texts([error]) == error_texts([ref])
            elif InvalidRegimeError in (type(error), type(ref)):
                # the 50-digit P decides the floor, and the text quotes it
                exact = exact_success_prob(params_of(rows, i))
                assert isinstance(error, InvalidRegimeError) == (exact < floor)
                if error is not None:
                    assert str(error) == (
                        f"invalid-regime: heralding probability {exact:.3e} "
                        "is not usable; the input state cannot trigger both "
                        "detectors")
            elif isinstance(error, SingularMatrixError):
                # X is refused by both, its condition estimate within
                # 4 eps kappa relative of the 50-digit one
                assert type(ref) is SingularMatrixError
                kappa = x_condition_number(params_of(rows, i))
                assert kappa > conditioning.CONDITION_LIMIT
                estimate = error.condition_estimate
                assert estimate == np.inf or abs(estimate - kappa) <= \
                    4.0 * np.finfo(float).eps * kappa * kappa
            elif ref is not None:
                # the 4x4 Woodbury route lost terms near lambda -> 1 that
                # the six-entry forms keep (`TestFiftyDigits`)
                assert type(ref) is SingularMatrixError and error is None
                assert rows["squeezing"][i] > 1.0 - 1e-8
                regained += 1
            elif rows["squeezing"][i] < 0.95:
                bound = closed_form_budget(cancellation[i])
                assert np.max(np.abs(corr[i] - ref_corr[i])) <= bound
                assert abs(success[i] - ref_success[i]) <= \
                    bound * success[i]
                assert abs(cancellation[i] - ref_cancellation[i]) <= \
                    bound * cancellation[i]
        assert regained > 0
        # the sweep reaches every kind of row: usable, out of domain,
        # unheralded and singular
        kinds = {type(e) for e in errors}
        assert kinds == {type(None), DomainError, InvalidRegimeError,
                         SingularMatrixError}

    def test_kernel_against_generic_reference(self):
        # the kernel with P the sum of the masses, as `conditional_state`
        # runs it, against the generic kernel on the laid-out blocks of
        # squeezing at most 0.999; indefinite, ill-conditioned and NaN
        # blocks included.  The generic kernel calls a NaN block
        # asymmetric, this one not positive definite.
        rows = domain_sweep_rows(2000, 2503)
        args = [np.nan_to_num(np.clip(rows[name], 1e-3, 0.999), nan=0.5)
                for name in gaussian.PARAMS]
        entries = gaussian.x_entries(*args)
        rng = np.random.default_rng(2504)
        entries[4, rng.random(entries.shape[1]) < 0.02] *= -1.0
        entries[:, rng.random(entries.shape[1]) < 0.02] = \
            np.array([[1.0, 0.0, 0.0, 0.0, 1e-13, 0.0]]).T
        nan = rng.random(entries.shape[1]) < 0.02
        entries[3, nan] = np.nan
        success, weights, correlations, _, errors = \
            conditioning._condition(entries)
        expected = per_call.heralded_terms(
            gaussian.x_block_of_entries(entries).reshape(-1, 4, 4))
        assert all(str(errors[i]) == "matrix is not positive definite "
                   "(condition estimate inf)" and
                   str(expected.errors[i]) == "matrix is not symmetric"
                   for i in np.flatnonzero(nan))
        assert [type(e) for e, bad in zip(errors, nan) if not bad] == \
            [type(e) for e, bad in zip(expected.errors, nan) if not bad]
        # the texts agree where they quote no rounded number
        for error, ref, bad in zip(errors, expected.errors, nan):
            if getattr(error, "condition_estimate", 0.0) == np.inf \
                    and not bad:
                assert str(error) == str(ref)
        # the generic kernel's 4x4 Woodbury route exceeds the budget
        # from about lambda = 0.998 (3 sum|w_j| eps at 0.999)
        ok = np.array([e is None for e in errors]) & (args[0] < 0.95)
        assert ok.sum() > 1000
        bound = closed_form_budget(conditioning.cancellation(weights)[ok])
        assert np.all(np.abs(success[ok] - expected.success_prob[ok])
                      <= bound * success[ok])
        for cosine in (1.0, 0.7, -0.3):
            values = [bell._arcsine_mean(w[ok], c[ok] * cosine)
                      for w, c in ((weights.T, correlations.T),
                                   (expected.weights, expected.correlations))]
            assert np.all(np.abs(values[0] - values[1]) <= bound)

    def test_x_block_bitwise(self):
        rows = domain_sweep_rows(1000, 2505)
        ok = np.all([np.isfinite(v) & (v > 0) & (v < 1)
                     for v in rows.values()], axis=0)
        args = [rows[name][ok] for name in gaussian.PARAMS]
        assert gaussian.x_block(*args).tobytes() == \
            per_call.x_block(*args).tobytes()
        grid = (np.linspace(0.0, 0.9, 5), 0.95, np.array([[0.3], [1.0]]), 1.0)
        for case in (grid, (0.6, 0.95, 0.3, 0.95)):
            block = gaussian.x_block(*case)
            assert block.shape == per_call.x_block(*case).shape
            assert block.tobytes() == per_call.x_block(*case).tobytes()
        for case in ((1.0, 0.95, 0.3, 0.95), ([0.5, -0.5], 0.0, 0.3, 0.95),
                     (0.5, 0.95, [0.3, np.nan], 1.5)):
            with pytest.raises(DomainError) as info:
                gaussian.x_block(*case)
            with pytest.raises(DomainError) as expected:
                per_call.x_block(*case)
            assert str(info.value) == str(expected.value)


class TestRowAndBatch:
    """One row runs through the closed form as float64 scalars, a batch as
    (n,) arrays, in the same code: the values are bitwise the same, and so
    are the refusals, type and text."""

    def test_chsh_equals_the_batch_row_bitwise(self):
        # the whole domain: 1 - lambda down to 1e-12, the small-P corner
        # and values outside the domains
        rows = domain_sweep_rows(3000, 2701)
        values = stacked(rows)
        angles = tuple(np.random.default_rng(2702).uniform(-np.pi, np.pi, 4))
        corr, success, cancellation, errors = bell._evaluate(values, angles)
        refused = set()
        for i, error in enumerate(errors):
            try:
                result = bell.chsh(params_of(rows, i, angles))
            except CVBellError as exc:
                assert error_texts([exc]) == error_texts([error])
                refused.add(type(exc))
                continue
            assert error is None
            assert result.correlators.shape == (2, 2)
            assert result.correlators.tobytes() == corr[i].tobytes()
            assert result.S == bell.chsh_value(corr[i])
            assert result.success_prob == success[i]
            assert result.cancellation == cancellation[i]
        assert refused == {DomainError, InvalidRegimeError,
                           SingularMatrixError}
        assert sum(rows["squeezing"][i] > 1.0 - 1e-8 and errors[i] is None
                   for i in range(len(errors))) > 100
        assert sum(cancellation[i] > 1e10 for i in range(len(errors))
                   if errors[i] is None) > 10

    def test_one_row_equals_its_batch_row_bitwise(self):
        # a (4,) row, out-of-domain rows included, gives the batch's values
        # and NaNs byte for byte, and the same refusal
        rows = domain_sweep_rows(600, 2703)
        values = stacked(rows)
        angles = tuple(np.random.default_rng(2704).uniform(-np.pi, np.pi, 4))
        batch = bell._evaluate(values, angles)
        for i in range(values.shape[1]):
            corr, success, cancellation, errors = bell._evaluate(values[:, i],
                                                                 angles)
            assert corr.shape == (2, 2) and np.ndim(success) == 0
            assert corr.tobytes() == batch[0][i].tobytes()
            assert np.float64(success).tobytes() == batch[1][i].tobytes()
            assert np.float64(cancellation).tobytes() == \
                batch[2][i].tobytes()
            assert error_texts(errors) == error_texts([batch[3][i]])

    def test_mass_sum_row_equals_its_batch_row_bitwise(self):
        # the branch with P the sum of the masses, which `conditional_state`
        # runs: a (6,) row of the whole domain's entries gives the (6, n)
        # batch's values and NaNs byte for byte, and the same refusal
        rows = domain_sweep_rows(1500, 2705)
        with np.errstate(all="ignore"):
            entries = gaussian.x_entries(*stacked(rows))
        batch = conditioning._condition(entries)
        kinds = set()
        for i in range(entries.shape[1]):
            success, weights, correlations, sigmas, errors = \
                conditioning._condition(entries[:, i])
            assert np.ndim(success) == 0 and weights.shape == (4,)
            assert np.float64(success).tobytes() == batch[0][i].tobytes()
            for one, values in zip((weights, correlations, *sigmas),
                                   (batch[1], batch[2], *batch[3])):
                assert one.tobytes() == values[:, i].tobytes()
            assert error_texts(errors) == error_texts([batch[4][i]])
            kinds.add(type(errors[0]))
        assert kinds == {type(None), InvalidRegimeError, SingularMatrixError}

    def test_chsh_runs_the_kernel_on_scalars(self, monkeypatch):
        kernel, shapes = conditioning._condition, []

        def recorded(entries, success_prob=None):
            shapes.append([np.shape(e) for e in entries])
            return kernel(entries, success_prob)

        monkeypatch.setattr(conditioning, "_condition", recorded)
        bell.chsh(bell.ExperimentParams(0.6, 0.95, 0.3, 0.95))
        assert shapes == [[()] * 6]


class TestFiftyDigits:
    """The closed form against its 50-digit evaluation: P within 4 eps
    relative, E within 8 sum|w_j| eps + 4 eps, on the whole domain."""

    def test_whole_domain_sweep(self):
        # 1 - lambda down to 1e-12 for half the rows, the small-P corner
        # for 1 in 10; out-of-domain rows are dropped by _evaluate
        eps = np.finfo(float).eps
        rows = domain_sweep_rows(240, 2601)
        angles = tuple(np.random.default_rng(2602).uniform(-np.pi, np.pi, 4))
        corr, success, cancellation, errors = bell._evaluate(stacked(rows),
                                                             angles)
        accepted = [i for i, e in enumerate(errors) if e is None]
        assert len(accepted) > 200
        assert sum(rows["squeezing"][i] > 1.0 - 1e-6 for i in accepted) > 30
        assert sum(cancellation[i] > 1e6 for i in accepted) > 5
        for i in accepted:
            exact_corr, exact_p = exact_chsh(params_of(rows, i, angles))
            assert abs(success[i] - exact_p) <= 4.0 * eps * exact_p
            assert np.max(np.abs(corr[i] - exact_corr)) <= \
                closed_form_budget(cancellation[i])

    def test_squeezing_limit_row(self):
        # 1 - lambda = 1e-10 and 1% homodyne efficiency: sum|w_j| is
        # 1.00000002, and E keeps every digit
        params = bell.ExperimentParams(1.0 - 1e-10, 0.95, 0.7, 0.01)
        result = bell.chsh(params)
        exact_corr, _ = exact_chsh(params)
        assert result.cancellation < 1.0 + 1e-7
        assert np.max(np.abs(result.correlators - exact_corr)) <= 1e-15

    @pytest.mark.parametrize("params", [
        (0.01, 0.999, 0.05, 0.9),
        (0.0012185254812659549, 0.999369947482258, 0.15539339112362388,
         0.8867954410898521)], ids=["corner", "near-floor"])
    def test_small_p_corner_rows(self, params):
        # sum|w_j| = 1.6e13 and 2.8e14: E inside the budget, and inside
        # the bounds the benchmark checks on every accepted row
        params = bell.ExperimentParams(*params)
        result = bell.chsh(params)
        exact_corr, _ = exact_chsh(params)
        assert result.cancellation > 1e13
        assert np.max(np.abs(result.correlators - exact_corr)) <= \
            closed_form_budget(result.cancellation)
        assert np.all(np.abs(result.correlators) <= 1.0 + 1e-12)
        assert abs(result.S) <= 2.0 * np.sqrt(2.0)

    @pytest.mark.parametrize("params", [
        (0.0001388749894337854, 0.9983564117360526, 0.522215309595589,
         0.9698863717351676),
        (0.0012185254812659549, 0.999369947482258, 0.15539339112362388,
         0.8867954410898521)], ids=["below", "above"])
    def test_refusal_floor_follows_fifty_digit_p(self, params):
        # two rows whose 50-digit P lies within 0.2% of MIN_SUCCESS_PROB
        # (1.4208e-14 and 1.4233e-14 against 1.4211e-14); the sum of the
        # four masses put each on either side of the floor
        params = bell.ExperimentParams(*params)
        exact = exact_success_prob(params)
        assert abs(exact / conditioning.MIN_SUCCESS_PROB - 1.0) < 2e-3
        if exact < conditioning.MIN_SUCCESS_PROB:
            with pytest.raises(InvalidRegimeError) as info:
                bell.chsh(params)
            assert f"heralding probability {exact:.3e}" in str(info.value)
        else:
            assert bell.chsh(params).success_prob == pytest.approx(
                exact, rel=4.0 * np.finfo(float).eps)

    def test_point_corner_rows_bounded(self):
        # the benchmark's small-P box: every row is accepted inside the
        # correlator and Tsirelson bounds, or refused for its P
        rng = np.random.default_rng(2603)
        n = 2000
        rows = {"squeezing": 10.0 ** rng.uniform(-4.0, -1.0, n),
                "transmittance": rng.uniform(0.99, 0.9999, n),
                "apd_efficiency": rng.uniform(0.1, 1.0, n),
                "homodyne_efficiency": rng.uniform(0.85, 1.0, n)}
        accepted = 0
        for _ in range(4):
            angles = tuple(rng.uniform(-np.pi, np.pi, 4))
            corr, _, _, errors = bell._evaluate(stacked(rows), angles)
            ok = np.array([e is None for e in errors])
            assert all(isinstance(e, InvalidRegimeError)
                       for e in errors if e is not None)
            assert np.all(np.abs(corr[ok]) <= 1.0 + 1e-12)
            assert np.all(np.abs(bell.chsh_value(corr[ok]))
                          <= 2.0 * np.sqrt(2.0))
            accepted += ok.sum()
        assert 0 < accepted < 4 * n


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
        kernel, calls = conditioning._condition, []

        def counted(entries, success_prob=None):
            calls.append(entries.shape[1])
            return kernel(entries, success_prob)

        monkeypatch.setattr(conditioning, "_condition", counted)
        for row in [(0.95, 0.3, 1.0), *self.README_ROWS]:
            calls.clear()
            bell.optimize_lambda(*row)
            assert 1 <= len(calls) <= 4

    def test_rows_bitwise_independent_of_batch(self):
        rng = np.random.default_rng(183)
        rows = {"squeezing": rng.uniform(0.05, 0.95, 31),
                "transmittance": rng.uniform(0.5, 1.0, 31),
                "apd_efficiency": rng.uniform(0.05, 1.0, 31),
                "homodyne_efficiency": rng.uniform(0.5, 1.0, 31)}
        corr, success, cancellation, errors = bell._evaluate(
            stacked(rows), bell.DEFAULT_ANGLES)
        assert not any(errors)
        for i in range(31):
            one = bell._evaluate(stacked(rows)[:, i:i + 1],
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
        def two_peaks(values, angles):
            lams = np.asarray(values[0])
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

    @pytest.mark.parametrize("value", ["0.95", 0.95 + 0j, None,
                                       np.array([0.95, 0.9]), True],
                             ids=["str", "complex", "none", "two-element",
                                  "bool"])
    def test_fixed_parameter_must_be_one_real_number(self, value):
        fixed = dict(transmittance=0.95, apd_efficiency=0.3,
                     homodyne_efficiency=1.0)
        for name in fixed:
            with pytest.raises(DomainError) as info:
                bell.optimize_lambda(**{**fixed, name: value})
            assert str(info.value) == \
                f"{name} must be a real number, got {value!r}"

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

    def test_nan_row_ordered_last(self):
        fixed = bell.ExperimentParams(0.5, 0.95, 0.3, 1.0)
        points = bell.sweep("squeezing", [0.99, np.nan, 0.9, 0.95], fixed)
        assert [p.value for p in points[:3]] == [0.9, 0.95, 0.99]
        assert np.isnan(points[3].value)
        assert points[3].error == "squeezing must lie in [0, 1), got nan"

    def test_batched_rows_equal_single_chsh_calls(self):
        rng = np.random.default_rng(31)
        fixed = bell.ExperimentParams(0.6, 0.95, 0.3, 0.95,
                                      angles=tuple(rng.uniform(-3, 3, 4)))
        for axis, grid in (("squeezing", np.linspace(0.05, 0.90, 35)),
                           ("apd_efficiency", np.linspace(0.05, 1.0, 20)),
                           ("homodyne_efficiency", np.linspace(0.8, 1.0, 21))):
            for point in bell.sweep(axis, grid, fixed):
                single = bell.chsh(replace(fixed, **{axis: point.value}))
                assert point.S == single.S
                assert point.success_prob == single.success_prob

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

    @pytest.mark.parametrize("value", ["0.5", b"0.5", True, np.True_,
                                       0.5 + 0j, None, np.array([0.5])],
                             ids=["str", "bytes", "bool", "numpy-bool",
                                  "complex", "none", "array"])
    def test_grid_value_not_a_real_number_raises(self, monkeypatch, value):
        fixed = bell.ExperimentParams(0.5, 0.95, 0.3, 1.0)

        def refuse(*args):
            raise AssertionError("sweep evaluated a refused grid")

        monkeypatch.setattr(bell, "_evaluate", refuse)
        for axis in inputs.SWEEP_KEYS.values():
            for grid in ([value], [0.4, value], (0.4, np.nan, value)):
                with pytest.raises(DomainError) as info:
                    bell.sweep(axis, grid, fixed)
                # numpy reads [array([0.5])] as a grid of shape (1, 1)
                assert str(info.value) == (
                    f"{axis} must form a vector, got shape (1, 1)"
                    if grid == [value] and isinstance(value, np.ndarray)
                    else f"{axis} must be a real number, got {value!r}")

    @pytest.mark.parametrize("grid", [np.array(["0.5", "0.4"]),
                                      np.array([True, False]),
                                      np.array([0.5, 0.4j])],
                             ids=["str", "bool", "complex"])
    def test_array_grid_of_other_dtype_raises(self, grid):
        fixed = bell.ExperimentParams(0.5, 0.95, 0.3, 1.0)
        with pytest.raises(DomainError) as info:
            bell.sweep("squeezing", grid, fixed)
        assert str(info.value) == \
            f"squeezing must be a real number, got {grid[0]!r}"

    def test_real_array_grid_is_checked_by_its_dtype(self, monkeypatch):
        # a real-dtype array is accepted as a whole, with no check per point
        fixed = bell.ExperimentParams(0.5, 0.95, 0.3, 1.0)
        expected = bell.sweep("squeezing", [0.3, np.nan, 0.2, 1], fixed)

        def refuse(*args):
            raise AssertionError("a real array grid was checked per point")

        monkeypatch.setattr(inputs, "real", refuse)
        # NaN != NaN, so the rows compare by repr
        for grid in (np.array([0.3, np.nan, 0.2, 1.0]),
                     np.array([0.3, 0.0, np.nan, 0.0, 0.2, 0.0, 1.0])[::2]):
            assert repr(bell.sweep("squeezing", grid, fixed)) == \
                repr(expected)
        ints = bell.sweep("squeezing", np.array([1, 0]), fixed)
        assert [p.value for p in ints] == [0.0, 1.0]
        assert all(p.error is not None for p in ints)

    def test_unknown_axis(self):
        fixed = bell.ExperimentParams(0.5, 0.95, 0.3, 1.0)
        with pytest.raises(DomainError):
            bell.sweep("transmittance", [0.9], fixed)
