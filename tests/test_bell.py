from dataclasses import replace

import mpmath
import numpy as np
import pytest

from cvbell import bell, conditioning, gaussian
from cvbell.errors import CVBellError, DomainError, InvalidRegimeError
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


def exact_success_prob(params):
    """P at 50 digits: the inverse-form conditioning on the x-block, whose
    entries are the closed form of `gaussian.x_block` in exact arithmetic."""
    with mpmath.workdps(50):
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
        total = 0
        for q, kernel in zip(conditioning.CLICK_WEIGHTS,
                             ((0, 0), (1, 0), (0, 1), (1, 1))):
            block = gamma[2:4, 2:4] + mpmath.diag(kernel)
            reduced = gamma[0:2, 0:2] \
                - gamma[0:2, 2:4] * block ** -1 * gamma[2:4, 0:2]
            total += q / (mpmath.det(reduced) * mpmath.det(block))
        return float(total / mpmath.det(x))


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

    def test_clamp_counter_increments(self):
        before = bell.clamp_count()
        bell.sign_correlation(single_term_mixture(1.0 - 1e-14))
        assert bell.clamp_count() == before + 1

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


class TestOptimizeLambda:
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
