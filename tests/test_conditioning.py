import warnings

import numpy as np
import pytest

from cvbell import bell, conditioning, fock, gaussian
from cvbell.errors import DomainError, InvalidRegimeError, SingularMatrixError
from closed_form_reference import exact_sign_correlation, exact_success_prob
from conftest import integrate_wigner_4d

CUT_DIRECTION = np.array([1.0, 0.0, -1.0, 0.0]) / np.sqrt(2.0)


class TestConditionalState:
    def test_vacuum_input_raises(self):
        cov = gaussian.output_covariance(0.0, 0.95, 0.3, 0.95)
        with pytest.raises(InvalidRegimeError):
            conditioning.conditional_state(cov)

    def test_click_weights(self, cut_state):
        assert conditioning.CLICK_WEIGHTS == (1, -2, -2, 4)
        # each term's signed mass carries the sign of its click weight
        assert np.array_equal(np.sign(cut_state.weights),
                              np.sign(conditioning.CLICK_WEIGHTS))

    def test_term_shapes(self, cut_state):
        assert cut_state.weights.shape == (4,)
        assert cut_state.covariances.shape == (4, 2, 2)
        for cov in cut_state.covariances:
            assert np.array_equal(cov, cov.T)
            assert np.all(np.linalg.eigvalsh(cov) > 0)

    @pytest.mark.parametrize("kwargs", [
        dict(squeezing=0.5, transmittance=0.95, apd_efficiency=0.3,
             homodyne_efficiency=1.0),
        dict(squeezing=0.6, transmittance=0.95, apd_efficiency=0.3,
             homodyne_efficiency=0.95),
    ])
    def test_normalization(self, kwargs):
        state = conditioning.conditional_state(
            gaussian.output_covariance(kwargs["squeezing"],
                                       kwargs["transmittance"],
                                       kwargs["apd_efficiency"],
                                       kwargs["homodyne_efficiency"]))
        assert abs(integrate_wigner_4d(state) - 1.0) < 1e-3

    def test_success_prob_in_unit_interval(self, cut_state, realistic_state):
        for state in (cut_state, realistic_state):
            assert 0.0 < state.success_prob <= 1.0

    def test_negative_region_on_cut(self, cut_state):
        offsets = np.linspace(-3.0, 3.0, 121)
        cut = conditioning.wigner_cut(cut_state, CUT_DIRECTION, offsets)
        assert cut[:, 1].min() < 0.0

    def test_pointwise_vs_fock(self, cut_state, fock_cut_state):
        rho, _ = fock_cut_state
        offsets = np.linspace(-3.0, 3.0, 41)
        points = offsets[:, None] * CUT_DIRECTION[None, :]
        w_gauss = conditioning.wigner_value(cut_state, points)
        w_fock = fock.wigner_values(rho, points)
        mask = np.abs(w_gauss) > 1e-8
        rel = np.abs((w_gauss[mask] - w_fock[mask]) / w_gauss[mask])
        assert rel.max() < 1e-6


def entries_of(*params):
    """The (6, 1) entries of one parameter row."""
    return gaussian.x_entries(*(np.array([float(v)]) for v in params))


#: the six entries of X = I
IDENTITY = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])


class TestHeraldedTerms:
    """The (w_j, Sigma_j) terms of `conditioning._condition` and the record
    `conditional_state` builds of them."""

    def test_ill_conditioned_x_block_refused(self):
        # X = diag(1e-14, 1e-14, 1, 1), invariant under the joint swap
        entries = IDENTITY.copy()
        entries[0] = 1e-14
        error = conditioning._condition(entries)[4][0]
        assert isinstance(error, SingularMatrixError)
        assert error.condition_estimate > 1e12
        x = gaussian.x_block_of_entries(entries)
        with pytest.raises(SingularMatrixError) as info:
            conditioning.conditional_state(gaussian.from_x_block(x))
        assert str(info.value) == str(error)

    def test_bad_rows_do_not_touch_good_rows(self):
        good = entries_of(0.6, 0.95, 0.3, 0.95)[:, 0]
        singular = IDENTITY.copy()
        singular[4] = 0.0
        vacuum = entries_of(0.0, 0.95, 0.3, 0.95)[:, 0]
        stack = np.column_stack([good, singular, vacuum, good])
        # the caller refuses the last row by its NaN P
        success = conditioning.success_probability(
            np.array([0.6, 0.5, 0.0, 0.6]), 0.95, 0.3)
        success[3] = np.nan
        prob, weights, correlations, sigmas, errors = \
            conditioning._condition(stack, success)
        assert errors[0] is None
        assert isinstance(errors[1], SingularMatrixError)
        assert isinstance(errors[2], InvalidRegimeError)
        assert isinstance(errors[3], InvalidRegimeError)
        for values in (prob, weights, correlations, *sigmas):
            assert np.all(np.isnan(values[..., 1:]))
        single = conditioning._condition(good[:, None], success[:1])
        assert single[0].tobytes() == prob[:1].tobytes()
        for values, one in zip((weights, correlations, *sigmas),
                               (single[1], single[2], *single[3])):
            assert one.tobytes() == values[:, :1].tobytes()

    def test_refusal_names_the_first_failing_check(self):
        # checks run in the order X, P, Sigma_j; the last row fails X and
        # P, and reports X
        good = entries_of(0.6, 0.95, 0.3, 0.95)[:, 0]
        singular = good.copy()
        singular[0] = 0.0
        singular_vacuum = IDENTITY.copy()
        singular_vacuum[0] = 0.0
        _, _, _, sigmas, errors = conditioning._condition(
            np.column_stack([good, singular, IDENTITY, singular_vacuum]))
        not_pd = "matrix is not positive definite (condition estimate inf)"
        expected = [
            None,
            (SingularMatrixError, not_pd),
            (InvalidRegimeError, "invalid-regime: heralding probability "
             "0.000e+00 is not usable; the input state cannot trigger both "
             "detectors"),
            (SingularMatrixError, not_pd),
        ]
        assert [e and (type(e), str(e)) for e in errors] == expected
        assert np.all(np.isnan(np.array(sigmas)[..., 1:]))
        # an out-of-domain sweep row reports its parameter, not the kernel
        fixed = bell.ExperimentParams(0.6, 0.95, 0.3, 0.95)
        bad, ok = bell.sweep("homodyne_efficiency", [0.0, 0.95], fixed)
        assert bad.error == "homodyne_efficiency must lie in (0, 1], got 0.0"
        assert np.isnan(bad.S) and np.isnan(bad.success_prob)
        assert ok.error is None and ok.S == bell.chsh(fixed).S

    @pytest.mark.parametrize("gap, others", [(1e-9, (0.95, 0.3, 0.3)),
                                             (1e-10, (0.95, 0.7, 0.01)),
                                             (1e-11, (0.95, 0.01, 0.01))],
                             ids=["1e-9", "1e-10", "1e-11"])
    def test_extreme_squeezing_matches_fifty_digits(self, gap, others):
        # beyond 80 dB of squeezing: X and every Sigma_j stay far inside
        # CONDITION_LIMIT, and the kernel keeps P and E to 50 digits
        params = bell.ExperimentParams(1.0 - gap, *others)
        result = bell.chsh(params)
        exact = exact_success_prob(params)
        assert abs(result.success_prob - exact) <= 1e-14 * exact
        assert result.cancellation < 1.01
        for j, theta in enumerate(params.angles[:2]):
            for k, phi in enumerate(params.angles[2:]):
                assert abs(result.correlators[j, k] - exact_sign_correlation(
                    params, theta, phi)) <= 1e-8

    def test_state_reads_the_kernel_row(self, realistic_params):
        # the record holds the kernel's row: P the sum of the masses, the
        # weights, and Sigma_j = [[p, r], [r, q]] / 2
        cov = realistic_params.output_covariance()
        state = conditioning.conditional_state(cov)
        x = cov[0::2, 0::2]
        success, weights, correlations, (p, q, r), _ = \
            conditioning._condition(np.array(
                [x[0, 0], x[0, 1], x[0, 2], x[0, 3], x[2, 2], x[2, 3]]))
        assert type(state.success_prob) is float
        assert state.success_prob == success
        assert state.weights.tobytes() == weights.tobytes()
        assert state.covariances.shape == (4, 2, 2)
        for j in range(4):
            assert state.covariances[j].tobytes() == (0.5 * np.array(
                [[p[j], r[j]], [r[j], q[j]]])).tobytes()
        covs = state.covariances
        assert np.array_equal(correlations, covs[:, 0, 1] / np.sqrt(
            covs[:, 0, 0] * covs[:, 1, 1]))

    def test_state_runs_the_kernel_on_one_row(self, monkeypatch,
                                              realistic_params):
        # one (6,) row of float64 entries, whose unpacked values are
        # float64 scalars, not a (6, 1) batch
        kernel, calls = conditioning._condition, []

        def recorded(entries, success_prob=None):
            calls.append((type(entries), np.shape(entries),
                          {type(e) for e in entries}, success_prob))
            return kernel(entries, success_prob)

        monkeypatch.setattr(conditioning, "_condition", recorded)
        conditioning.conditional_state(realistic_params.output_covariance())
        assert calls == [(np.ndarray, (6,), {np.float64}, None)]

    def test_state_is_its_x_marginal(self, realistic_state):
        assert isinstance(realistic_state, conditioning.BivariateMixture)
        marginal = bell.rotated_marginal(realistic_state, 0.0, 0.0)
        grid = np.linspace(-4.0, 4.0, 17)
        assert np.array_equal(
            realistic_state.density(grid[:, None], grid[None, :]),
            marginal.density(grid[:, None], grid[None, :]))

    def test_coupled_input_raises(self, realistic_params):
        cov = realistic_params.output_covariance()
        cross = cov.copy()
        cross[0, 1] = cross[1, 0] = 1e-6
        with pytest.raises(DomainError):
            conditioning.conditional_state(cross)
        unflipped = cov.copy()
        unflipped[1::2, 1::2] = cov[0::2, 0::2]
        with pytest.raises(DomainError):
            conditioning.conditional_state(unflipped)

    def test_infinite_entry_refused_without_a_warning(self,
                                                      realistic_params):
        # an infinite or NaN entry, in the x-block or the p-block, is
        # refused by name before any structure check computes with it
        for entry in ((0, 0), (5, 3)):
            for value, text in ((np.inf, "inf"), (-np.inf, "-inf"),
                                (np.nan, "nan")):
                cov = realistic_params.output_covariance()
                cov[entry] = value
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(DomainError) as info:
                        conditioning.conditional_state(cov)
                assert str(info.value) == \
                    f"covariance must be finite, got {text}"

    @pytest.mark.parametrize("entries, message", [
        ({(0, 0): -1.7e308, (1, 1): 1.7e308},
         "covariance must have a zero x-p cross block and p-block D x D, "
         "D = diag(1, -1, 1, -1)"),
        ({(0, 2): 1.7e308, (2, 0): -1.7e308, (1, 3): -1.7e308,
          (3, 1): 1.7e308}, "matrix is not symmetric")],
        ids=["p-block", "asymmetric"])
    def test_huge_entry_refused_without_a_warning(self, realistic_params,
                                                  entries, message):
        # finite entries of opposite sign whose difference overflows to inf
        # fail the structure check that subtracts them, with no warning
        cov = realistic_params.output_covariance()
        for entry, value in entries.items():
            cov[entry] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as info:
                conditioning.conditional_state(cov)
        assert str(info.value) == message

    @pytest.mark.parametrize("entries, message", [
        ([(3, 0)], "matrix is not symmetric"),
        ([(1, 1)], "x-block must be invariant under the joint swap of A "
         "with B and C with D"),
        ([(3, 1), (1, 3)], "x-block must be invariant under the joint swap "
         "of A with B and C with D")],
        ids=["asymmetric", "swap-diagonal", "swap-cross"])
    def test_structure_of_the_x_block_checked(self, entries, message):
        def state(offset):
            x = gaussian.x_block(0.6, 0.95, 0.3, 0.95)
            for entry in entries:
                x[entry] += offset
            return conditioning.conditional_state(gaussian.from_x_block(x))

        with pytest.raises(DomainError) as info:
            state(1e-9)
        assert str(info.value) == message
        # within STRUCTURE_TOL the input is accepted
        assert state(1e-11).success_prob > 0.0

    def test_shape_checked(self):
        with pytest.raises(DomainError):
            conditioning.conditional_state(np.eye(4))


class TestSuccessProbability:
    def test_realistic_quoted_value(self, realistic_state):
        assert realistic_state.success_prob == pytest.approx(2.6e-4, rel=0.20)

    def test_order_of_magnitude_estimate(self):
        cov = gaussian.output_covariance(0.6, 0.95, 0.3, 1.0)
        p = conditioning.conditional_state(cov).success_prob
        estimate = 0.3 ** 2 * (1.0 - 0.95) ** 2
        assert 0.1 < p / estimate < 10.0

    def test_matches_fock_click_rate(self, realistic_state, fock_realistic):
        _, p_click = fock_realistic
        assert abs(realistic_state.success_prob - p_click) / p_click < 1e-3

    def test_independent_of_homodyne_efficiency(self):
        p_full = conditioning.conditional_state(
            gaussian.output_covariance(0.6, 0.95, 0.3, 1.0)).success_prob
        p_lossy = conditioning.conditional_state(
            gaussian.output_covariance(0.6, 0.95, 0.3, 0.85)).success_prob
        assert p_full == pytest.approx(p_lossy, rel=1e-10)

    def test_decreases_with_transmittance(self):
        probs = [conditioning.conditional_state(
            gaussian.output_covariance(0.5, t, 0.3, 1.0)).success_prob
            for t in (0.90, 0.925, 0.95, 0.975, 0.99)]
        assert all(a > b for a, b in zip(probs, probs[1:]))


class TestWignerCut:
    def test_origin_value_finite(self, cut_state):
        cut = conditioning.wigner_cut(cut_state, CUT_DIRECTION, [0.0])
        assert cut.shape == (1, 2)
        assert np.isfinite(cut[0, 1])

    def test_tails_decay(self, cut_state):
        cut = conditioning.wigner_cut(cut_state, CUT_DIRECTION, [-6.0, 6.0])
        assert np.all(np.abs(cut[:, 1]) < 1e-6)

    def test_direction_must_be_unit(self, cut_state):
        with pytest.raises(DomainError):
            conditioning.wigner_cut(cut_state, np.array([1.0, 0, -1.0, 0]),
                                    [0.0])

    def test_direction_must_be_a_four_vector(self, cut_state):
        with pytest.raises(DomainError) as info:
            conditioning.wigner_cut(cut_state, np.array([1.0, 0.0, 0.0]),
                                    [0.0])
        assert str(info.value) == "direction must have 4 components"

    def test_points_must_have_four_components(self, cut_state):
        with pytest.raises(DomainError) as info:
            conditioning.wigner_value(cut_state, np.zeros((2, 3)))
        assert str(info.value) == "phase-space points must have 4 components"

    @pytest.mark.parametrize("points", [
        np.array([["0.5", "0.1", "0.0", "0.2"]]), [[0.5, 0.1, None, 0.2]],
        np.zeros((2, 4), dtype=bool), np.zeros(4, dtype=complex)],
        ids=["str", "none", "bool", "complex"])
    def test_points_must_be_real_numbers(self, cut_state, points):
        with pytest.raises(DomainError) as info:
            conditioning.wigner_value(cut_state, points)
        bad = points.flat[0] if isinstance(points, np.ndarray) else None
        assert str(info.value) == \
            f"phase-space points must be a real number, got {bad!r}"


def loop_density(marginal, x, y):
    """Per-term loop form of `BivariateMixture.density`, the reference for
    its array form, and the error scale eps * sum_j |w_j g_j| (1 + e_j) of
    that sum, e_j the magnitude of term j's exponent."""
    total = scale = 0.0
    for w, cov in zip(marginal.weights, marginal.covariances):
        det = cov[0, 0] * cov[1, 1] - cov[0, 1] ** 2
        exponent = 0.5 * (cov[1, 1] * x * x - 2.0 * cov[0, 1] * x * y
                          + cov[0, 0] * y * y) / det
        term = w * np.exp(-exponent) / (2.0 * np.pi * np.sqrt(det))
        total = total + term
        scale = scale + np.abs(term) * (1.0 + exponent)
    return total, np.finfo(float).eps * scale


class TestMixtureDensity:
    def test_matches_per_term_loop(self, realistic_state):
        grid = np.linspace(-8.0, 8.0, 81)
        for theta in np.linspace(0.0, np.pi, 5):
            for phi in np.linspace(-np.pi / 2, np.pi / 2, 5):
                marginal = bell.rotated_marginal(realistic_state, theta, phi)
                expected, scale = loop_density(marginal, grid[:, None],
                                               grid[None, :])
                dens = marginal.density(grid[:, None], grid[None, :])
                assert np.all(np.abs(dens - expected) <= 16.0 * scale)


class TestWignerProperties:
    def test_swap_symmetry(self, cut_state):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(60, 4)) * 1.5
        swapped = pts[:, [2, 3, 0, 1]]
        diff = conditioning.wigner_value(cut_state, pts) \
            - conditioning.wigner_value(cut_state, swapped)
        assert np.max(np.abs(diff)) < 1e-10

    def test_marginal_non_negative_for_all_angles(self, realistic_state):
        grid = np.linspace(-5.0, 5.0, 41)
        for theta in np.linspace(0.0, np.pi, 8):
            for phi in np.linspace(-np.pi / 2, np.pi / 2, 8):
                marginal = bell.rotated_marginal(realistic_state, theta, phi)
                dens = marginal.density(grid[:, None], grid[None, :])
                assert dens.min() > -1e-9

    def test_normalized_weights_sum_to_one(self, realistic_state):
        weights = realistic_state.weights
        assert abs(weights.sum() - 1.0) < 1e-9
        # the kernel-free term carries weight 1/P, the rest nearly cancel
        assert weights[0] == pytest.approx(1.0 / realistic_state.success_prob,
                                           rel=1e-9)
