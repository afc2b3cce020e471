import numpy as np
import pytest

from cvbell import bell, conditioning, fock, gaussian
from cvbell.errors import DomainError, InvalidRegimeError, SingularMatrixError

CUT_DIRECTION = np.array([1.0, 0.0, -1.0, 0.0]) / np.sqrt(2.0)


def integrate_wigner_4d(state, halfwidth=6.0, nodes=48):
    """Tensor Gauss-Legendre integral of W over the given box."""
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    x = xs * halfwidth
    w = ws * halfwidth
    pts = np.stack(np.meshgrid(x, x, x, x, indexing="ij"), axis=-1).reshape(-1, 4)
    wts = (w[:, None, None, None] * w[None, :, None, None]
           * w[None, None, :, None] * w[None, None, None, :]).ravel()
    total = 0.0
    for i in range(0, len(pts), 500_000):
        total += float(np.dot(wts[i:i + 500_000],
                              conditioning.wigner_value(state, pts[i:i + 500_000])))
    return total


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
        for precision in gaussian.from_x_block(cut_state.precisions):
            assert np.max(np.abs(precision - precision.T)) < 1e-12
        assert np.all(cut_state.detector_det_roots > 0)
        # the kernel-free term is the unconditioned marginal: positive definite
        assert np.all(np.linalg.eigvalsh(cut_state.precisions[0]) > 0)

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


class TestHeraldedTerms:
    def test_ill_conditioned_x_block_refused(self):
        x = np.eye(4)
        x[0, 0] = 1e-14
        error = conditioning.heralded_terms(x[None]).errors[0]
        assert isinstance(error, SingularMatrixError)
        assert error.condition_estimate > 1e12
        with pytest.raises(SingularMatrixError) as info:
            conditioning.conditional_state(gaussian.from_x_block(x))
        assert str(info.value) == str(error)

    def test_bad_rows_do_not_touch_good_rows(self):
        good = gaussian.x_block(0.6, 0.95, 0.3, 0.95)
        singular = np.eye(4)
        singular[3, 3] = 0.0
        vacuum = gaussian.x_block(0.0, 0.95, 0.3, 0.95)
        asymmetric = good.copy()
        asymmetric[3, 0] += 1e-9
        stack = np.stack([good, singular, vacuum, asymmetric])
        terms = conditioning.heralded_terms(stack)
        assert terms.errors[0] is None
        assert isinstance(terms.errors[1], SingularMatrixError)
        assert isinstance(terms.errors[2], InvalidRegimeError)
        assert isinstance(terms.errors[3], DomainError)
        assert np.all(np.isnan(terms.success_prob[1:]))
        assert np.all(np.isnan(terms.weights[1:]))
        single = conditioning.heralded_terms(good[None])
        assert np.array_equal(terms.weights[0], single.weights[0])
        assert terms.success_prob[0] == single.success_prob[0]

    def test_state_reads_the_kernel_row(self, realistic_params):
        cov = realistic_params.output_covariance()
        state = conditioning.conditional_state(cov)
        terms = conditioning.heralded_terms(cov[None, 0::2, 0::2])
        assert state.success_prob == terms.success_prob[0]
        assert np.array_equal(state.weights, terms.weights[0])
        assert np.array_equal(state.covariances, terms.covariances[0])
        assert np.array_equal(state.precisions, terms.precisions[0])
        assert np.array_equal(state.detector_det_roots,
                              terms.detector_det_roots[0])
        assert state.prefactor == 1.0 / (np.pi ** 2 * state.success_prob
                                         * terms.det_x[0])

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

    def test_shape_checked(self):
        with pytest.raises(DomainError):
            conditioning.heralded_terms(np.eye(4))
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
