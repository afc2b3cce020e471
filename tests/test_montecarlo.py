import numpy as np
import pytest
from scipy import stats

from cvbell import bell, montecarlo
from cvbell.errors import DomainError, EnvelopeError
from cvbell.montecarlo import MCResult, ProtocolConfig
from conftest import reversed_block_totals


def unit_gaussian_mixture():
    return bell.BivariateMixture(weights=np.array([1.0]),
                                 covariances=np.eye(2)[None, :, :])


@pytest.fixture(scope="module")
def realistic_marginal(realistic_state):
    return bell.rotated_marginal(realistic_state, 0.0, -np.pi / 4)


@pytest.fixture(scope="module")
def realistic_config(realistic_params):
    return ProtocolConfig(params=realistic_params, n_target_events=50_000,
                          seed=424242)


def mixture_rectangle_mass(marginal, x_edges, y_edges):
    """Exact bin masses of a signed bivariate Gaussian mixture."""
    nx, ny = len(x_edges) - 1, len(y_edges) - 1
    mass = np.zeros((nx, ny))
    corners = np.stack(np.meshgrid(x_edges, y_edges, indexing="ij"),
                       axis=-1).reshape(-1, 2)
    for w, cov in zip(marginal.weights, marginal.covariances):
        cdf = stats.multivariate_normal(mean=[0.0, 0.0], cov=cov).cdf(corners)
        cdf = cdf.reshape(len(x_edges), len(y_edges))
        mass += w * (cdf[1:, 1:] - cdf[:-1, 1:] - cdf[1:, :-1] + cdf[:-1, :-1])
    return mass


class TestEnvelope:
    def test_acceptance_rate_is_practical(self, realistic_marginal):
        env = montecarlo.build_envelope(realistic_marginal)
        assert env.accept_rate > 0.1

    def test_envelope_dominates_on_grid(self, realistic_marginal):
        env = montecarlo.build_envelope(realistic_marginal)
        grid = np.linspace(-12.0, 12.0, 201)
        target = realistic_marginal.density(grid[:, None], grid[None, :])
        bound = env.bound * env.density(grid[:, None], grid[None, :])
        assert np.all(target <= bound * (1.0 + 1e-12))


class TestSampleJointQuadratures:
    def test_empirical_correlation_matches_closed_form(self, realistic_marginal):
        n = 1_000_000
        samples = montecarlo.sample_joint_quadratures(realistic_marginal, n,
                                                      seed=1234)
        signs = np.where(samples >= 0.0, 1.0, -1.0)
        e_hat = float(np.mean(signs[:, 0] * signs[:, 1]))
        e_closed = bell.sign_correlation(realistic_marginal)
        stderr = np.sqrt((1.0 - e_hat ** 2) / n)
        assert abs(e_hat - e_closed) < 3.0 * stderr

    def test_unit_gaussian_mean(self):
        n = 40_000
        samples = montecarlo.sample_joint_quadratures(unit_gaussian_mixture(),
                                                      n, seed=99)
        assert np.all(np.abs(samples.mean(axis=0)) < 4.0 / np.sqrt(n))

    def test_seed_determinism(self, realistic_marginal):
        a = montecarlo.sample_joint_quadratures(realistic_marginal, 5000, 7)
        b = montecarlo.sample_joint_quadratures(realistic_marginal, 5000, 7)
        assert np.array_equal(a, b)

    def test_moments_converge(self, realistic_marginal):
        samples = montecarlo.sample_joint_quadratures(realistic_marginal,
                                                      400_000, seed=5)
        analytic = (realistic_marginal.weights[:, None, None]
                    * realistic_marginal.covariances).sum(axis=0)
        empirical = np.cov(samples.T)
        assert np.max(np.abs(empirical - analytic)) < 0.05

    def test_chi_square_goodness_of_fit(self, realistic_marginal):
        n = 200_000
        samples = montecarlo.sample_joint_quadratures(realistic_marginal, n,
                                                      seed=31337)
        sx = np.sqrt(max(c[0, 0] for c in realistic_marginal.covariances))
        sy = np.sqrt(max(c[1, 1] for c in realistic_marginal.covariances))
        x_edges = np.linspace(-5.0 * sx, 5.0 * sx, 31)
        y_edges = np.linspace(-5.0 * sy, 5.0 * sy, 31)
        observed, _, _ = np.histogram2d(samples[:, 0], samples[:, 1],
                                        bins=[x_edges, y_edges])
        expected = n * mixture_rectangle_mass(realistic_marginal,
                                              x_edges, y_edges)
        # merge sparse bins (and everything outside the box) into one cell
        keep = expected >= 5.0
        obs = np.append(observed[keep], n - observed[keep].sum())
        exp = np.append(expected[keep], n - expected[keep].sum())
        chi2 = float(((obs - exp) ** 2 / np.maximum(exp, 1e-9)).sum())
        p_value = stats.chi2.sf(chi2, df=len(obs) - 1)
        assert p_value > 1e-3

    def test_bad_count(self, realistic_marginal):
        with pytest.raises(DomainError):
            montecarlo.sample_joint_quadratures(realistic_marginal, 0, 1)


class TestRunProtocol:
    def test_estimator_matches_pipeline(self, realistic_params):
        expected = bell.chsh(realistic_params).S
        config = ProtocolConfig(params=realistic_params,
                                n_target_events=1_000_000, seed=2024)
        result = montecarlo.run_protocol(config)
        assert result.s_available
        assert abs(result.S_hat - expected) < 3.0 * result.stderr_S
        # the quoted ~1% violation is statistically resolved
        assert result.S_hat - 2.0 > 2.0 * result.stderr_S

    def test_event_rate_matches_success_probability(self, realistic_config,
                                                    realistic_state):
        result = montecarlo.run_protocol(realistic_config)
        rate = result.P_hat * realistic_config.rep_rate
        predicted = realistic_state.success_prob * realistic_config.rep_rate
        assert predicted / 2.0 < rate < predicted * 2.0
        assert result.wall_sim_time == pytest.approx(
            result.total_pulses / realistic_config.rep_rate)

    def test_estimator_consistency_over_sizes(self, realistic_params):
        expected = bell.chsh(realistic_params).S
        for n in (10_000, 100_000, 1_000_000):
            config = ProtocolConfig(params=realistic_params,
                                    n_target_events=n, seed=555)
            result = montecarlo.run_protocol(config)
            assert abs(result.S_hat - expected) < 3.0 * result.stderr_S

    def test_stderr_scaling(self, realistic_params):
        small = montecarlo.run_protocol(ProtocolConfig(
            params=realistic_params, n_target_events=50_000, seed=9))
        large = montecarlo.run_protocol(ProtocolConfig(
            params=realistic_params, n_target_events=200_000, seed=9))
        ratio = small.stderr_S / large.stderr_S
        assert ratio == pytest.approx(2.0, rel=0.20)

    def test_seed_reproducibility(self, realistic_config):
        a = montecarlo.run_protocol(realistic_config)
        b = montecarlo.run_protocol(realistic_config)
        assert a.S_hat == b.S_hat and a.stderr_S == b.stderr_S
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.product_sums, b.product_sums)
        assert a.total_pulses == b.total_pulses

    def test_reverse_block_order_reproduces_totals(self, realistic_config):
        result, (pulses, counts, sums) = reversed_block_totals(
            realistic_config)
        assert pulses == result.total_pulses
        assert np.array_equal(counts, result.counts)
        assert np.array_equal(sums, result.product_sums)

    def test_degenerate_choice_flags_s(self, realistic_params):
        config = ProtocolConfig(params=realistic_params, n_target_events=500,
                                seed=3, angle_choice_probs=(1.0, 0.0))
        result = montecarlo.run_protocol(config)
        assert not result.s_available
        assert np.isnan(result.S_hat)
        assert result.counts[0, 0] == 500

    def test_config_validation(self, realistic_params):
        with pytest.raises(DomainError):
            ProtocolConfig(params=realistic_params, n_target_events=0, seed=1)
        with pytest.raises(DomainError):
            ProtocolConfig(params=realistic_params, n_target_events=10, seed=1,
                           angle_choice_probs=(0.7, 0.7))


class TestAcquisitionTime:
    def test_realistic_point_under_an_hour(self, realistic_params):
        result = bell.chsh(realistic_params)
        seconds = montecarlo.acquisition_time(result.success_prob, 1e6, 0.005,
                                              result)
        assert seconds < 3600.0

    def test_inverse_square_in_target(self, realistic_params):
        result = bell.chsh(realistic_params)
        t1 = montecarlo.acquisition_time(result.success_prob, 1e6, 0.005, result)
        t2 = montecarlo.acquisition_time(result.success_prob, 1e6, 0.0025,
                                         result)
        assert t2 == pytest.approx(4.0 * t1, rel=1e-12)

    def test_linear_in_success_probability(self, realistic_params):
        result = bell.chsh(realistic_params)
        t1 = montecarlo.acquisition_time(result.success_prob, 1e6, 0.005, result)
        t2 = montecarlo.acquisition_time(2.0 * result.success_prob, 1e6, 0.005,
                                         result)
        assert t2 == pytest.approx(t1 / 2.0, rel=1e-12)

    def test_positive_inputs_required(self, realistic_params):
        result = bell.chsh(realistic_params)
        with pytest.raises(DomainError):
            montecarlo.acquisition_time(0.0, 1e6, 0.005, result)
