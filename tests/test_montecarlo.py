import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from cvbell import bell, conditioning, montecarlo
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


def whitened_ratio(marginal, env, z):
    """Target over envelope density at the points x = env.chol z."""
    x, y = env.chol @ z
    return marginal.density(x, y) / env.density(x, y)


def einsum_ratio(scales, coeffs, z):
    """`montecarlo._ratio` in its einsum form, and per point the most that
    a float64 evaluation in another order may differ from it.

    With m_k the moments (z0^2, z0 z1, z1^2), each exponent
    sum_k c_jk m_k is a dot of three products, which two orders round to
    within 2 gamma_3 sum_k |c_jk m_k| of each other, gamma_n =
    n eps / (1 - n eps) with eps the float64 machine epsilon (Higham,
    Accuracy and Stability of Numerical Algorithms, section 3.1).  exp
    turns that gap into a relative one, expm1 of it, and rounds within
    2 eps on either side; the weighted sum of the terms adds
    2 gamma_terms sum_j |a_j e_j|.
    """
    eps = np.finfo(np.float64).eps

    def gamma(n):
        return n * eps / (1.0 - n * eps)

    moments = np.stack([z[0] * z[0], z[0] * z[1], z[1] * z[1]])
    values = np.exp(np.einsum("jk,kn->jn", coeffs, moments))
    spread = np.einsum("jk,kn->jn", np.abs(coeffs), np.abs(moments))
    gap = (np.expm1(2.0 * gamma(3) * spread) + 4.0 * eps
           + 2.0 * gamma(len(scales)))
    tolerance = np.einsum("j,jn->n", np.abs(scales), values * gap)
    return np.einsum("j,jn->n", scales, values), tolerance


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

    def test_bound_holds_on_a_finer_grid_over_the_domain(self):
        rng = np.random.default_rng(1010)
        # 10^4 seeded directions and distances beyond the tail disc
        angle = np.random.default_rng(2020).uniform(0.0, 2.0 * np.pi, 10_000)
        beyond = np.random.default_rng(2021).uniform(0.0, 4.0, 10_000)
        for _ in range(50):
            params = bell.ExperimentParams(
                rng.uniform(0.02, 0.95), rng.uniform(0.85, 0.999),
                rng.uniform(0.05, 1.0), rng.uniform(0.7, 1.0))
            state = conditioning.conditional_state(params.output_covariance())
            marginal = bell.rotated_marginal(state,
                                             *rng.uniform(-np.pi, np.pi, 2))
            env = montecarlo.build_envelope(marginal)
            assert env.accept_rate >= 1.0 / 3.0
            # target/envelope at x = L z is below A exp(-|z|^2 / 2), A the
            # positive terms' sum of w_j sqrt(det envelope / det Sigma_j),
            # so it is below 1 outside the disc |z|^2 <= 2 log A
            covs = marginal.covariances
            scales = marginal.weights * np.sqrt(
                np.linalg.det(env.covariances[0]) / np.linalg.det(covs))
            radius = np.sqrt(2.0 * np.log(scales[marginal.weights > 0].sum()))
            outside = (radius + beyond) * np.stack([np.cos(angle),
                                                    np.sin(angle)])
            assert np.all(whitened_ratio(marginal, env, outside) < 1.0)
            # 1601 points per axis over the disc's square, 40x finer than
            # the search's coarse grid; r is even, so the half z_0 >= 0
            # covers every ratio.  On it the densities' ratio stays below
            # the bound, the r of the stored (a_j, B_j) that the search
            # reads matches it, and the search finds r's peak
            axis = np.linspace(-radius, radius, 1601)
            peak = stored_peak = gap = 0.0
            for z0 in np.array_split(axis[800:], 80):
                z = np.stack(np.broadcast_arrays(z0[:, None], axis))
                z = z.reshape(2, -1)
                ratio = whitened_ratio(marginal, env, z)
                stored = montecarlo._ratio(env.scales, env.coeffs, z)
                peak = max(peak, ratio.max())
                stored_peak = max(stored_peak, stored.max())
                gap = max(gap, np.abs(stored - ratio).max())
            assert peak <= env.bound
            assert gap <= 1e-12 * np.abs(env.scales).sum()
            assert (env.bound / montecarlo.ENVELOPE_HEADROOM
                    >= (1.0 - 1e-9) * stored_peak)

    def test_stored_ratio_is_target_over_envelope(self, realistic_marginal):
        env = montecarlo.build_envelope(realistic_marginal)
        z = np.random.default_rng(4).uniform(-4.0, 4.0, (2, 1000))
        np.testing.assert_allclose(
            montecarlo._ratio(env.scales, env.coeffs, z),
            whitened_ratio(realistic_marginal, env, z),
            rtol=0.0, atol=1e-12 * np.abs(env.scales).sum())

    def test_ratio_matches_its_einsum_form(self, realistic_params,
                                           realistic_state):
        # the four settings' envelopes, at proposals and over the region
        # the peak search covers, with and without a scratch array
        rng = np.random.default_rng(36)
        z = np.concatenate([rng.standard_normal((2, 5000)),
                            rng.uniform(-6.0, 6.0, (2, 5000))], axis=1)
        for theta in realistic_params.angles[:2]:
            for phi in realistic_params.angles[2:]:
                env = montecarlo.build_envelope(bell.rotated_marginal(
                    realistic_state, theta, phi))
                expected, tolerance = einsum_ratio(env.scales, env.coeffs, z)
                work = np.full(montecarlo._scratch([env]).size, np.nan)
                for ratio in (montecarlo._ratio(env.scales, env.coeffs, z),
                              montecarlo._ratio(env.scales, env.coeffs, z,
                                                work)):
                    assert np.all(np.abs(ratio - expected) <= tolerance)

    def test_positive_term_not_below_the_widest_raises(self):
        mixture = bell.BivariateMixture(
            weights=np.array([0.5, 0.5]),
            covariances=np.array([np.diag([4.0, 1.0]), np.diag([1.0, 3.0])]))
        with pytest.raises(EnvelopeError, match="Loewner order"):
            montecarlo.build_envelope(mixture)

    # a term 1000 times narrower than the widest peaks the ratio at
    # r(0) = 1 + 1000, so the acceptance is 1/(1.05 * 1001) < 1%; an
    # infinite weight leaves the peak search nothing finite to find
    @pytest.mark.parametrize("weights, covariances, message", [
        ([-1.0], [np.eye(2)], "signed mixture has no positive terms"),
        ([0.5, 0.5], [np.eye(2), 1e-3 * np.eye(2)],
         "envelope acceptance rate 1/1051.0 is below 1%; the dominating "
         "constant is unusable"),
        ([np.inf], [np.eye(2)], "could not bound the target/envelope ratio")],
        ids=["no-positive-term", "narrow-term", "infinite-weight"])
    def test_unusable_mixture_raises(self, weights, covariances, message):
        mixture = bell.BivariateMixture(weights=np.array(weights),
                                        covariances=np.array(covariances))
        with pytest.raises(EnvelopeError) as info, \
                np.errstate(invalid="ignore"):
            montecarlo.build_envelope(mixture)
        assert str(info.value) == message

    def test_low_observed_acceptance_raises(self):
        # r(z) = 1e-3 everywhere under a bound of 1: every proposal passes
        # the bound check, but only 1 in 1000 is accepted
        env = montecarlo.Envelope(
            weights=np.ones(1), covariances=np.eye(2)[None], chol=np.eye(2),
            scales=np.array([1e-3]), forms=np.zeros((1, 2, 2)), bound=1.0)
        with pytest.raises(EnvelopeError) as info:
            montecarlo._draw(env, 10_000, np.random.default_rng(0))
        assert str(info.value) == ("observed acceptance 0.12% below 1% "
                                   "after 10300 proposals")

    def test_bound_below_the_peak_ratio_raises(self, realistic_marginal):
        env = montecarlo.build_envelope(realistic_marginal)
        halved = dataclasses.replace(env, bound=env.bound / 2.0)
        with pytest.raises(EnvelopeError, match="exceeds the envelope bound"):
            montecarlo._draw(halved, 10_000, np.random.default_rng(0))


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

    @pytest.mark.parametrize("n", [1, montecarlo.CHUNK - 1,
                                   3 * montecarlo.CHUNK + 1])
    def test_returns_exactly_n_finite_rows(self, realistic_marginal, n):
        samples = montecarlo.sample_joint_quadratures(realistic_marginal, n,
                                                      seed=n)
        assert samples.shape == (n, 2)
        assert np.all(np.isfinite(samples))

    def test_memory_does_not_grow_with_n(self, realistic_marginal):
        tracemalloc.start()
        try:
            samples = montecarlo.sample_joint_quadratures(realistic_marginal,
                                                          1_000_000, seed=8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the (n, 2) result is 16 MB; the scratch array of CHUNK proposals
        # and the envelope's peak search add under 8 MB whatever n is
        assert peak < samples.nbytes + 8 * 2 ** 20

    def test_bad_count(self, realistic_marginal):
        with pytest.raises(DomainError):
            montecarlo.sample_joint_quadratures(realistic_marginal, 0, 1)

    @pytest.mark.parametrize("n, seed, field", [
        (2.5, 1, "sample count"), (np.nan, 1, "sample count"),
        (10, -1, "seed"), (10, 1.5, "seed")],
        ids=["count-fraction", "count-nan", "seed-negative", "seed-fraction"])
    def test_non_integral_count_or_seed_raises(self, realistic_marginal, n,
                                               seed, field):
        with pytest.raises(DomainError, match=field):
            montecarlo.sample_joint_quadratures(realistic_marginal, n, seed)

    def test_bool_count_raises(self, realistic_marginal):
        # Python counts True as the integer 1; the sampler does not
        with pytest.raises(DomainError) as info:
            montecarlo.sample_joint_quadratures(realistic_marginal, True, 1)
        assert str(info.value) == ("sample count must be an integer >= 1, "
                                   "got True")


class TestRunProtocol:
    def test_estimator_matches_pipeline(self, realistic_params):
        expected = bell.chsh(realistic_params).S
        config = ProtocolConfig(params=realistic_params,
                                n_target_events=4_000_000, seed=2024)
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

    def test_memory_is_bounded_by_one_block(self, realistic_params):
        # a campaign keeps each block's totals, never its events: 40 blocks
        # peak above 2 by less than one block's (2, n) samples.  The first
        # campaign runs untraced, so one-off allocations count in neither
        configs = [ProtocolConfig(params=realistic_params, seed=5,
                                  n_target_events=blocks
                                  * montecarlo.BLOCK_EVENTS)
                   for blocks in (2, 40)]
        montecarlo.run_protocol(configs[0])
        peaks = []
        for config in configs:
            tracemalloc.start()
            try:
                montecarlo.run_protocol(config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 16 * montecarlo.BLOCK_EVENTS

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

    def test_each_setting_draws_its_cell_count(self, realistic_params,
                                                monkeypatch):
        # cells whose cos(theta + phi) is the same float share one draw per
        # block, split in cell order.  At the default angles (theta1, phi1),
        # (theta1, phi2) and (theta2, phi1) share one; cos(3 pi / 4) is a
        # float spacing from -cos(pi / 4), so (theta2, phi2) has its own.
        # Generic angles make four targets, one draw per cell
        draws, block_counts = [], []
        draw, simulate = montecarlo._draw, montecarlo._simulate_block

        def record_draw(env, n, rng, work):
            samples = draw(env, n, rng, work)
            draws.append(len(samples))
            return samples

        def record_block(*args):
            result = simulate(*args)
            block_counts.append(result[1].ravel())
            return result

        monkeypatch.setattr(montecarlo, "_draw", record_draw)
        monkeypatch.setattr(montecarlo, "_simulate_block", record_block)
        for angles, targets in [
                (bell.DEFAULT_ANGLES, [[0, 1, 2], [3]]),
                ((0.1, 0.7, -0.3, 0.45), [[0], [1], [2], [3]])]:
            draws.clear()
            block_counts.clear()
            params = dataclasses.replace(realistic_params, angles=angles)
            result = montecarlo.run_protocol(ProtocolConfig(
                params=params, n_target_events=2 * montecarlo.BLOCK_EVENTS
                + 1808, seed=11))
            assert len(block_counts) == 3
            assert draws == [int(counts[cells].sum())
                             for counts in block_counts for cells in targets]
            assert np.array_equal(sum(block_counts).reshape(2, 2),
                                  result.counts)

    def test_spawn_keys_give_distinct_streams(self):
        # each (role, block) key seeds its own stream: the first draws of
        # the four roles over the first blocks are pairwise distinct
        firsts = [tuple(montecarlo._block_rng(11, role, block).random(2))
                  for role in range(4) for block in range(8)]
        assert len(set(firsts)) == len(firsts)

    def test_degenerate_choice_flags_s(self, realistic_params):
        # one event fills one cell and leaves the other three empty
        config = ProtocolConfig(params=realistic_params, n_target_events=1,
                                seed=3)
        result = montecarlo.run_protocol(config)
        assert not result.s_available
        assert np.isnan(result.S_hat) and np.isnan(result.stderr_S)
        assert result.counts.sum() == 1
        assert np.count_nonzero(result.counts) == 1

    def test_config_validation(self, realistic_params):
        with pytest.raises(DomainError):
            ProtocolConfig(params=realistic_params, n_target_events=0, seed=1)

    @pytest.mark.parametrize("field, value", [
        ("n_target_events", 1000.5), ("n_target_events", np.nan),
        ("seed", -1), ("seed", 1.5)],
        ids=["events-fraction", "events-nan", "seed-negative",
             "seed-fraction"])
    def test_counts_and_seeds_must_be_integers(self, realistic_params, field,
                                               value):
        kwargs = dict(params=realistic_params, n_target_events=10, seed=1)
        kwargs[field] = value
        with pytest.raises(DomainError, match=field):
            ProtocolConfig(**kwargs)

    @pytest.mark.parametrize("rate", [np.nan, np.inf, 0.0, -1.0, "1e6"])
    def test_rep_rate_must_be_finite_and_positive(self, realistic_params,
                                                  rate):
        with pytest.raises(DomainError, match="rep_rate"):
            ProtocolConfig(params=realistic_params, n_target_events=10, seed=1,
                           rep_rate=rate)

    def test_bool_count_and_seed_raise(self, realistic_params):
        with pytest.raises(DomainError) as info:
            ProtocolConfig(realistic_params, True, False)
        assert str(info.value) == ("n_target_events must be an integer >= 1, "
                                   "got True")
        with pytest.raises(DomainError) as info:
            ProtocolConfig(realistic_params, 10, False)
        assert str(info.value) == "seed must be an integer >= 0, got False"

    def test_bool_rep_rate_raises(self, realistic_params):
        with pytest.raises(DomainError) as info:
            ProtocolConfig(realistic_params, 10, 1, rep_rate=True)
        assert str(info.value) == "rep_rate must be a real number, got True"


#: SHA-256 of the little-endian, C-ordered bytes of
#: sample_joint_quadratures(marginal, 3 * CHUNK + 1, 2801 + setting) at the
#: realistic point, setting = 2 j + k the cell (theta_j, phi_k)
SAMPLE_DIGESTS = (
    "bd1c2146abba6dcc2252d20ca6a79472aa0d4cccfdf0ace4ea8c9bf93d32dbef",
    "6b13df20671c64e6abd9f98f47821336aa9755d27c26c2fac4ef64d2b7751f2a",
    "03f5a5e4ca7c3625a3f714dfe154f1d31bc8b79e4cb5513bf06a4f160b271d36",
    "c0e6d120c7fcac3bebf37d86977e2b8a104b1dcec19ae5d3258200d8f20647cc")

#: run_protocol at the realistic point: (seed, events) -> counts, product
#: sums and total pulses; each event count spans a full block and a partial
#: one of BLOCK_EVENTS = 16,384
PROTOCOL_PINS = {
    (1, 25353): ([[6346, 6331], [6353, 6323]],
                 [[3026.0, 3199.0], [3233.0, -3151.0]], 97029138),
    (2028, 28677): ([[7198, 7347], [7064, 7068]],
                    [[3622.0, 3673.0], [3600.0, -3520.0]], 110003941)}


class TestBitwisePins:
    """Every sample and campaign total, bit for bit.  The sampler pins hold
    the SFC64 streams and the accept decisions, so a faster sampler must
    draw the same numbers and keep the same ones.  The campaign pins also
    hold the partition into blocks of BLOCK_EVENTS events, each with its
    own streams, and the one draw per shared setting target: they move
    with the block size, and were recorded at 16,384."""

    @pytest.mark.parametrize("setting", range(4))
    def test_samples_pinned(self, realistic_params, realistic_state,
                            setting):
        j, k = divmod(setting, 2)
        marginal = bell.rotated_marginal(realistic_state,
                                         realistic_params.angles[j],
                                         realistic_params.angles[2 + k])
        samples = montecarlo.sample_joint_quadratures(
            marginal, 3 * montecarlo.CHUNK + 1, 2801 + setting)
        digest = hashlib.sha256(
            samples.astype("<f8").tobytes(order="C")).hexdigest()
        assert digest == SAMPLE_DIGESTS[setting]

    @pytest.mark.parametrize("seed, events", sorted(PROTOCOL_PINS))
    def test_campaign_pinned(self, realistic_params, seed, events):
        assert events > montecarlo.BLOCK_EVENTS
        assert events % montecarlo.BLOCK_EVENTS
        result = montecarlo.run_protocol(ProtocolConfig(
            params=realistic_params, n_target_events=events, seed=seed))
        counts, sums, pulses = PROTOCOL_PINS[seed, events]
        assert result.counts.tolist() == counts
        assert result.product_sums.tolist() == sums
        assert result.total_pulses == pulses

    def test_draw_does_not_depend_on_the_scratch(self, realistic_state):
        # a scratch array that a draw at another setting has filled gives
        # the samples of a fresh one
        envs = [montecarlo.build_envelope(bell.rotated_marginal(
            realistic_state, 0.0, phi)) for phi in (-np.pi / 4, 3 * np.pi / 4)]
        work = montecarlo._scratch(envs)
        montecarlo._draw(envs[1], 5000, np.random.default_rng(3), work)
        for n in (1, 1000, 3 * montecarlo.CHUNK + 1):
            fresh = montecarlo._draw(envs[0], n, np.random.default_rng(n))
            reused = montecarlo._draw(envs[0], n, np.random.default_rng(n),
                                      work)
            assert np.array_equal(fresh, reused)


class TestAcquisitionTime:
    def test_realistic_point_under_an_hour(self, realistic_params):
        result = bell.chsh(realistic_params)
        assert montecarlo.acquisition_time(result, 1e6, 0.005) < 3600.0

    def test_realistic_point_value(self, realistic_params):
        result = bell.chsh(realistic_params)
        seconds = montecarlo.acquisition_time(result, 1e6, 0.005)
        assert seconds == pytest.approx(1830.4995, rel=1e-7)

    def test_inverse_square_in_target(self, realistic_params):
        result = bell.chsh(realistic_params)
        t1 = montecarlo.acquisition_time(result, 1e6, 0.005)
        t2 = montecarlo.acquisition_time(result, 1e6, 0.0025)
        assert t2 == pytest.approx(4.0 * t1, rel=1e-12)

    def test_linear_in_success_probability(self, realistic_params):
        result = bell.chsh(realistic_params)
        doubled = dataclasses.replace(result,
                                      success_prob=2.0 * result.success_prob)
        t1 = montecarlo.acquisition_time(result, 1e6, 0.005)
        t2 = montecarlo.acquisition_time(doubled, 1e6, 0.005)
        assert t2 == pytest.approx(t1 / 2.0, rel=1e-12)

    @staticmethod
    def call(result, index, value):
        """acquisition_time with input index (0 P, 1 rate, 2 target) set
        to value; P is set on the result."""
        args = [result.success_prob, 1e6, 0.005]
        args[index] = value
        return montecarlo.acquisition_time(
            dataclasses.replace(result, success_prob=args[0]), *args[1:])

    @pytest.mark.parametrize("index, value", [
        (0, np.nan), (0, np.inf), (1, np.nan), (1, np.inf), (2, np.nan),
        (2, np.inf)],
        ids=["P-nan", "P-inf", "rate-nan", "rate-inf", "target-nan",
             "target-inf"])
    def test_non_finite_input_raises(self, realistic_params, index, value):
        result = bell.chsh(realistic_params)
        with pytest.raises(DomainError):
            self.call(result, index, value)

    @pytest.mark.parametrize("index", [0, 1, 2],
                             ids=["P", "rate", "target"])
    def test_non_real_input_raises(self, realistic_params, index):
        result = bell.chsh(realistic_params)
        value = str([result.success_prob, 1e6, 0.005][index])
        name = ("success_prob", "rep_rate", "target_stderr_s")[index]
        with pytest.raises(DomainError) as info:
            self.call(result, index, value)
        assert str(info.value) == \
            f"{name} must be a real number, got {value!r}"

    def test_positive_inputs_required(self, realistic_params):
        result = bell.chsh(realistic_params)
        with pytest.raises(DomainError):
            self.call(result, 0, 0.0)
