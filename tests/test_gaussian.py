import numpy as np
import pytest

from cvbell import fock, gaussian
from cvbell.errors import DomainError, SingularMatrixError
import symplectic_reference as ref


def pipeline_cov(lam=0.5, t=0.95, eta=0.3, eta_bhd=1.0):
    return gaussian.output_covariance(lam, t, eta, eta_bhd)


class TestTmsvCovariance:
    def test_vacuum_is_identity(self):
        assert np.allclose(ref.tmsv_covariance(0.0), np.eye(4), atol=1e-15)

    def test_pure_state_symplectic_spectrum(self):
        nus = ref.symplectic_eigenvalues(ref.tmsv_covariance(0.6))
        assert np.all(np.abs(nus - 1.0) < 1e-9)

    def test_matches_fock_second_moments(self):
        cov = ref.tmsv_covariance(0.5)
        moments = fock.second_moments(fock.tmsv_state(0.5, 60))
        assert np.max(np.abs(cov - moments)) < 1e-8

    def test_block_form(self):
        lam = 0.37
        r = np.arctanh(lam)
        cov = ref.tmsv_covariance(lam)
        assert np.allclose(cov[:2, :2], np.cosh(2 * r) * np.eye(2))
        assert np.allclose(cov[:2, 2:], np.sinh(2 * r) * np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("lam", [-0.1, 1.0, 1.5])
    def test_domain(self, lam):
        with pytest.raises(DomainError):
            ref.tmsv_covariance(lam)


class TestEmbed:
    def test_identity(self):
        assert np.array_equal(ref.embed_with_vacuum_ancillas(np.eye(4)),
                              np.eye(8))

    def test_direct_sum_structure(self):
        cov = ref.embed_with_vacuum_ancillas(ref.tmsv_covariance(0.6))
        assert np.allclose(cov[4:, 4:], np.eye(4), atol=1e-15)
        assert np.allclose(cov[:4, 4:], 0.0, atol=1e-15)

    def test_symplectic_spectrum_is_union(self):
        inner = ref.tmsv_covariance(0.45)
        embedded = ref.embed_with_vacuum_ancillas(inner)
        nus_in = np.sort(ref.symplectic_eigenvalues(inner))
        nus_out = np.sort(ref.symplectic_eigenvalues(embedded))
        expected = np.sort(np.concatenate([nus_in, [1.0, 1.0]]))
        assert np.allclose(nus_out, expected, atol=1e-9)

    def test_wrong_dimension(self):
        with pytest.raises(DomainError):
            ref.embed_with_vacuum_ancillas(np.eye(8))


class TestBeamsplitter:
    def test_full_transmission_is_identity(self):
        assert np.allclose(ref.beamsplitter_symplectic(1.0), np.eye(8),
                           atol=1e-15)

    @pytest.mark.parametrize("pair", [("A", "C"), ("B", "D")])
    def test_symplectic_condition(self, pair):
        s = ref.beamsplitter_symplectic(0.5, pair)
        omega = ref.symplectic_form(4)
        assert np.max(np.abs(s @ omega @ s.T - omega)) < 1e-12

    @pytest.mark.parametrize("t", [0.3, 0.7, 0.95])
    def test_orthogonal(self, t):
        s = ref.beamsplitter_symplectic(t)
        assert np.max(np.abs(s @ s.T - np.eye(8))) < 1e-12

    def test_tap_arm_variance(self):
        cov = ref.embed_with_vacuum_ancillas(ref.tmsv_covariance(0.5))
        s = ref.beamsplitter_symplectic(0.95, ("A", "C"))
        out = ref.apply_symplectic(cov, s)
        trace_c = out[4, 4] + out[5, 5]
        expected = 2.0 * (0.05 * np.cosh(2.0 * np.arctanh(0.5)) + 0.95)
        assert abs(trace_c - expected) < 1e-8

    @pytest.mark.parametrize("t", [0.0, -0.2, 1.1])
    def test_domain(self, t):
        with pytest.raises(DomainError):
            ref.beamsplitter_symplectic(t)

    def test_bad_pair(self):
        with pytest.raises(DomainError):
            ref.beamsplitter_symplectic(0.5, ("A", "B"))


class TestLossChannel:
    def test_unit_efficiencies_are_identity(self):
        ch = ref.detector_loss_channel(1.0, 1.0)
        assert np.allclose(ch.linear_part, np.eye(8), atol=1e-15)
        assert np.allclose(ch.noise_part, 0.0, atol=1e-15)

    def test_vacuum_fixed_point(self):
        ch = ref.detector_loss_channel(0.5, 0.5)
        assert np.allclose(ref.apply_channel(np.eye(8), ch), np.eye(8),
                           atol=1e-15)

    def test_thermal_scaling(self):
        variance = 3.7
        cov = np.eye(8)
        cov[4, 4] = cov[5, 5] = variance
        ch = ref.detector_loss_channel(1.0, 0.3)
        out = ref.apply_channel(cov, ch)
        assert abs(out[4, 4] - (0.3 * variance + 0.7)) < 1e-12

    @pytest.mark.parametrize("effs", [(0.0, 0.5), (0.5, 0.0), (1.2, 0.5)])
    def test_domain(self, effs):
        with pytest.raises(DomainError):
            ref.detector_loss_channel(*effs)


class TestApplyChannel:
    def test_identity_channel_exact(self):
        cov = pipeline_cov()
        ch = ref.detector_loss_channel(1.0, 1.0)
        assert np.array_equal(ref.apply_channel(cov, ch), cov)

    def test_matches_per_mode_loss_composition(self):
        # same pipeline with the detector losses applied one mode at a time
        lam, t, eta, eta_bhd = 0.5, 0.95, 0.3, 1.0
        cov = ref.embed_with_vacuum_ancillas(ref.tmsv_covariance(lam))
        s = ref.beamsplitter_symplectic(t, ("A", "C")) \
            @ ref.beamsplitter_symplectic(t, ("B", "D"))
        cov = ref.apply_symplectic(cov, s)
        stepwise = cov.copy()
        for mode, eff in zip("ABCD", (eta_bhd, eta_bhd, eta, eta)):
            x = np.eye(8)
            g = np.zeros((8, 8))
            for idx in ref.mode_indices(mode):
                x[idx, idx] = np.sqrt(eff)
                g[idx, idx] = 1.0 - eff
            stepwise = ref.apply_channel(stepwise, ref.GaussianChannel(x, g))
        direct = ref.apply_channel(
            cov, ref.detector_loss_channel(eta_bhd, eta))
        assert np.max(np.abs(direct - stepwise)) < 1e-10

    def test_symplectic_noise_free_channel_preserves_spectrum(self):
        cov = ref.embed_with_vacuum_ancillas(ref.tmsv_covariance(0.5))
        s = ref.beamsplitter_symplectic(0.7)
        ch = ref.GaussianChannel(s, np.zeros((8, 8)))
        before = np.sort(ref.symplectic_eigenvalues(cov))
        after = np.sort(ref.symplectic_eigenvalues(
            ref.apply_channel(cov, ch)))
        assert np.allclose(before, after, atol=1e-9)

    def test_dimension_mismatch(self):
        ch = ref.detector_loss_channel(1.0, 0.5)
        with pytest.raises(DomainError):
            ref.apply_channel(np.eye(4), ch)

    def test_noise_must_be_psd(self):
        with pytest.raises(DomainError):
            ref.GaussianChannel(np.eye(8), -0.01 * np.eye(8))


class TestXBlock:
    @pytest.mark.parametrize("lam,t,eta,eta_bhd", [
        (0.0, 0.95, 0.3, 0.95), (0.3, 0.9, 0.2, 0.85), (0.5, 0.95, 0.3, 1.0),
        (0.65, 0.99, 1.0, 0.95), (0.9, 0.85, 0.05, 0.5),
    ])
    def test_matches_component_pipeline(self, lam, t, eta, eta_bhd):
        cov = ref.component_covariance(lam, t, eta, eta_bhd)
        assert np.max(np.abs(pipeline_cov(lam, t, eta, eta_bhd) - cov)) < 1e-14

    def test_output_decouples_exactly(self):
        flip = np.diag([1.0, -1.0, 1.0, -1.0])
        rng = np.random.default_rng(5)
        for _ in range(50):
            cov = pipeline_cov(rng.uniform(0.0, 0.95), rng.uniform(0.5, 1.0),
                               rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0))
            x = cov[0::2, 0::2]
            assert np.all(cov[0::2, 1::2] == 0.0)
            assert np.all(cov[1::2, 0::2] == 0.0)
            assert np.array_equal(cov[1::2, 1::2], flip @ x @ flip)

    def test_broadcasts_over_rows(self):
        lams = np.array([0.1, 0.4, 0.7])
        blocks = gaussian.x_block(lams, 0.95, np.array([[0.3], [0.9]]), 1.0)
        assert blocks.shape == (2, 3, 4, 4)
        for i, eta in enumerate((0.3, 0.9)):
            for j, lam in enumerate(lams):
                assert np.array_equal(blocks[i, j],
                                      gaussian.x_block(lam, 0.95, eta, 1.0))

    @pytest.mark.parametrize("args", [
        (1.0, 0.95, 0.3, 1.0), ([0.5, -0.1], 0.95, 0.3, 1.0),
        (0.5, 0.0, 0.3, 1.0), (0.5, 0.95, [0.3, 1.2], 1.0),
        (0.5, 0.95, 0.3, np.nan),
    ])
    def test_domain(self, args):
        with pytest.raises(DomainError):
            gaussian.x_block(*args)


class TestSpdInverse:
    def test_inverts(self):
        cov = pipeline_cov(0.6, 0.9, 0.4, 0.9)
        assert np.max(np.abs(ref.spd_inverse(cov) @ cov - np.eye(8))) < 1e-9

    def test_singular_input_reports_condition(self):
        cov = np.eye(8)
        cov[0, 0] = 1e-14
        with pytest.raises(SingularMatrixError) as info:
            ref.spd_inverse(cov)
        assert info.value.condition_estimate > 1e12


class TestPipelineInvariants:
    @pytest.mark.parametrize("lam,t,eta,eta_bhd", [
        (0.3, 0.9, 0.2, 0.85), (0.5, 0.95, 0.3, 1.0), (0.65, 0.99, 1.0, 0.95),
    ])
    def test_output_is_physical(self, lam, t, eta, eta_bhd):
        cov = pipeline_cov(lam, t, eta, eta_bhd)
        assert np.max(np.abs(cov - cov.T)) < 1e-12
        assert np.all(ref.symplectic_eigenvalues(cov) >= 1.0 - 1e-9)

    def test_deterministic(self):
        assert np.array_equal(pipeline_cov(0.6, 0.95, 0.3, 0.95),
                              pipeline_cov(0.6, 0.95, 0.3, 0.95))

    def test_vacuum_input_leaves_detector_modes_in_vacuum(self):
        cov = pipeline_cov(0.0, 0.95, 0.3, 0.95)
        assert np.max(np.abs(cov[4:, 4:] - np.eye(4))) < 1e-12


class TestSqueezingConversions:
    def test_quoted_operating_point(self):
        # 5.6 dB of squeezing corresponds to lambda close to 0.57
        assert abs(gaussian.squeezing_to_db(0.57) - 5.6) < 0.05

    @pytest.mark.parametrize("lam", [0.1, 0.57, 0.9])
    def test_round_trip(self, lam):
        assert gaussian.db_to_squeezing(gaussian.squeezing_to_db(lam)) == \
            pytest.approx(lam, abs=1e-12)
