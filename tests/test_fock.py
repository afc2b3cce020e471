import time
import tracemalloc
from dataclasses import replace
from decimal import Decimal

import mpmath
import numpy as np
import pytest
from scipy.integrate import trapezoid

from cvbell import bell, conditioning, fock
from cvbell.errors import DomainError, InvalidRegimeError, TruncationError
from closed_form_reference import exact_sign_correlation
from fock_reference import (
    closed_sign_operator, dense_apply_loss, dense_click_conditioned,
    dense_diag_sign_correlation, dense_sign_correlation, dense_wigner_values,
    exact_fock_correlation, exact_ideal_sign_operator, exact_pair_chsh,
    exact_pair_projection, exact_sign_entries, exact_success_prob,
    exact_tap_amplitude_table, expand_record, folded_record,
    gathered_pull_back_sign, grid_sign_operator, hermite_functions,
    ideal_subtracted_state, kept_mode_distribution, kept_mode_tail,
    kraus_loss_dual, ladder, loop_sign_operator, loop_wigner_pair_table,
    quadrature_operators, reference_grid, reference_sign_correlation,
    reference_sign_reduced, second_moments, tril_fence_top)
import symplectic_reference as ref


def vacuum_record(n_trunc=16):
    """The vacuum as a `fock.HeraldedState`: source |0,0> and the weight
    vector of zero tapped photons."""
    unit = np.eye(n_trunc)[0]
    return fock.HeraldedState(unit, fock.tap_amplitude_table(0.9, n_trunc),
                              0.9, unit, 1.0, n_trunc)


#: the memoised builders of the tables that depend on the truncation alone
TABLE_MEMOS = (fock._root_binomials, fock._sign_tables)


def clear_table_memos():
    """Empty the memos of TABLE_MEMOS, so that the next call builds cold."""
    for memo in TABLE_MEMOS:
        memo.cache_clear()


def table_arrays(build, n_trunc):
    """The arrays a builder of TABLE_MEMOS returns for N = n_trunc, as a
    tuple."""
    tables = build(n_trunc)
    return tables if isinstance(tables, tuple) else (tables,)


#: truncations tried by `fenced_conditioning`, in order
TRUNCATION_STEPS = (40, 60, 90, 130, 160)


def fenced_conditioning(squeezing, transmittance, apd_efficiency):
    """Heralded state one step of TRUNCATION_STEPS above the smallest
    truncation that passes the tail fence."""
    for step, n_trunc in enumerate(TRUNCATION_STEPS):
        try:
            fock.lossy_click_conditioning(squeezing, transmittance,
                                          apd_efficiency, n_trunc)
        except TruncationError:
            continue
        return fock.lossy_click_conditioning(squeezing, transmittance,
                                             apd_efficiency,
                                             TRUNCATION_STEPS[step + 1])
    raise TruncationError("no truncation step passes the fence")


class TestStates:
    def test_tmsv_norm_and_support(self):
        coeffs = fock.tmsv_state(0.5, 40)
        assert coeffs.shape == (40,) and coeffs.dtype == float
        assert coeffs @ coeffs == pytest.approx(1.0, abs=1e-12)
        law = np.sqrt(1.0 - 0.25) * 0.5 ** np.arange(40)
        assert np.max(np.abs(coeffs - law)) < 1e-15

    def test_heavy_tail_raises(self):
        with pytest.raises(TruncationError):
            fock.tmsv_state(0.85, 16)

    @pytest.mark.parametrize("call, text", [
        (lambda: fock.tmsv_amplitudes(1, 40),
         "squeezing must lie in [0, 1), got 1.0"),
        (lambda: fock.tap_amplitude_table(0, 40),
         "transmittance must lie in (0, 1], got 0.0"),
        (lambda: fock.lossy_click_conditioning(0.5, 0.95, 1.5, 40),
         "apd_efficiency must lie in (0, 1], got 1.5"),
        (lambda: fock.tap_amplitude_table(True, 40),
         "transmittance must be a real number, got True"),
    ], ids=["squeezing", "transmittance", "apd_efficiency",
            "bool-transmittance"])
    def test_parameter_domain_error_text(self, call, text):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == text

    @pytest.mark.parametrize("value", [np.array([0.5, 0.4]), [0.5], "0.5",
                                       None, 0.5 + 0j, True, np.True_],
                             ids=["two-element", "list", "str", "none",
                                  "complex", "bool", "numpy-bool"])
    def test_one_number_inputs_refuse_anything_else(self, fock_realistic,
                                                    value):
        # each goes through gaussian.check_parameter, with its text
        rho, _ = fock_realistic
        calls = [
            ("squeezing", lambda v: fock.tmsv_amplitudes(v, 40)),
            ("squeezing",
             lambda v: fock.lossy_click_conditioning(v, 0.95, 0.3, 40)),
            ("transmittance", lambda v: fock.tap_amplitude_table(v, 40)),
            ("transmittance",
             lambda v: fock.lossy_click_conditioning(0.5, v, 0.3, 40)),
            ("transmittance", fock.fock_optimal_product),
            ("apd_efficiency", lambda v: fock.click_weights(v, 40)),
            ("apd_efficiency",
             lambda v: fock.lossy_click_conditioning(0.5, 0.95, v, 40)),
            ("homodyne_efficiency",
             lambda v: fock.fock_sign_correlation(rho, 0.0, 0.0, v)),
            ("homodyne_efficiency",
             lambda v: fock.fock_chsh(rho, bell.DEFAULT_ANGLES, v)),
        ]
        for name, call in calls:
            with pytest.raises(DomainError) as info:
                call(value)
            assert str(info.value) == \
                f"{name} must be a real number, got {value!r}"

    def test_minimum_truncation(self):
        with pytest.raises(DomainError):
            fock.tmsv_state(0.1, 8)

    @pytest.mark.parametrize("call", [
        lambda n: fock.tmsv_amplitudes(0.5, n),
        lambda n: fock.tmsv_state(0.5, n),
        ladder,
        quadrature_operators,
        lambda n: fock.tap_amplitude_table(0.5, n),
        lambda n: fock.click_weights(0.5, n),
        lambda n: fock.lossy_click_conditioning(0.5, 0.95, 0.3, n),
        lambda n: fock.pair_projected_state(0.5, 0.95, n),
    ], ids=["tmsv_amplitudes", "tmsv_state", "ladder", "quadrature_operators",
            "tap_amplitude_table", "click_weights", "lossy_click_conditioning",
            "pair_projected_state"])
    def test_truncation_must_be_an_integer(self, call):
        for n_trunc in (40.5, 40.0, "40", True):
            with pytest.raises(DomainError) as info:
                call(n_trunc)
            assert str(info.value) == \
                f"truncation must be an integer >= 0, got {n_trunc!r}"

    @pytest.mark.parametrize("n_trunc", [0, 1, 2, 16])
    def test_ladder_shape(self, n_trunc):
        # sqrt(n) on the superdiagonal and zero elsewhere, N = 0 included,
        # where np.diag of the empty superdiagonal would be 1 x 1
        a = ladder(n_trunc)
        assert a.shape == (n_trunc, n_trunc)
        assert np.array_equal(np.diag(a, 1), np.sqrt(np.arange(1, n_trunc)))
        assert np.count_nonzero(a) == max(n_trunc - 1, 0)
        for op in quadrature_operators(n_trunc):
            assert op.shape == (n_trunc, n_trunc)

    def test_second_moments_match_einsum_form(self):
        # the four-operand einsum on the dense amplitudes diag(g)
        rng = np.random.default_rng(8)
        n = 20
        coeffs = 0.5 ** np.arange(n) * rng.normal(size=n)
        coeffs /= np.linalg.norm(coeffs)
        x, p = quadrature_operators(n)
        quads, psi = (x, p), np.diag(coeffs)
        expected = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                mode_i, op_i = i // 2, quads[i % 2]
                mode_j, op_j = j // 2, quads[j % 2]
                if mode_i == mode_j:
                    sym = op_i @ op_j + op_j @ op_i
                    path = "ab,ac,cb->" if mode_i == 0 else "ab,bc,ac->"
                    val = np.einsum(path, psi.conj(), sym, psi)
                else:
                    op_a, op_b = (op_i, op_j) if mode_i == 0 else (op_j, op_i)
                    val = 2.0 * np.einsum("ab,ac,bd,cd->", psi.conj(), op_a,
                                          op_b, psi)
                expected[i, j] = val.real
        assert np.max(np.abs(second_moments(coeffs) - expected)) < 1e-13

    def test_second_moments_check_their_input(self):
        coeffs = fock.tmsv_state(0.5, 40)
        with pytest.raises(DomainError, match="norm"):
            second_moments(2.0 * coeffs)
        with pytest.raises(DomainError, match="vector"):
            second_moments(np.diag(coeffs))
        heavy = fock.tmsv_amplitudes(0.85, 16)
        with pytest.raises(TruncationError):
            second_moments(heavy / np.linalg.norm(heavy))

    def test_tap_amplitude_table_matches_forty_digits(self):
        # whole tables within 1e-14 at N = 40 and 60; then the entries
        # above 1e-250 of seeded rows, the top row among them, within
        # 1e-14 relative up to N = 111 and 2e-14 up to N = 300, the
        # rounding of a running product of k factors and of two powers
        for n_trunc in (40, 60):
            for t in (0.05, 0.3, 0.7, 0.95, 0.999):
                table = fock.tap_amplitude_table(t, n_trunc)
                exact = exact_tap_amplitude_table(t, n_trunc)
                assert np.max(np.abs(table - exact)) < 1e-14
        rng = np.random.default_rng(2901)
        for n_trunc, bound in ((61, 1e-14), (111, 1e-14), (200, 2e-14),
                               (300, 2e-14)):
            for t in (0.05, 0.3, 0.475, 0.7, 0.95, 0.999):
                rows = np.r_[n_trunc - 1,
                             rng.choice(n_trunc - 1, 3, replace=False)]
                table = fock.tap_amplitude_table(t, n_trunc)[rows]
                exact = exact_tap_amplitude_table(t, n_trunc, rows)
                big = np.abs(exact) > 1e-250
                assert np.all(np.abs(table - exact)[big]
                              <= bound * np.abs(exact[big])), (n_trunc, t)
        # past ROOT_BINOMIAL_LIMIT the product restarts in chunks: at
        # T = 1/2, whose powers stay normal for entries above 1e-200, the
        # top row and one more keep 2e-14.  Entries whose power of T or
        # 1 - T is subnormal come from logarithms: at N = 1100 they reach
        # 1e-156 (T = 0.05), and keep 3e-11
        for t, n_trunc, floor, bound in (
                (0.5, 2100, 1e-200, 2e-14),
                (0.05, 1100, 1e-250, 3e-11), (0.999, 1100, 1e-250, 3e-11)):
            rows = np.r_[n_trunc - 1, rng.choice(n_trunc - 1, 1)]
            table = fock.tap_amplitude_table(t, n_trunc)[rows]
            exact = exact_tap_amplitude_table(t, n_trunc, rows)
            big = np.abs(exact) > floor
            assert np.all(np.abs(table - exact)[big]
                          <= bound * np.abs(exact[big])), (n_trunc, t)

    def test_tap_amplitude_table_edges(self):
        # N = 0, 1 and 2 are the closed forms.  Over transmittances from
        # the least subnormal to 1 every entry is finite and zero above the
        # diagonal, and the squares of each row sum to 1 within N eps; no
        # step overflows, the corner past the truncation included
        sweep = np.r_[5e-324, 1e-300, 1e-150, np.logspace(-16, -1, 6),
                      np.linspace(0.05, 0.95, 10),
                      1.0 - np.logspace(-1, -16, 6), 1.0]
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for t in map(float, sweep):
                assert fock.tap_amplitude_table(t, 0).shape == (0, 0)
                assert np.array_equal(fock.tap_amplitude_table(t, 1), [[1.0]])
                assert np.array_equal(fock.tap_amplitude_table(t, 2),
                                      [[1.0, 0.0],
                                       [np.sqrt(t), -np.sqrt(1.0 - t)]])
                for n_trunc in (3, 16, 40, 111, 300):
                    table = fock.tap_amplitude_table(t, n_trunc)
                    assert np.all(np.isfinite(table)), (t, n_trunc)
                    assert not np.any(np.triu(table, 1)), (t, n_trunc)
                    assert np.max(np.abs((table ** 2).sum(axis=1) - 1.0)) \
                        <= n_trunc * np.finfo(float).eps, (t, n_trunc)
            # past N = 1025 the square roots of C(j + k, k) beyond the
            # truncation would overflow without the wrap, past
            # ROOT_BINOMIAL_LIMIT (2048) those below it would without the
            # chunks, and entries whose power of T or 1 - T is subnormal
            # come from logarithms
            for t, n_trunc in ((0.5, 1100), (5e-324, 2100), (0.5, 2100),
                               (1.0 - 1e-16, 2100)):
                table = fock.tap_amplitude_table(t, n_trunc)
                assert np.all(np.isfinite(table)), (t, n_trunc)
                assert not np.any(np.triu(table, 1)), (t, n_trunc)
                assert np.max(np.abs((table ** 2).sum(axis=1) - 1.0)) \
                    <= n_trunc * np.finfo(float).eps, (t, n_trunc)

    def test_second_moments_match_covariance(self):
        for lam in (0.0, 0.3, 0.5):
            cov = ref.tmsv_covariance(lam)
            moments = second_moments(fock.tmsv_state(lam, 60))
            assert np.max(np.abs(cov - moments)) < 1e-8


class TestIdealSubtractedState:
    """The ideal photon-subtracted state (n+1)(T lambda)^n |n, n>, which
    photon-pair projection heralds (`fock.pair_projected_state`)."""

    def test_projection_fidelity_high_transmittance(self):
        _, fidelity = ideal_subtracted_state(0.5, 0.999, 40)
        assert fidelity > 0.999

    def test_zero_squeezing_degenerate(self):
        with pytest.raises(InvalidRegimeError):
            fock.pair_projected_state(0.0, 0.95, 40)

    def test_truncation_stability(self):
        state40 = fock.pair_projected_state(0.5, 0.95, 40)
        state60 = fock.pair_projected_state(0.5, 0.95, 60)
        assert np.max(np.abs(state40 - state60[:40])) < 1e-10

    def test_convergence_guard(self):
        # a heavy photon-number tail is refused, not cut off
        with pytest.raises(TruncationError):
            fock.pair_projected_state(0.97, 0.99, 40)

    def test_amplitude_law(self):
        state = fock.pair_projected_state(0.4, 0.9, 40)
        n = np.arange(40)
        expected = (n + 1.0) * (0.36) ** n
        expected /= np.linalg.norm(expected)
        assert np.max(np.abs(state - expected)) < 1e-15

    def test_fidelity_pinned(self):
        _, fidelity = ideal_subtracted_state(0.5, 0.95, 40)
        assert abs(fidelity - 0.9999999999999996) < 1e-12


class TestClickConditioning:
    def test_limits_recover_ideal_state(self):
        rho, _ = fock.lossy_click_conditioning(0.5, 0.9999, 0.9999, 40)
        ideal, _ = ideal_subtracted_state(0.5, 0.9999, 40)
        psi = np.diag(ideal)
        fidelity = np.einsum("ab,abcd,cd->", psi.conj(), expand_record(rho),
                             psi).real
        assert fidelity > 0.999

    def test_click_rate_matches_gaussian_pipeline(self, realistic_state,
                                                  fock_realistic):
        _, p_click = fock_realistic
        assert abs(p_click - realistic_state.success_prob) / p_click < 1e-3

    def test_vacuum_never_clicks(self):
        with pytest.raises(InvalidRegimeError):
            fock.lossy_click_conditioning(0.0, 0.95, 0.3, 40)

    def test_density_matrix_is_physical(self, fock_realistic):
        # the record expanded densely: hermitian, unit trace, positive and
        # with a light tail
        rho, _ = fock_realistic
        dense = expand_record(rho)
        flat = dense.reshape(rho.n_trunc ** 2, rho.n_trunc ** 2)
        assert np.max(np.abs(flat - flat.conj().T)) < 1e-10
        assert np.einsum("abab->", dense).real == pytest.approx(1.0, abs=1e-9)
        eigs = np.linalg.eigvalsh(flat)
        assert eigs.min() > -1e-8
        probs = np.einsum("abab->ab", dense)
        assert kept_mode_tail(probs, rho.n_trunc) <= fock.TAIL_TOLERANCE

    def test_truncation_doubling_stability(self):
        rho32, p32 = fock.lossy_click_conditioning(0.6, 0.95, 0.3, 32)
        rho64, p64 = fock.lossy_click_conditioning(0.6, 0.95, 0.3, 64)
        assert abs(p32 - p64) < 1e-6
        e32 = fock.fock_sign_correlation(rho32, 0.0, -np.pi / 4)
        e64 = fock.fock_sign_correlation(rho64, 0.0, -np.pi / 4)
        assert abs(e32 - e64) < 1e-6


class TestSignCorrelation:
    def test_vacuum_uncorrelated(self):
        assert abs(fock.fock_sign_correlation(vacuum_record(), 0.3, 0.9)) < 1e-9

    def test_matches_closed_form(self, realistic_state, fock_realistic):
        rho, _ = fock_realistic
        marginal = bell.rotated_marginal(realistic_state, 0.0, -np.pi / 4)
        closed = bell.sign_correlation(marginal)
        value = fock.fock_sign_correlation(rho, 0.0, -np.pi / 4, 0.95)
        assert abs(closed - value) < 1e-4

    def test_opposite_angle_covariance(self, fock_realistic):
        # the heralded state is phase covariant under opposite rotations of
        # the two modes, so E(theta, -theta) equals E(0, 0)
        rho, _ = fock_realistic
        e_base = fock.fock_sign_correlation(rho, 0.0, 0.0)
        e_shift = fock.fock_sign_correlation(rho, 0.35, -0.35)
        assert abs(e_base - e_shift) < 1e-6

    def test_loss_shrinks_correlation(self, fock_realistic):
        rho, _ = fock_realistic
        e_full = fock.fock_sign_correlation(rho, 0.0, -np.pi / 4, 1.0)
        e_lossy = fock.fock_sign_correlation(rho, 0.0, -np.pi / 4, 0.7)
        assert abs(e_lossy) < abs(e_full)

    @pytest.mark.parametrize("eta", [1.5, 0.0])
    def test_homodyne_efficiency_outside_unit_interval_raises(
            self, fock_realistic, eta):
        rho, _ = fock_realistic
        text = f"homodyne_efficiency must lie in (0, 1], got {eta}"
        with pytest.raises(DomainError) as info:
            fock.fock_sign_correlation(rho, 0.0, -np.pi / 4, eta)
        assert str(info.value) == text
        with pytest.raises(DomainError) as info:
            fock.fock_chsh(rho, bell.DEFAULT_ANGLES, eta)
        assert str(info.value) == text

    @pytest.mark.parametrize("theta, phi, text", [
        (np.inf, 0.0, "angles must be finite, got (inf, 0.0)"),
        (0.0, np.nan, "angles must be finite, got (0.0, nan)"),
        ("0.3", 0.0, "angles must be real numbers, got ('0.3', 0.0)"),
        (0.0, None, "angles must be real numbers, got (0.0, None)"),
        (1j, 0.0, "angles must be real numbers, got (1j, 0.0)"),
        (True, 0.0, "angles must be real numbers, got (True, 0.0)"),
    ], ids=["inf-theta", "nan-phi", "str-theta", "none-phi", "complex-theta",
            "bool-theta"])
    def test_angle_outside_domain_raises(self, fock_realistic, theta, phi,
                                         text):
        # the texts `bell.check_angles` gives `fock_chsh`; an infinite
        # angle used to give NaN with a RuntimeWarning
        rho, _ = fock_realistic
        with pytest.raises(DomainError) as info:
            fock.fock_sign_correlation(rho, theta, phi, 0.95)
        assert str(info.value) == text

    def test_unit_homodyne_efficiency_is_lossless(self, fock_realistic):
        rho, _ = fock_realistic
        value = fock.fock_sign_correlation(rho, 0.0, -np.pi / 4, 1.0)
        assert value == fock.fock_sign_correlation(rho, 0.0, -np.pi / 4)
        assert value == pytest.approx(0.5077034482709255, abs=1e-12)

    @pytest.mark.parametrize("eta", [1.0, 0.95, 0.7, 0.3])
    def test_matches_fifty_digits(self, realistic_params, eta):
        params = replace(realistic_params, homodyne_efficiency=eta)
        rho, _ = fock.lossy_click_conditioning(
            params.squeezing, params.transmittance, params.apd_efficiency, 60)
        value = fock.fock_sign_correlation(rho, 0.0, -np.pi / 4, eta)
        exact = exact_sign_correlation(params, 0.0, -np.pi / 4)
        assert abs(value - exact) < 1e-14

    def test_referee_over_the_domain(self):
        # Fock E within the rounding budget of the signed four-term sum, and
        # Fock P within 1e-7, one truncation step above the fence
        rng = np.random.default_rng(20261018)
        for _ in range(30):
            lam = rng.uniform(0.05, 0.9)
            t = rng.uniform(0.85, 0.999)
            eta = rng.uniform(0.05, 1.0)
            eta_bhd = rng.uniform(0.7, 1.0)
            theta, phi = rng.uniform(-np.pi, np.pi, size=2)
            params = bell.ExperimentParams(lam, t, eta, eta_bhd)
            state = conditioning.conditional_state(params.output_covariance())
            marginal = bell.rotated_marginal(state, theta, phi)
            e_closed = bell.sign_correlation(marginal)
            rho, p_click = fenced_conditioning(lam, t, eta)
            e_fock = fock.fock_sign_correlation(rho, theta, phi, eta_bhd)
            budget = 8 * np.abs(state.weights).sum() * np.finfo(float).eps
            assert abs(e_fock - e_closed) <= budget + 1e-12
            p_closed = state.success_prob
            assert abs(p_click - p_closed) <= 1e-7 * p_closed

    def test_full_chsh_cross_check(self, realistic_params, fock_realistic):
        rho, _ = fock_realistic
        s_fock = fock.fock_chsh(rho, realistic_params.angles,
                                realistic_params.homodyne_efficiency)
        s_gauss = bell.chsh(realistic_params).S
        assert abs(s_fock - s_gauss) < 4e-4


#: lambda T and S of `fock.fock_optimal_product` at T = 0.9, 0.95 and 0.99
PINNED_PRODUCT = "0x1.24d636981bc33p-1"
PINNED_S = "0x1.062aad5ed9ebap+1"


class TestOptimalProduct:
    def test_quoted_product(self):
        product, s_max = fock.fock_optimal_product(0.99)
        assert product == pytest.approx(0.57, abs=0.02)
        assert s_max > 2.0

    def test_product_is_the_invariant(self):
        p_90, _ = fock.fock_optimal_product(0.90)
        p_99, _ = fock.fock_optimal_product(0.99)
        assert abs(p_90 - p_99) < 0.01

    def test_pinned_at_point_nine(self):
        product, s_max = fock.fock_optimal_product(0.90)
        assert abs(product - 0.5719468174628503) < 1e-12
        assert abs(s_max - 2.0481774056568973) < 1e-12

    @pytest.mark.parametrize("transmittance", [0.90, 0.95, 0.99])
    def test_bitwise_pinned(self, transmittance):
        # the values of the one-point-at-a-time golden-section search over
        # lambda T; for T above 0.8 the scan grid does not depend on T.  S
        # is pinned where the closed-form sign operator puts it, which
        # test_pinned_value_matches_forty_digits checks
        assert fock.fock_optimal_product(transmittance) == (
            float.fromhex(PINNED_PRODUCT), float.fromhex(PINNED_S))

    def test_pinned_value_matches_forty_digits(self):
        # S at the pinned lambda T from the 40-digit state (n + 1)(lambda T)^n
        # and sign operator: the pin is within one ulp, closer than the
        # recurrence's pin 0x1.062aad5ed9eb8p+1
        exact = exact_pair_chsh(float.fromhex(PINNED_PRODUCT),
                                fock.PRODUCT_TRUNCATION)
        error = abs(Decimal(float.fromhex(PINNED_S)) - exact)
        assert error <= Decimal(np.spacing(2.0))
        assert error < abs(Decimal(float.fromhex("0x1.062aad5ed9eb8p+1"))
                           - exact)

    @pytest.mark.parametrize("tol", [1e-300, 1e-17])
    def test_tolerance_below_float_spacing_ends(self, tol):
        # the bracket stops shrinking at the float spacing near 0.572, above
        # tol; the search ends there, at the best lambda T found
        start = time.perf_counter()
        product, s_max = fock.fock_optimal_product(0.95, tol=tol)
        assert time.perf_counter() - start < 1.0
        default_product, default_s = fock.fock_optimal_product(0.95)
        assert abs(product - default_product) < 5e-4
        assert s_max >= default_s

    def test_one_tap_table_per_call(self, monkeypatch):
        # every scan and search point is heralded behind the same table,
        # and the Schmidt vector is bitwise the public function's
        built = []
        table = fock.tap_amplitude_table
        monkeypatch.setattr(fock, "tap_amplitude_table",
                            lambda *args: built.append(args) or table(*args))
        fock.fock_optimal_product(0.95)
        assert built == [(0.95, fock.PRODUCT_TRUNCATION)]
        tap = table(0.95, 60)
        for product in (0.4, 0.572, 0.7):
            assert np.array_equal(
                fock._pair_projection(product / 0.95, 0.95, 60, tap),
                fock.pair_projected_state(product / 0.95, 0.95, 60))

    @pytest.mark.parametrize("transmittance",
                             [0.75, 0.70, 0.65, 0.59, 0.58, 0.575])
    def test_low_transmittance_keeps_the_product(self, transmittance):
        # the optimum lambda T = 0.572 needs lambda = 0.572 / T < 1 only;
        # below T = 0.59 it lies between the last two scan points
        product, s_max = fock.fock_optimal_product(transmittance)
        assert abs(product - 0.572) < 5e-4
        assert abs(s_max - 2.0481774) < 1e-7

    def test_optimum_on_scan_boundary_raises(self):
        # at T = 0.5 the scan stops below lambda T = 0.5, under the optimum
        with pytest.raises(DomainError) as info:
            fock.fock_optimal_product(0.5)
        assert str(info.value) == "optimal squeezing fell on the scan boundary"

    def test_optimum_below_the_scan_raises(self, monkeypatch):
        # S peaks at lambda T = 0.572, so over a scan from 0.6 it falls
        # from the first point on
        monkeypatch.setattr(fock, "PRODUCT_RANGE", (0.6, 0.8))
        with pytest.raises(DomainError) as info:
            fock.fock_optimal_product(0.95)
        assert str(info.value) == "optimal squeezing fell on the scan boundary"

    def test_empty_scan_raises(self):
        # at T = 0.3 no lambda T of the scan range has lambda < 1
        with pytest.raises(DomainError) as info:
            fock.fock_optimal_product(0.3)
        assert str(info.value) == "optimal squeezing fell on the scan boundary"

    def test_transmittance_outside_domain_raises(self):
        with pytest.raises(DomainError) as info:
            fock.fock_optimal_product(0.0)
        assert str(info.value) == "transmittance must lie in (0, 1], got 0.0"

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf, "1e-3",
                                     True])
    def test_tolerance_outside_domain_raises(self, tol):
        # a tolerance the golden-section bracket can never reach would
        # search forever
        with pytest.raises(DomainError) as info:
            fock.fock_optimal_product(0.95, tol=tol)
        assert str(info.value) == (
            f"tol must be a finite positive number, got {tol!r}"
            if isinstance(tol, float)
            else f"tol must be a real number, got {tol!r}")


class TestWigner:
    def test_pair_table_matches_transform_definition(self):
        # check the Laguerre closed form of the reference table against the
        # defining integral
        # W(x,p) = (1/2pi) Int psi_m(x+y/2) psi_n(x-y/2) exp(-ipy) dy
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1.5, 1.5, size=(6, 2))
        y = np.linspace(-18.0, 18.0, 6001)
        table = loop_wigner_pair_table(6, pts[:, 0], pts[:, 1])
        for x0, p0, closed in zip(pts[:, 0], pts[:, 1],
                                  np.moveaxis(table, -1, 0)):
            left = hermite_functions(6, x0 + y / 2.0)
            right = hermite_functions(6, x0 - y / 2.0)
            phase = np.exp(-1j * p0 * y)
            for m in range(6):
                for n in range(6):
                    direct = trapezoid(left[m] * right[n] * phase,
                                       y) / (2.0 * np.pi)
                    assert abs(direct - closed[m, n]) < 1e-8

    def test_pair_table_matches_loop(self):
        # the radial parts of `wigner_values`, with their phases
        # e^{-i(m-n) varphi} put back, are the pair table
        x, p = np.random.default_rng(6).normal(scale=1.5, size=(2, 20))
        for n_trunc in (40, 60):
            offset = np.subtract.outer(np.arange(n_trunc), np.arange(n_trunc))
            table = (fock._radial_table(n_trunc, x * x + p * p)
                     * np.exp(-1j * offset[..., None] * np.arctan2(p, x)))
            direct = loop_wigner_pair_table(n_trunc, x, p)
            assert np.max(np.abs(table - direct)) < 1e-14

    def test_vacuum_wigner(self):
        pts = np.array([[0.0, 0.0, 0.0, 0.0], [0.5, -0.2, 0.1, 0.3]])
        values = fock.wigner_values(vacuum_record(), pts)
        expected = np.exp(-np.sum(pts ** 2, axis=1)) / np.pi ** 2
        assert np.max(np.abs(values - expected)) < 1e-12

    def test_points_must_have_four_components(self):
        with pytest.raises(DomainError) as info:
            fock.wigner_values(vacuum_record(), np.zeros((2, 3)))
        assert str(info.value) == "phase-space points must have 4 components"

    @pytest.mark.parametrize("points", [
        np.array([["0.5", "0.1", "0.0", "0.2"]]), [[0.5, 0.1, None, 0.2]],
        np.zeros((2, 4), dtype=bool), np.zeros(4, dtype=complex)],
        ids=["str", "none", "bool", "complex"])
    def test_points_must_be_real_numbers(self, points):
        with pytest.raises(DomainError) as info:
            fock.wigner_values(vacuum_record(), points)
        bad = points.flat[0] if isinstance(points, np.ndarray) else None
        assert str(info.value) == \
            f"phase-space points must be a real number, got {bad!r}"

    def test_matches_gaussian_mixture(self, cut_state, fock_cut_state):
        rho, _ = fock_cut_state
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(25, 4))
        w_fock = fock.wigner_values(rho, pts)
        w_gauss = conditioning.wigner_value(cut_state, pts)
        mask = np.abs(w_gauss) > 1e-8
        assert np.max(np.abs((w_fock[mask] - w_gauss[mask]) / w_gauss[mask])) \
            < 1e-6


class TestDensityBlocks:
    """The package's truncation refusals, and the memory its correlator
    takes against the (2N-1, N, N) array of a density stored as its
    photon-number-difference blocks."""

    def test_heavy_density_tail_raises(self):
        # about 2e-4 of the heralded state's probability sits in the top
        # four photon-number layers at this truncation
        with pytest.raises(TruncationError):
            fock.lossy_click_conditioning(0.6, 0.95, 0.3, 16)

    def test_rejects_truncation_below_floor(self):
        with pytest.raises(DomainError) as info:
            fock.lossy_click_conditioning(0.5, 0.95, 0.3, 4)
        assert str(info.value) == \
            "truncation must be an integer >= 16, got 4"

    def test_correlator_allocates_less_than_a_block_array(self):
        # the correlator pulls the sign operator back through a view; it
        # builds no (2N-1, N, N) array, which at N = 60 is 3.43 MB.  The
        # tables that depend on N alone are memoised, so the memos are
        # emptied inside the window and the peak counts a cold build; the
        # warm-up only keeps numpy's one-time costs out.
        n_trunc = 60
        rho, _ = fock.lossy_click_conditioning(0.6, 0.95, 0.3, n_trunc)
        fock.fock_sign_correlation(rho, 0.0, -np.pi / 4, 1.0)
        tracemalloc.start()
        try:
            clear_table_memos()
            fock.fock_sign_correlation(rho, 0.0, -np.pi / 4, 0.95)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (2 * n_trunc - 1) * n_trunc * n_trunc * 8


SMALL_POINTS = [(0.4, 0.95, 0.3), (0.35, 0.9, 1.0)]


@pytest.fixture(scope="module", params=SMALL_POINTS)
def small_pair(request):
    """Heralded state, its click probability, the normalized dense state and
    its trace at N=20, and the row (squeezing, T, APD efficiency)."""
    squeezing, transmittance, apd = request.param
    rho, p_click = fock.lossy_click_conditioning(squeezing, transmittance,
                                                 apd, 20)
    dense = dense_click_conditioned(squeezing, transmittance, apd, 20)
    p_dense = float(np.einsum("abab->", dense))
    return rho, p_click, dense / p_dense, p_dense, request.param


class TestDenseReferences:
    def test_conditioning_matches_scatter_loop(self, small_pair):
        rho, p_click, dense, p_dense, _ = small_pair
        assert np.max(np.abs(expand_record(rho) - dense)) < 1e-12
        assert abs(p_click - p_dense) < 1e-12 * p_dense

    @pytest.mark.parametrize("mode", [0, 1])
    def test_loss_dual_matches_kraus_operators(self, small_pair, mode):
        # Tr(L(rho) (O_A (x) O_B)) = Tr(rho (O_A (x) O_B)) with L^dagger
        # applied to the operator of the lossy mode; the sign operator at
        # efficiency eta is the dual of the one at efficiency 1
        _, _, dense, _, _ = small_pair
        rng = np.random.default_rng(13 + mode)
        ops = []
        for _ in range(2):
            z = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
            ops.append(z + z.conj().T)
        dual = list(ops)
        dual[mode] = kraus_loss_dual(ops[mode], 0.8)
        lossy = dense_apply_loss(dense, 0.8, mode)
        schrodinger = np.einsum("abcd,ca,db->", lossy, *ops)
        heisenberg = np.einsum("abcd,ca,db->", dense, *dual)
        assert abs(schrodinger - heisenberg) < 1e-12
        for n_trunc in (20, 60):
            ideal = closed_sign_operator(n_trunc)
            for eta in (0.05, 0.3, 0.8, 0.95, 1.0 - 1e-6):
                assert np.max(np.abs(loop_sign_operator(n_trunc, eta)
                                     - kraus_loss_dual(ideal, eta))) < 1e-13

    @pytest.mark.parametrize("eta", [1.0, 0.9, 1.0 - 1e-6])
    def test_correlator_matches_grid_density(self, small_pair, eta):
        rho, _, dense, _, _ = small_pair
        for theta, phi in [(0.0, -np.pi / 4), (0.7, 0.2), (-2.5, 1.1)]:
            e_fock = fock.fock_sign_correlation(rho, theta, phi, eta)
            e_dense = dense_sign_correlation(dense, theta, phi, eta)
            assert abs(e_fock - e_dense) < 1e-12

    def test_wigner_matches_dense_contraction(self, small_pair):
        rho, _, dense, _, _ = small_pair
        pts = np.random.default_rng(11).normal(size=(12, 4))
        assert np.max(np.abs(fock.wigner_values(rho, pts)
                             - dense_wigner_values(dense, pts))) < 1e-12

    def test_realistic_point_at_full_truncation(self, realistic_params,
                                                fock_realistic):
        rho, p_click = fock_realistic
        dense = dense_click_conditioned(0.6, 0.95, 0.3, 40)
        p_dense = float(np.einsum("abab->", dense))
        dense /= p_dense
        assert abs(p_click - p_dense) < 1e-12 * p_dense
        eta = realistic_params.homodyne_efficiency
        e_fock = fock.fock_sign_correlation(rho, 0.0, -np.pi / 4, eta)
        e_dense = dense_sign_correlation(dense, 0.0, -np.pi / 4, eta)
        assert abs(e_fock - e_dense) < 1e-12
        pts = np.random.default_rng(12).normal(size=(4, 4))
        assert np.max(np.abs(fock.wigner_values(rho, pts)
                             - dense_wigner_values(dense, pts))) < 1e-12

    def test_complex_blocks_match_dense_references(self, small_pair):
        # the heralded state rotated by e^{i theta n_A}: dense entry
        # [a, b, c, d] picks up e^{i theta (a - c)}, which makes it complex.
        # The record stays real: the package rotates the measurement
        # instead, the angle of mode A for E and the phase-space point of
        # mode A by -theta for W
        rho, _, dense, _, row = small_pair
        theta = 0.7
        idx = np.arange(rho.n_trunc)
        rotated = dense * np.exp(1j * theta * np.subtract.outer(
            idx, idx))[:, None, :, None]
        for phi in (0.0, -np.pi / 4, 1.1):
            for eta in (1.0, 0.9):
                e_dense = dense_sign_correlation(rotated, 0.0, phi, eta)
                e_plain = fock.fock_sign_correlation(rho, theta, phi, eta)
                assert abs(e_dense - e_plain) < 1e-12
                exact = exact_fock_correlation(*row, rho.n_trunc, eta,
                                               theta + phi)
                assert abs(e_plain - exact) <= 1e-15
        pts = np.random.default_rng(14).normal(size=(12, 4))
        w_dense = dense_wigner_values(rotated, pts)
        turned = pts.copy()
        turned[:, 0] = np.cos(theta) * pts[:, 0] + np.sin(theta) * pts[:, 1]
        turned[:, 1] = np.cos(theta) * pts[:, 1] - np.sin(theta) * pts[:, 0]
        assert np.max(np.abs(fock.wigner_values(rho, turned) - w_dense)) \
            < 1e-12

    def test_chsh_makes_one_reduction(self, monkeypatch, realistic_params,
                                      fock_realistic):
        # one pull-back of the sign operator serves all four correlators
        rho, _ = fock_realistic
        calls = []
        pull_back = fock._pull_back_sign

        def counting(*args):
            calls.append(args[0].shape)
            return pull_back(*args)

        monkeypatch.setattr(fock, "_pull_back_sign", counting)
        fock.fock_chsh(rho, realistic_params.angles,
                       realistic_params.homodyne_efficiency)
        assert calls == [(40, 40)]

    def test_chsh_is_four_correlators(self, realistic_params, fock_realistic):
        rho, _ = fock_realistic
        theta1, theta2, phi1, phi2 = realistic_params.angles
        eta = realistic_params.homodyne_efficiency
        e = {(t, p): fock.fock_sign_correlation(rho, t, p, eta)
             for t in (theta1, theta2) for p in (phi1, phi2)}
        expected = (e[(theta1, phi1)] + e[(theta1, phi2)]
                    + e[(theta2, phi1)] - e[(theta2, phi2)])
        assert abs(fock.fock_chsh(rho, realistic_params.angles, eta)
                   - expected) < 1e-12

    def test_diag_correlator_matches_wavefunction(self):
        x, w = reference_grid(60)
        h = hermite_functions(60, x)
        sign_op = closed_sign_operator(60)
        diag = fock.pair_projected_state(0.58, 0.99, 60)
        reduced = np.outer(diag, diag) * sign_op * sign_op
        for angle_sum in (-np.pi / 4, np.pi / 4, 3 * np.pi / 4, 0.3):
            fast = fock._phase_form(reduced, angle_sum)
            direct = dense_diag_sign_correlation(diag, angle_sum, x, w, h)
            assert abs(fast - direct) < 1e-12

    @pytest.mark.parametrize("n_trunc", [40, 60, 130])
    def test_sign_operator_matches_wide_grid(self, n_trunc):
        # the package's closed form at efficiency 1 and the recurrence of
        # the reference route below it; near efficiency 1 the grid cannot
        # resolve the steep erf, which the Kraus and dense references cover
        idx = np.arange(n_trunc)
        for eta in (1.0, 0.95, 0.7, 0.3, 0.05):
            sign = (closed_sign_operator(n_trunc) if eta == 1.0
                    else loop_sign_operator(n_trunc, eta))
            assert np.max(np.abs(sign - grid_sign_operator(n_trunc, eta))) \
                < 1e-13
            assert np.array_equal(sign, sign.T)
            assert not np.any(sign[np.add.outer(idx, idx) % 2 == 0])

    def test_sign_operator_matches_forty_digits(self):
        # the recurrence of the reference route below efficiency 1, and
        # every entry of the package's closed form at efficiency 1
        entries = [(129, 0), (128, 127), (100, 61), (64, 65), (3, 40)]
        efficiencies = (0.95, 0.7)
        exact = exact_sign_entries(entries, efficiencies, 130)
        for eta, row in zip(efficiencies, exact):
            sign = loop_sign_operator(130, eta)
            for (a, c), value in zip(entries, row):
                assert abs(sign[a, c] - value) < 2e-15
        ideal = exact_ideal_sign_operator(130)
        assert np.max(np.abs(closed_sign_operator(130) - ideal)) < 1e-15

    def test_optimal_product_unchanged(self):
        # lambda T of the scan over lambda T at T = 0.99; the wavefunction-
        # grid correlator's scan over lambda found 0.5719741657865842
        product, _ = fock.fock_optimal_product(0.99)
        assert abs(product - 0.5719468174628503) < 1e-9


#: (squeezing, transmittance, APD efficiency, homodyne efficiency) of the
#: small-P corner, where P is about 2e-13
SMALL_P_CORNER = (0.01, 0.999, 0.05, 0.9)


def seeded_heralded_states(n_trunc, count, seed):
    """Heralded states at seeded criterion-7 draws: the package's record, its
    click probability, the draw (squeezing, T, APD efficiency, N), a
    homodyne efficiency and the generator.  The squeezing box shrinks with
    the truncation so that the tail fence passes."""
    rng = np.random.default_rng([seed, n_trunc])
    top = 0.65 if n_trunc >= 40 else 0.35
    for _ in range(count):
        draw = (rng.uniform(0.2, top), rng.uniform(0.9, 0.99),
                rng.uniform(0.1, 1.0), n_trunc)
        rho, p_click = fock.lossy_click_conditioning(*draw)
        yield rho, p_click, draw, rng.uniform(0.85, 1.0), rng


class TestBitwiseReductions:
    """The package's correlators against 45 digits and against the
    recurrence route pulled back term by term, its pull-back of the sign
    operator, folded and in commutator form, against the recurrence
    route's, and its Wigner function against the dense route."""

    @pytest.mark.parametrize("eta", [0.95, 1.0])
    def test_correlators_match_forty_five_digits(self, realistic_params,
                                                 fock_realistic, eta):
        # E at N = 40 within 1e-15 of 45 digits, and S within 1e-15 of the
        # sum of four such correlators
        rho, _ = fock_realistic
        row = (realistic_params.squeezing, realistic_params.transmittance,
               realistic_params.apd_efficiency, rho.n_trunc, eta)
        assert abs(fock.fock_sign_correlation(rho, 0.0, -np.pi / 4, eta)
                   - exact_fock_correlation(*row, -np.pi / 4)) <= 1e-15
        theta1, theta2, phi1, phi2 = realistic_params.angles
        exact = [[exact_fock_correlation(*row, theta + phi)
                  for phi in (phi1, phi2)] for theta in (theta1, theta2)]
        s_exact = exact[0][0] + exact[0][1] + exact[1][0] - exact[1][1]
        assert abs(fock.fock_chsh(rho, realistic_params.angles, eta)
                   - s_exact) <= 1e-15

    @pytest.mark.parametrize("eta", [0.05, 0.7, 0.95, 1.0])
    def test_sign_operator_pinned(self, fock_realistic, eta):
        # the reduced matrix whose phase forms are the correlators, against
        # the recurrence pulled back by `_pull_back`
        rho, _ = fock_realistic
        assert np.max(np.abs(fock._sign_reduced(rho, eta)
                             - reference_sign_reduced(rho, eta))) <= 1e-15

    @pytest.mark.parametrize("n_trunc", [16, 17, 60])
    def test_sign_operator_matches_recurrence(self, n_trunc):
        # the ideal closed form against the recurrence at efficiency 1, and
        # the reduced matrix of the folded tables against the recurrence's
        # over the efficiencies the recurrence was pinned on
        assert np.max(np.abs(closed_sign_operator(n_trunc)
                             - loop_sign_operator(n_trunc, 1.0))) <= 1e-15
        for rho, *_ in seeded_heralded_states(n_trunc, 2, 53):
            for eta in np.r_[np.linspace(0.01, 0.99, 15), 1.0 - 1e-9, 1.0]:
                assert np.max(np.abs(fock._sign_reduced(rho, eta)
                                     - reference_sign_reduced(rho, eta))) \
                    <= 1e-15

    def test_correlators_match_loop_on_seeded_states(self):
        angles = bell.DEFAULT_ANGLES
        for rho, _, _, eta, rng in seeded_heralded_states(40, 4, 23):
            reduced = reference_sign_reduced(rho, eta)
            theta, phi = rng.uniform(-np.pi, np.pi, 2)
            assert abs(fock.fock_sign_correlation(rho, theta, phi, eta)
                       - fock._phase_form(reduced, theta + phi)) <= 1e-15
            assert abs(fock.fock_chsh(rho, angles, eta)
                       - fock._phase_chsh(reduced, angles)) <= 2e-15

    def test_wigner_matches_dense_route(self, fock_realistic,
                                        fock_cut_state):
        # against the dense state contracted with the scipy Laguerre tables
        pts = np.random.default_rng(37).normal(size=(9, 4))
        cut = np.linspace(-3.0, 3.0, 41)[:, None] \
            * np.array([1.0, 0.0, -1.0, 0.0]) / np.sqrt(2.0)
        for rho, _ in (fock_realistic, fock_cut_state):
            dense = expand_record(rho)
            for points in (pts, cut):
                assert np.max(np.abs(fock.wigner_values(rho, points)
                                     - dense_wigner_values(dense, points))) \
                    <= 1e-15


class TestPullBack:
    """The heralded state as a record, measured through the pull-back
    Phi(O)[n, m] = sum_k w(k) t(n, k) t(m, k) O[n - k, m - k]."""

    def test_shifted_view(self):
        # V[..., n, m, s] = O[n - k, m - k, ...] at k = N - 1 - s, zero off
        # the grid, read-only, for one operator and for a stack
        n = 16
        op = np.arange(n * n * 3, dtype=float).reshape(n, n, 3) + 1.0
        view = fock._shifted_view(op)
        assert view.shape == (3, n, n, n)
        assert not view.flags.writeable
        rows, cols, s = np.meshgrid(*(np.arange(n),) * 3, indexing="ij")
        b, d = rows - (n - 1 - s), cols - (n - 1 - s)
        inside = (b >= 0) & (d >= 0)
        for i in range(3):
            assert np.array_equal(view[i][inside], op[b[inside], d[inside], i])
            assert not np.any(view[i][~inside])
        assert np.array_equal(fock._shifted_view(op[..., 1]), view[1])

    def test_pull_back_matches_kraus_sum(self, small_pair):
        # Phi(O) = sum_k w(k) K_k^T O K_k with K_k |n> = t(n, k) |n - k>, for
        # one operator and for a stack of three
        rho, _, _, _, _ = small_pair
        n = rho.n_trunc
        stack = np.random.default_rng(41).normal(size=(n, n, 3))
        stack += stack.transpose(1, 0, 2)
        expected = np.zeros_like(stack)
        for k in range(n):
            kraus = np.zeros((n, n))
            kraus[np.arange(n - k), np.arange(k, n)] = rho.tap[k:, k]
            expected += rho.weights[k] * np.einsum("an,acI,cm->nmI", kraus,
                                                   stack, kraus)
        pulled = fock._pull_back(rho, stack)
        assert np.max(np.abs(pulled - expected)) < 1e-14
        assert np.max(np.abs(fock._pull_back(rho, stack[..., 2])
                             - expected[..., 2])) < 1e-14
        # Phi(I) is diagonal with entries q_n, and P = sum_n g_n^2 q_n^2
        click = fock._pull_back(rho, np.eye(n))
        assert not np.any(click - np.diag(np.diag(click)))
        assert abs(rho.amplitudes ** 2 @ np.diag(click) ** 2 - rho.p_click) \
            <= 1e-15 * rho.p_click

    def test_pull_back_writes_no_input(self, fock_realistic):
        rho, _ = fock_realistic
        sign = loop_sign_operator(40, 0.9)
        kept = sign.copy()
        sign.setflags(write=False)
        assert np.array_equal(fock._pull_back(rho, sign),
                              fock._pull_back(rho, kept))
        assert np.array_equal(sign, kept)

    @pytest.mark.parametrize("n_trunc", [20, 40])
    def test_matches_oracles_and_dense_route(self, n_trunc):
        # seeded draws and the small-P corner: P within 1e-15 relative and E
        # within 1e-15 of 40 and 45 digits, W within 1e-15 of the dense route
        corner = SMALL_P_CORNER[:3] + (n_trunc,)
        rho, p_click = fock.lossy_click_conditioning(*corner)
        states = [(rho, p_click, corner, SMALL_P_CORNER[3],
                   np.random.default_rng([43, n_trunc]))]
        states += seeded_heralded_states(n_trunc, 6, 47)
        for rho, p_click, row, eta, rng in states:
            exact = exact_success_prob(*row)
            assert abs(p_click - exact) <= 1e-15 * exact
            for theta, phi in rng.uniform(-np.pi, np.pi, (3, 2)):
                assert abs(fock.fock_sign_correlation(rho, theta, phi, eta)
                           - exact_fock_correlation(*row, eta, theta + phi)) \
                    <= 1e-15
            pts = rng.normal(size=(9, 4))
            assert np.max(np.abs(fock.wigner_values(rho, pts)
                                 - dense_wigner_values(expand_record(rho),
                                                       pts))) <= 1e-15

    @pytest.mark.parametrize("params", [(0.6, 0.95, 0.3), SMALL_P_CORNER[:3],
                                        (0.45, 0.99, 0.9)],
                             ids=["realistic", "small-P", "high-eta"])
    def test_success_prob_matches_forty_digits(self, params):
        _, p_click = fock.lossy_click_conditioning(*params, 40)
        exact = exact_success_prob(*params, 40)
        assert abs(p_click - exact) <= 10 * np.finfo(float).eps * exact

    def test_fence_reads_kept_mode_distribution(self, monkeypatch):
        # the four values the herald hands the fence sum to the top-layer
        # mass of the kept modes' photon-number distribution
        seen = []
        monkeypatch.setattr(fock, "_check_truncation",
                            lambda top, n_trunc: seen.append(top))
        fock.lossy_click_conditioning(0.6, 0.95, 0.3, 40)
        assert len(seen) == 1 and len(seen[0]) == 4
        expected = kept_mode_tail(
            kept_mode_distribution(0.6, 0.95, 0.3, 40), 40)
        assert abs(seen[0].sum() - expected) <= 1e-15 * expected

    def test_large_truncation(self):
        # lambda = 0.95 at N = 300, where a density stored as its
        # photon-number-difference blocks would take 1.2 GB:
        # conditioning and one correlator peak under 10 MB and agree with
        # the closed form.  The memos of the N-only tables are emptied
        # inside the window, so the peak counts a cold build; the warm-up
        # keeps numpy's one-time costs out.
        params = bell.ExperimentParams(0.95, 0.95, 0.3, 0.95)
        theta, _, phi, _ = params.angles
        rho, _ = fock.lossy_click_conditioning(0.6, 0.95, 0.3, 40)
        fock.fock_sign_correlation(rho, theta, phi, 0.95)
        tracemalloc.start()
        try:
            clear_table_memos()
            rho, p_click = fock.lossy_click_conditioning(0.95, 0.95, 0.3, 300)
            e_fock = fock.fock_sign_correlation(rho, theta, phi, 0.95)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10e6
        closed = bell.chsh(params)
        assert abs(e_fock - closed.correlators[0, 0]) < 1e-4
        assert abs(p_click - closed.success_prob) < 1e-3 * closed.success_prob
        reference = reference_sign_correlation(rho, theta, phi, 0.95)
        assert abs(e_fock - reference) <= 1e-15


def weight_vectors(n_trunc, rng):
    """Click weights of on/off detectors, photon-pair projection e_1,
    zero tapped photons e_0 and random positive weights."""
    unit = np.eye(n_trunc)
    return [fock.click_weights(rng.uniform(0.05, 1.0), n_trunc), unit[1],
            unit[0], rng.uniform(0.0, 1.0, n_trunc)]


def correlator_rows(count, seed):
    """Seeded rows (squeezing, T, APD efficiency, N, homodyne efficiency)
    that pass the tail fence, over the whole box, with the homodyne
    efficiency cycling through 0.01, 1 and a draw; then the small-P corner
    at N = 16, 40 and 130 and efficiencies 0.01, 0.9 and 1."""
    rng = np.random.default_rng(seed)
    rows = []
    while len(rows) < count:
        row = (rng.uniform(0.01, 0.9), rng.uniform(0.5, 0.9999),
               rng.uniform(1e-3, 1.0), int(rng.integers(16, 131)),
               (0.01, 1.0, rng.uniform(0.01, 1.0))[len(rows) % 3])
        try:
            fock.lossy_click_conditioning(*row[:4])
        except TruncationError:
            continue
        rows.append(row)
    return rows + [SMALL_P_CORNER[:3] + (n_trunc, eta)
                   for n_trunc in (16, 40, 130) for eta in (0.01, 0.9, 1.0)]


class TestFoldedCorrelator:
    """The homodyne loss folded into the tap, Phi_{T,w}(S_eta) =
    Phi_{T eta,w~}(S_1), and the pull-back of S_1 from its rank-2
    commutator."""

    @pytest.mark.parametrize("n_trunc", [20, 40])
    def test_fold_matches_loss_behind_tap(self, n_trunc):
        # the folded tables pull a random operator back as the homodyne
        # loss dual followed by the tap and click measurement does, for
        # every kind of click weights, within 1e-13 of the largest entry;
        # on/off detectors of efficiency eta_apd fold into on/off detectors
        # of efficiency p eta_apd
        rng = np.random.default_rng([59, n_trunc])
        for _ in range(3):
            transmittance, eta = rng.uniform(0.5, 0.999, 2)
            op = rng.normal(size=(n_trunc, n_trunc))
            op += op.T
            dual = kraus_loss_dual(op, eta)
            for weights in weight_vectors(n_trunc, rng):
                record = fock.HeraldedState(
                    fock.tmsv_amplitudes(0.5, n_trunc),
                    fock.tap_amplitude_table(transmittance, n_trunc),
                    transmittance, weights, 1.0, n_trunc)
                expected = fock._pull_back(record, dual)
                pulled = fock._pull_back(folded_record(record, eta), op)
                assert np.max(np.abs(pulled - expected)) \
                    <= 1e-13 * np.max(np.abs(expected))
            share = (1.0 - transmittance) / (1.0 - transmittance * eta)
            apd = rng.uniform(0.05, 1.0)
            record = replace(record, weights=fock.click_weights(apd, n_trunc))
            assert np.allclose(folded_record(record, eta).weights,
                               fock.click_weights(share * apd, n_trunc),
                               rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("n_trunc", [16, 40, 130])
    def test_commutator_matches_pull_back(self, n_trunc):
        # Phi(S_1) from U V^T - V U^T against the shifted-view contraction
        # of the closed-form S_1, for every kind of click weights
        rng = np.random.default_rng([61, n_trunc])
        sign = closed_sign_operator(n_trunc)
        for weights in weight_vectors(n_trunc, rng):
            record = fock.HeraldedState(
                fock.tmsv_amplitudes(0.5, n_trunc),
                fock.tap_amplitude_table(rng.uniform(0.5, 0.999), n_trunc),
                0.0, weights, 1.0, n_trunc)
            expected = fock._pull_back(record, sign)
            pulled = fock._pull_back_sign(record.tap, weights)
            assert np.max(np.abs(pulled - expected)) \
                <= 1e-15 * np.max(np.abs(expected))
            assert not np.any(np.diag(pulled))

    def test_matches_reference_route_on_seeded_rows(self):
        # E of the fold and the commutator form against the recurrence
        # pulled back by `_pull_back`, which normalizes by the record's P
        rows = correlator_rows(500, 2301)
        rng = np.random.default_rng(2302)
        for row in rows:
            rho, _ = fock.lossy_click_conditioning(*row[:4])
            theta, phi = rng.uniform(-np.pi, np.pi, 2)
            value = fock.fock_sign_correlation(rho, theta, phi, row[4])
            assert abs(value - reference_sign_correlation(
                rho, theta, phi, row[4])) <= 1e-15, row

    @pytest.mark.parametrize("row", [
        SMALL_P_CORNER[:3] + (20, 0.9), SMALL_P_CORNER[:3] + (20, 0.01),
        (0.6, 0.95, 0.3, 40, 0.95), (0.6, 0.95, 0.3, 40, 1.0),
        (0.85, 0.93, 0.34, 130, 0.61), (0.85, 0.6, 0.7, 130, 0.999999),
        (0.35, 0.9, 1.0, 20, 0.9)],
        ids=["small-P", "small-P-lossy", "realistic", "realistic-ideal",
             "high-squeezing", "high-squeezing-near-ideal", "unit-apd"])
    def test_matches_forty_digits(self, row):
        rng = np.random.default_rng(67)
        rho, _ = fock.lossy_click_conditioning(*row[:4])
        for angle in rng.uniform(-np.pi, np.pi, 2):
            exact = exact_fock_correlation(*row, angle)
            assert abs(fock.fock_sign_correlation(rho, angle, 0.0, row[4])
                       - exact) <= 1e-15

    def test_ideal_branch_reads_the_record(self, monkeypatch, fock_realistic):
        # at efficiency 1 no tap table is built: the record's own tables
        # are pulled back, and the record's p_click divides, bitwise
        rho, _ = fock_realistic
        for builder in ("tap_amplitude_table", "_root_binomials",
                        "_scaled_taps"):
            monkeypatch.setattr(fock, builder, None)
        pulled = fock._pull_back_sign(rho.tap, rho.weights)
        coeffs = rho.amplitudes
        assert np.array_equal(fock._sign_reduced(rho, 1.0),
                              np.outer(coeffs, coeffs) * pulled * pulled
                              / rho.p_click)

    def test_derived_transmittances_are_not_rechecked(self):
        # at T = 5e-324 the product T eta rounds to 0 (eta = 0.5), or back
        # to T, which leaves the homodyne's share 0 (eta = 0.9); both are
        # transmittances of exact tables, and the tap empties the kept
        # modes, so E is 0 as at eta = 1
        rho, _ = fock.lossy_click_conditioning(0.5, 5e-324, 0.3, 40)
        for eta in (0.5, 0.9, 1.0):
            assert fock.fock_sign_correlation(rho, 0.3, -0.4, eta) == 0.0

    def test_lossy_branch_is_the_folded_record(self, fock_realistic):
        # below efficiency 1 the correlator is the ideal one of the folded
        # record, whose click probability is the record's
        rho, _ = fock_realistic
        for eta in (0.01, 0.7, 0.95, 1.0 - 1e-9):
            folded = folded_record(rho, eta)
            clicks = (folded.tap ** 2 * folded.weights).sum(axis=1)
            folded = replace(folded, p_click=float(
                folded.amplitudes ** 2 @ clicks ** 2))
            assert abs(folded.p_click - rho.p_click) <= 1e-14 * rho.p_click
            assert np.max(np.abs(fock._sign_reduced(rho, eta)
                                 - fock._sign_reduced(folded, 1.0))) <= 1e-15


class TestTableMemos:
    """The tables that depend on the truncation N alone, built once per N:
    read-only, bounded, and bitwise a fresh build."""

    @pytest.mark.parametrize("n_trunc", [1, 16, 40, 300])
    def test_tables_are_read_only_fresh_builds(self, n_trunc):
        # the memo's arrays refuse writes, equal a build without the memo
        # bit for bit, and come back as the same objects on the next call
        for memo in TABLE_MEMOS:
            memo.cache_clear()
            tables = table_arrays(memo, n_trunc)
            fresh = table_arrays(memo.__wrapped__, n_trunc)
            assert len(tables) == len(fresh)
            for table, built in zip(tables, fresh):
                assert not table.flags.writeable
                with pytest.raises(ValueError):
                    table[0] = 1.0
                assert table.dtype == built.dtype
                assert table.shape == built.shape
                assert table.tobytes() == built.tobytes()
            assert all(again is table for again, table
                       in zip(table_arrays(memo, n_trunc), tables))

    @pytest.mark.parametrize("n_trunc", [1, 2, 16, 40, 300])
    def test_sign_tables_read_2n_minus_1_values(self, n_trunc):
        # each N x N table is a view of one read-only array of 2N - 1
        # values, one per diagonal: a truncation adds O(N) memory
        for table in fock._sign_tables(n_trunc):
            assert table.shape == (n_trunc, n_trunc)
            base = table
            while base.base is not None:
                base = base.base
            assert isinstance(base, np.ndarray)
            assert base.shape == (2 * n_trunc - 1,)
            assert not base.flags.writeable
            n, k = np.indices((n_trunc, n_trunc))
            assert np.array_equal(table, base[n - k + n_trunc - 1])

    def test_memo_is_bounded(self):
        # three times as many truncations as the memo holds, each through
        # the herald and the lossy correlator
        clear_table_memos()
        for n_trunc in range(16, 16 + 3 * fock.TABLE_MEMO_SIZE):
            rho, _ = fock.lossy_click_conditioning(0.3, 0.95, 0.3, n_trunc)
            fock.fock_sign_correlation(rho, 0.0, 0.0, 0.9)
        for memo in TABLE_MEMOS:
            info = memo.cache_info()
            assert info.maxsize == fock.TABLE_MEMO_SIZE
            assert info.currsize == fock.TABLE_MEMO_SIZE

    @pytest.mark.parametrize("n_trunc", [40, 60, 300])
    def test_cold_and_warm_memo_agree_bitwise(self, n_trunc):
        # seeded criterion-7 rows: P, E with and without homodyne loss, S
        # and W from a first call on empty memos and from warm ones
        rng = np.random.default_rng([3001, n_trunc])
        for _ in range(3 if n_trunc < 300 else 1):
            row = (rng.uniform(0.2, 0.65), rng.uniform(0.9, 0.99),
                   rng.uniform(0.1, 1.0), n_trunc)
            eta = rng.uniform(0.85, 1.0)
            theta, phi = rng.uniform(-np.pi, np.pi, 2)
            pts = rng.normal(size=(2, 4))
            calls = (
                lambda rho: rho.p_click,
                lambda rho: fock.fock_sign_correlation(rho, theta, phi, eta),
                lambda rho: fock.fock_sign_correlation(rho, theta, phi),
                lambda rho: fock.fock_chsh(rho, bell.DEFAULT_ANGLES, eta),
                lambda rho: fock.wigner_values(rho, pts))
            cold = []
            for call in calls:
                clear_table_memos()
                rho, _ = fock.lossy_click_conditioning(*row)
                clear_table_memos()
                cold.append(call(rho))
            rho, _ = fock.lossy_click_conditioning(*row)
            for value, call in zip(cold, calls):
                assert np.asarray(value).tobytes() == \
                    np.asarray(call(rho)).tobytes(), row


class TestAgainstGatheredTables:
    """The sign pull-back over the Toeplitz views of `_sign_tables`, and
    the herald's fence over its constant corner mask, against the same
    arithmetic on tables gathered per call: byte for byte."""

    @pytest.mark.parametrize("n_trunc", [16, 17, 40, 60, 300])
    def test_pull_back_sign_bitwise(self, monkeypatch, n_trunc):
        # every pull-back the lossy and the ideal correlator make, with the
        # folded tables and with the record's own, on seeded criterion-7
        # rows, and the pull-back of each kind of click weights
        seen = []
        pull_back = fock._pull_back_sign

        def recording(tap, weights):
            pulled = pull_back(tap, weights)
            seen.append((pulled, gathered_pull_back_sign(tap, weights)))
            return pulled

        monkeypatch.setattr(fock, "_pull_back_sign", recording)
        count = 2 if n_trunc == 300 else 4
        for rho, _, _, eta, rng in seeded_heralded_states(n_trunc, count,
                                                          3501):
            theta, phi = rng.uniform(-np.pi, np.pi, 2)
            fock.fock_sign_correlation(rho, theta, phi, eta)
            fock.fock_sign_correlation(rho, theta, phi)
            for weights in weight_vectors(n_trunc, rng):
                recording(rho.tap, weights)
        assert len(seen) == 6 * count
        for pulled, gathered in seen:
            assert pulled.dtype == gathered.dtype
            assert pulled.tobytes() == gathered.tobytes()

    def test_ideal_sign_operator_bitwise(self, monkeypatch):
        # the ideal S that `fock_optimal_product` scans with, at its
        # truncation, and the optimum it gives with the gathered S
        n_trunc = fock.PRODUCT_TRUNCATION
        unit = np.eye(n_trunc)[0]
        assert fock._pull_back_sign(1.0, unit).tobytes() == \
            gathered_pull_back_sign(1.0, unit).tobytes()
        optimum = fock.fock_optimal_product(0.95)
        monkeypatch.setattr(fock, "_pull_back_sign", gathered_pull_back_sign)
        assert fock.fock_optimal_product(0.95) == optimum

    def test_fence_corner_sums_bitwise(self, monkeypatch):
        # what the herald hands its fence, for on/off detectors and for
        # photon-pair projection, against the np.tril sums of the record
        rng = np.random.default_rng(3502)
        seen = []
        monkeypatch.setattr(fock, "_check_truncation",
                            lambda top, n_trunc: seen.append(top))
        for _ in range(12):
            row = (rng.uniform(0.01, 0.97), rng.uniform(0.5, 0.9999),
                   rng.uniform(1e-3, 1.0), int(rng.integers(16, 131)))
            rho, _ = fock.lossy_click_conditioning(*row)
            state, _ = fock._herald(row[0], row[1], np.eye(row[3])[1])
            for record in (rho, state):
                assert seen.pop(0).tobytes() == \
                    tril_fence_top(record).tobytes(), row
        assert not seen


#: rows whose reference tail lies within a factor of 2 of
#: TAIL_TOLERANCE, at 0.7 and 1.4 times it
NEAR_TOLERANCE_ROWS = (
    (0.39172, 0.9, 0.5, 16), (0.403585, 0.9, 0.5, 16),
    (0.727291, 0.95, 0.3, 40), (0.734911, 0.95, 0.3, 40),
    (0.875112, 0.99, 0.9, 90), (0.879069, 0.99, 0.9, 90),
    (0.911065, 0.999, 0.05, 130), (0.9139, 0.999, 0.05, 130))


class TestHerald:
    """One herald for both detector models: its fence reads four rows of
    the click table, and photon-pair projection is the weight w = e_1."""

    def test_fence_matches_kept_mode_tail(self, monkeypatch):
        # seeded rows over the whole box, the small-P corner and rows near
        # the tolerance: the tail agrees with the two-mode sum, and the
        # refusal falls on exactly the rows whose reference tail is too big
        rng = np.random.default_rng(2201)
        rows = [(rng.uniform(0.01, 0.97), rng.uniform(0.5, 0.9999),
                 rng.uniform(1e-3, 1.0), int(rng.integers(16, 131)))
                for _ in range(24)]
        rows += [SMALL_P_CORNER[:3] + (16,), SMALL_P_CORNER[:3] + (40,)]
        rows += NEAR_TOLERANCE_ROWS
        seen = []
        with monkeypatch.context() as patch:
            patch.setattr(fock, "_check_truncation",
                          lambda top, n_trunc: seen.append(np.sum(top)))
            for row in rows:
                fock.lossy_click_conditioning(*row)
        refused = 0
        for row, tail in zip(rows, seen, strict=True):
            expected = kept_mode_tail(kept_mode_distribution(*row), row[-1])
            if expected > 1e-280:
                assert abs(tail - expected) <= 1e-15 * expected, row
            if expected > fock.TAIL_TOLERANCE:
                refused += 1
                with pytest.raises(TruncationError):
                    fock.lossy_click_conditioning(*row)
            else:
                fock.lossy_click_conditioning(*row)
        near = [kept_mode_tail(kept_mode_distribution(*row), row[-1])
                / fock.TAIL_TOLERANCE for row in NEAR_TOLERANCE_ROWS]
        assert all(0.5 <= ratio <= 2.0 for ratio in near)
        assert 0 < refused < len(rows)

    def test_pair_projection_matches_direct_construction(self):
        rng = np.random.default_rng(2202)
        for _ in range(40):
            squeezing = rng.uniform(0.01, 0.9)
            transmittance = rng.uniform(0.5, 0.9999)
            n_trunc = int(rng.integers(40, 91))
            args = (squeezing, transmittance, n_trunc)
            state = fock.pair_projected_state(*args)
            assert state.shape == (n_trunc,) and state[-1] == 0.0
            assert np.max(np.abs(state - exact_pair_projection(*args))) \
                <= 1e-15

    @pytest.mark.parametrize("args", [(0.0, 0.95, 40), (0.5, 1.0, 40),
                                      (0.5, 0.95, 1)],
                             ids=["no-squeezing", "no-tap", "one-level"])
    def test_pair_projection_without_pairs_raises(self, args):
        with pytest.raises(InvalidRegimeError) as info:
            fock.pair_projected_state(*args)
        assert str(info.value).startswith("double-click probability 0.0 "
                                          "vanishes")


class TestClickWeights:
    @pytest.mark.parametrize("eta", [1e-3, 0.3, 0.95])
    def test_match_forty_digits(self, eta):
        weights = fock.click_weights(eta, 60)
        with mpmath.workdps(40):
            exact = np.array([float(1 - (1 - mpmath.mpf(eta)) ** k)
                              for k in range(60)])
        assert weights[0] == 0.0
        assert np.all(np.abs(weights - exact)
                      <= 2 * np.finfo(float).eps * exact)

    def test_unit_efficiency_always_clicks(self):
        assert np.array_equal(fock.click_weights(1.0, 16),
                              np.r_[0.0, np.ones(15)])

    def test_efficiency_outside_domain_raises(self):
        with pytest.raises(DomainError) as info:
            fock.click_weights(0.0, 16)
        assert str(info.value) == "apd_efficiency must lie in (0, 1], got 0.0"
