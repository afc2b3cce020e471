import functools
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.special import eval_genlaguerre, gammaln

from cvbell import bell, conditioning, fock
from cvbell.errors import DomainError, InvalidRegimeError, TruncationError
import symplectic_reference as ref
from test_bell import exact_terms

# ---------------------------------------------------------------------------
# quadrature references: the Hermite functions on a glued Gauss-Legendre grid,
# which the closed-form sign operator replaces

#: (largest truncation, half-width, points) of the reference grids; a grid
#: must reach past the outer turning point sqrt(2N + 1) of h_{N-1}
REFERENCE_GRIDS = ((40, 12.0, 400), (60, 14.0, 400), (130, 20.0, 600))


def hermite_functions(n_max, x):
    """Oscillator eigenfunctions psi_n(x) for n < n_max, shape (n_max, len(x))."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((n_max, x.size))
    out[0] = np.pi ** -0.25 * np.exp(-x * x / 2.0)
    if n_max > 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for n in range(2, n_max):
        out[n] = np.sqrt(2.0 / n) * x * out[n - 1] \
            - np.sqrt((n - 1) / n) * out[n - 2]
    return out


@functools.lru_cache(maxsize=None)
def reference_grid(n_trunc):
    """Gauss-Legendre nodes and weights per half-axis, glued at zero, on
    the narrowest reference grid that holds h_0 ... h_{N-1}.  Splitting at
    zero keeps the sign function constant on each panel."""
    halfwidth, n_points = next((width, points)
                               for top, width, points in REFERENCE_GRIDS
                               if n_trunc <= top)
    nodes, wts = np.polynomial.legendre.leggauss(n_points // 2)
    pos = (nodes + 1.0) * halfwidth / 2.0
    w_pos = wts * halfwidth / 2.0
    return (np.concatenate([-pos[::-1], pos]),
            np.concatenate([w_pos[::-1], w_pos]))


def grid_sign_operator(n_trunc):
    """S = (h w sgn x) h^T on the reference grid."""
    x, w = reference_grid(n_trunc)
    h = hermite_functions(n_trunc, x)
    return (h * w * np.sign(x)) @ h.T


# ---------------------------------------------------------------------------
# dense (n, n, n, n) references: the direct photon-number-basis computations
# the Delta-block route replaces, kept here to check it


def block_index(n_trunc):
    """(u, a, c) of every in-range block entry and its partners b, d."""
    u, a, c = np.meshgrid(np.arange(1 - n_trunc, n_trunc), np.arange(n_trunc),
                          np.arange(n_trunc), indexing="ij")
    inside = (a - u >= 0) & (a - u < n_trunc) & (c - u >= 0) & (c - u < n_trunc)
    return inside, a[inside], (a - u)[inside], c[inside], (c - u)[inside]


def to_dense(rho):
    """Dense array rho[n_A, n_B, m_A, m_B] of a block-stored density."""
    n = rho.n_trunc
    inside, a, b, c, d = block_index(n)
    dense = np.zeros((n,) * 4, dtype=complex)
    dense[a, b, c, d] = rho.blocks[inside]
    return dense


def to_blocks(dense):
    """Delta-blocks of a dense density array."""
    n = dense.shape[0]
    inside, a, b, c, d = block_index(n)
    blocks = np.zeros((2 * n - 1, n, n), dtype=complex)
    blocks[inside] = dense[a, b, c, d]
    return blocks


def vacuum_density(n_trunc=16):
    rho = np.zeros((n_trunc,) * 4, dtype=complex)
    rho[0, 0, 0, 0] = 1.0
    return fock.FockDensityMatrix(blocks=to_blocks(rho), n_trunc=n_trunc)


def dense_click_conditioned(squeezing, transmittance, apd_efficiency, n_trunc):
    """Unnormalized heralded state, scattered term by term over tap counts."""
    coeff = fock.tmsv_amplitudes(squeezing, n_trunc)
    table = fock.tap_amplitude_table(transmittance, n_trunc)
    weights = fock.click_weights(apd_efficiency, n_trunc)
    rho = np.zeros((n_trunc, n_trunc, n_trunc, n_trunc))
    for kc in range(1, n_trunc):
        for kd in range(1, n_trunc):
            totals = np.arange(max(kc, kd), n_trunc)
            vec = coeff[totals] * table[totals, kc] * table[totals, kd]
            contribution = weights[kc] * weights[kd] * np.outer(vec, vec)
            a_idx, b_idx = totals - kc, totals - kd
            rho[a_idx[:, None], b_idx[:, None],
                a_idx[None, :], b_idx[None, :]] += contribution
    return rho


def dense_apply_loss(rho, transmittance, mode):
    """Pure loss on one mode through its Kraus operators."""
    n = rho.shape[0]
    table = np.abs(fock.tap_amplitude_table(transmittance, n))
    out = np.zeros_like(rho)
    for lost in range(n):
        kept = n - lost
        w = table[lost + np.arange(kept), lost]
        if mode == 0:
            out[:kept, :, :kept, :] += (w[:, None, None, None]
                                        * w[None, None, :, None]
                                        * rho[lost:, :, lost:, :])
        else:
            out[:, :kept, :, :kept] += (w[None, :, None, None]
                                        * w[None, None, None, :]
                                        * rho[:, lost:, :, lost:])
    return out


def dense_joint_quadrature_density(rho, theta, phi, x):
    """P(x_theta^A, x_phi^B) on the tensor grid x (x) x."""
    n = rho.shape[0]
    phase_a = np.exp(1j * theta * np.arange(n))
    phase_b = np.exp(1j * phi * np.arange(n))
    rotated = (rho
               * phase_a[:, None, None, None] * phase_b[None, :, None, None]
               * phase_a[None, None, :, None].conj()
               * phase_b[None, None, None, :].conj())
    h = hermite_functions(n, x)
    pair_x = np.einsum("ax,cx->acx", h, h).reshape(n * n, -1)
    pair_y = np.einsum("by,dy->bdy", h, h).reshape(n * n, -1)
    mat = rotated.transpose(0, 2, 1, 3).reshape(n * n, n * n)
    return (pair_x.T @ (mat @ pair_y)).real


def dense_sign_correlation(rho, theta, phi, homodyne_efficiency=1.0):
    """Sign correlator from the joint density integrated on the grid."""
    if homodyne_efficiency < 1.0:
        rho = dense_apply_loss(dense_apply_loss(rho, homodyne_efficiency, 0),
                               homodyne_efficiency, 1)
    x, w = reference_grid(rho.shape[0])
    dens = dense_joint_quadrature_density(rho, theta, phi, x)
    signed = w * np.sign(x)
    return float(signed @ dens @ signed)


def dense_wigner_values(rho, points):
    """Two-mode Wigner function by a full contraction with both tables."""
    n = rho.shape[0]
    table_a = fock.wigner_pair_table(n, points[:, 0], points[:, 1])
    table_b = fock.wigner_pair_table(n, points[:, 2], points[:, 3])
    partial = np.einsum("abcd,aci->bdi", rho, table_a)
    return np.einsum("bdi,bdi->i", partial, table_b).real


def loop_wigner_pair_table(n_trunc, x, p):
    """Wigner transforms of |m><n|, one Laguerre evaluation per pair."""
    rsq = x * x + p * p
    alpha = np.sqrt(2.0) * (x - 1j * p)
    table = np.zeros((n_trunc, n_trunc, x.size), dtype=complex)
    base = np.exp(-rsq) / np.pi
    for m in range(n_trunc):
        for n in range(m + 1):
            ratio = np.exp(0.5 * (gammaln(n + 1) - gammaln(m + 1)))
            val = ((-1.0) ** n * ratio * alpha ** (m - n)
                   * eval_genlaguerre(n, m - n, 2.0 * rsq) * base)
            table[m, n] = val
            if m != n:
                table[n, m] = val.conj()
    return table


def dense_diag_sign_correlation(diag, angle_sum, x, w, h):
    """Sign correlator of sum_n g_n |n,n> from its wavefunction on the grid."""
    phased = diag * np.exp(1j * angle_sum * np.arange(diag.size))
    wave = np.einsum("n,nx,ny->xy", phased, h, h)
    dens = np.abs(wave) ** 2
    signed = w * np.sign(x)
    return float(signed @ dens @ signed)


def exact_tap_amplitude_table(transmittance, n_trunc):
    """Beam-splitter amplitudes (-1)^k sqrt(C(m, k) T^(m-k) (1-T)^k) at 40
    digits."""
    with mpmath.workdps(40):
        t = mpmath.mpf(transmittance)
        table = np.zeros((n_trunc, n_trunc))
        for m in range(n_trunc):
            for k in range(m + 1):
                table[m, k] = (-1) ** k * mpmath.sqrt(
                    mpmath.binomial(m, k) * t ** (m - k) * (1 - t) ** k)
        return table


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
        state = fock.tmsv_state(0.5, 40)
        probs = np.abs(state.amplitudes) ** 2
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        off_diag = probs - np.diag(np.diag(probs))
        assert off_diag.max() == 0.0

    def test_heavy_tail_raises(self):
        with pytest.raises(TruncationError):
            fock.tmsv_state(0.85, 16)

    def test_minimum_truncation(self):
        with pytest.raises(DomainError):
            fock.tmsv_state(0.1, 8)

    def test_second_moments_match_einsum_form(self):
        # the four-operand einsum the matrix-product form replaces
        rng = np.random.default_rng(8)
        n = 20
        decay = 0.5 ** np.add.outer(np.arange(n), np.arange(n))
        amps = decay * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        state = fock.FockState(amps / np.linalg.norm(amps), n)
        x, p = fock.quadrature_operators(n)
        quads, psi = (x, p), state.amplitudes
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
        assert np.max(np.abs(fock.second_moments(state) - expected)) < 1e-13

    def test_tap_amplitude_table_matches_forty_digits(self):
        for n_trunc in (40, 60):
            for t in (0.05, 0.3, 0.7, 0.95, 0.999):
                table = fock.tap_amplitude_table(t, n_trunc)
                exact = exact_tap_amplitude_table(t, n_trunc)
                assert np.max(np.abs(table - exact)) < 1e-14

    def test_second_moments_match_covariance(self):
        for lam in (0.0, 0.3, 0.5):
            cov = ref.tmsv_covariance(lam)
            moments = fock.second_moments(fock.tmsv_state(lam, 60))
            assert np.max(np.abs(cov - moments)) < 1e-8


class TestIdealSubtractedState:
    def test_projection_fidelity_high_transmittance(self):
        _, fidelity = fock.ideal_subtracted_state(0.5, 0.999, 40)
        assert fidelity > 0.999

    def test_zero_squeezing_degenerate(self):
        with pytest.raises(InvalidRegimeError):
            fock.ideal_subtracted_state(0.0, 0.95, 40)

    def test_truncation_stability(self):
        state40, _ = fock.ideal_subtracted_state(0.5, 0.95, 40)
        state60, _ = fock.ideal_subtracted_state(0.5, 0.95, 60)
        d40 = np.diag(state40.amplitudes).real
        d60 = np.diag(state60.amplitudes).real[:40]
        assert np.max(np.abs(d40 - d60)) < 1e-10

    def test_convergence_guard(self):
        with pytest.raises(DomainError):
            fock.ideal_subtracted_state(0.97, 0.99, 40)

    def test_amplitude_law(self):
        state, _ = fock.ideal_subtracted_state(0.4, 0.9, 40)
        diag = np.diag(state.amplitudes).real
        n = np.arange(40)
        expected = (n + 1.0) * (0.36) ** n
        expected /= np.linalg.norm(expected)
        assert np.max(np.abs(diag - expected)) < 1e-12


class TestClickConditioning:
    def test_limits_recover_ideal_state(self):
        rho, _ = fock.lossy_click_conditioning(0.5, 0.9999, 0.9999, 40)
        ideal, _ = fock.ideal_subtracted_state(0.5, 0.9999, 40)
        psi = ideal.amplitudes
        fidelity = np.einsum("ab,abcd,cd->", psi.conj(), to_dense(rho),
                             psi).real
        assert fidelity > 0.999

    def test_click_rate_matches_gaussian_pipeline(self, realistic_state,
                                                  fock_realistic):
        _, p_click = fock_realistic
        assert abs(p_click - realistic_state.success_prob) / p_click < 1e-3

    def test_vacuum_never_clicks(self):
        assert fock.double_click_probability(0.0, 0.95, 0.3, 40) == 0.0
        with pytest.raises(InvalidRegimeError):
            fock.lossy_click_conditioning(0.0, 0.95, 0.3, 40)

    def test_density_matrix_is_physical(self, fock_realistic):
        rho, _ = fock_realistic
        dense = to_dense(rho)
        flat = dense.reshape(rho.n_trunc ** 2, rho.n_trunc ** 2)
        assert np.max(np.abs(flat - flat.conj().T)) < 1e-10
        assert np.einsum("abab->", dense).real == pytest.approx(1.0, abs=1e-9)
        eigs = np.linalg.eigvalsh(flat)
        assert eigs.min() > -1e-8

    def test_truncation_doubling_stability(self):
        p32 = fock.double_click_probability(0.6, 0.95, 0.3, 32)
        p64 = fock.double_click_probability(0.6, 0.95, 0.3, 64)
        assert abs(p32 - p64) < 1e-6
        rho32, _ = fock.lossy_click_conditioning(0.6, 0.95, 0.3, 32)
        rho64, _ = fock.lossy_click_conditioning(0.6, 0.95, 0.3, 64)
        e32 = fock.fock_sign_correlation(rho32, 0.0, -np.pi / 4)
        e64 = fock.fock_sign_correlation(rho64, 0.0, -np.pi / 4)
        assert abs(e32 - e64) < 1e-6


class TestSignCorrelation:
    def test_vacuum_uncorrelated(self):
        assert abs(fock.fock_sign_correlation(vacuum_density(), 0.3, 0.9)) < 1e-9

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

    def test_unit_homodyne_efficiency_is_lossless(self, fock_realistic):
        rho, _ = fock_realistic
        value = fock.fock_sign_correlation(rho, 0.0, -np.pi / 4, 1.0)
        assert value == fock.fock_sign_correlation(rho, 0.0, -np.pi / 4)
        assert value == pytest.approx(0.5077034482709255, abs=1e-12)

    @pytest.mark.parametrize("eta", [1.0, 0.95])
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

    def test_lossy_correlator_builds_no_state(self, monkeypatch,
                                              realistic_params,
                                              fock_realistic):
        rho, _ = fock_realistic
        eta = realistic_params.homodyne_efficiency
        expected = (fock.fock_sign_correlation(rho, 0.0, -np.pi / 4, eta),
                    fock.fock_chsh(rho, realistic_params.angles, eta))
        built = []

        class Counting(fock.FockDensityMatrix):
            def __post_init__(self):
                built.append(self.n_trunc)
                super().__post_init__()

        monkeypatch.setattr(fock, "FockDensityMatrix", Counting)
        assert (fock.fock_sign_correlation(rho, 0.0, -np.pi / 4, eta),
                fock.fock_chsh(rho, realistic_params.angles, eta)) == expected
        assert built == []

    def test_full_chsh_cross_check(self, realistic_params, fock_realistic):
        rho, _ = fock_realistic
        s_fock = fock.fock_chsh(rho, realistic_params.angles,
                                realistic_params.homodyne_efficiency)
        s_gauss = bell.chsh(realistic_params).S
        assert abs(s_fock - s_gauss) < 4e-4


class TestOptimalProduct:
    def test_quoted_product(self):
        product, s_max = fock.fock_optimal_product(0.99)
        assert product == pytest.approx(0.57, abs=0.02)
        assert s_max > 2.0

    def test_product_is_the_invariant(self):
        p_90, _ = fock.fock_optimal_product(0.90)
        p_99, _ = fock.fock_optimal_product(0.99)
        assert abs(p_90 - p_99) < 0.01


class TestWigner:
    def test_pair_table_matches_transform_definition(self):
        # check the Laguerre closed form against the defining integral
        # W(x,p) = (1/2pi) Int psi_m(x+y/2) psi_n(x-y/2) exp(-ipy) dy
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1.5, 1.5, size=(6, 2))
        y = np.linspace(-18.0, 18.0, 6001)
        table = fock.wigner_pair_table(6, pts[:, 0], pts[:, 1])
        for x0, p0, closed in zip(pts[:, 0], pts[:, 1],
                                  np.moveaxis(table, -1, 0)):
            left = hermite_functions(6, x0 + y / 2.0)
            right = hermite_functions(6, x0 - y / 2.0)
            phase = np.exp(-1j * p0 * y)
            for m in range(6):
                for n in range(6):
                    direct = np.trapezoid(left[m] * right[n] * phase,
                                          y) / (2.0 * np.pi)
                    assert abs(direct - closed[m, n]) < 1e-8

    def test_pair_table_matches_loop(self):
        pts = np.random.default_rng(6).normal(scale=1.5, size=(20, 2))
        for n_trunc in (40, 60):
            table = fock.wigner_pair_table(n_trunc, pts[:, 0], pts[:, 1])
            direct = loop_wigner_pair_table(n_trunc, pts[:, 0], pts[:, 1])
            assert np.max(np.abs(table - direct)) < 1e-14

    def test_vacuum_wigner(self):
        pts = np.array([[0.0, 0.0, 0.0, 0.0], [0.5, -0.2, 0.1, 0.3]])
        values = fock.wigner_values(vacuum_density(), pts)
        expected = np.exp(-np.sum(pts ** 2, axis=1)) / np.pi ** 2
        assert np.max(np.abs(values - expected)) < 1e-12

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
    def test_heavy_density_tail_raises(self):
        # about 2e-4 of the heralded state's probability sits in the top
        # four photon-number layers at this truncation
        with pytest.raises(TruncationError):
            fock.lossy_click_conditioning(0.6, 0.95, 0.3, 16)

    def test_rejects_wrong_shape(self):
        with pytest.raises(DomainError, match="truncation"):
            fock.FockDensityMatrix(blocks=np.zeros((16, 16, 16)), n_trunc=16)

    def test_rejects_non_hermitian_block(self):
        blocks = vacuum_density().blocks.copy()
        blocks[15, 1, 2] = 1e-6
        with pytest.raises(DomainError, match="hermitian"):
            fock.FockDensityMatrix(blocks=blocks, n_trunc=16)

    def test_rejects_wrong_trace(self):
        blocks = 1.5 * vacuum_density().blocks
        with pytest.raises(DomainError, match="trace"):
            fock.FockDensityMatrix(blocks=blocks, n_trunc=16)

    def test_rejects_partner_outside_truncation(self):
        # block Delta = 3 at a = 1 would pair n_A = 1 with n_B = -2
        blocks = vacuum_density().blocks.copy()
        blocks[15 + 3, 1, 1] = 1e-12
        with pytest.raises(DomainError, match="partner"):
            fock.FockDensityMatrix(blocks=blocks, n_trunc=16)

    def test_sign_operator_is_cached_and_read_only(self):
        sign = fock._sign_operator(40)
        kernel = fock._sign_kernel(40, 0.9)
        assert fock._sign_operator(40) is sign
        assert fock._sign_kernel(40, 0.9) is kernel
        with pytest.raises(ValueError):
            sign[0, 1] = 0.0
        with pytest.raises(ValueError):
            kernel[0, 0, 0] = 0.0


SMALL_POINTS = [(0.4, 0.95, 0.3), (0.35, 0.9, 1.0)]


@pytest.fixture(scope="module", params=SMALL_POINTS)
def small_pair(request):
    """Block and dense heralded states at N=20."""
    squeezing, transmittance, apd = request.param
    rho, p_click = fock.lossy_click_conditioning(squeezing, transmittance,
                                                 apd, 20)
    dense = dense_click_conditioned(squeezing, transmittance, apd, 20)
    p_dense = float(np.einsum("abab->", dense))
    return rho, p_click, dense / p_dense, p_dense


class TestDenseReferences:
    def test_conditioning_matches_scatter_loop(self, small_pair):
        rho, p_click, dense, p_dense = small_pair
        assert np.max(np.abs(to_dense(rho) - dense)) < 1e-12
        assert abs(p_click - p_dense) < 1e-12 * p_dense

    @pytest.mark.parametrize("mode", [0, 1])
    def test_loss_dual_matches_kraus_operators(self, small_pair, mode):
        # Tr(L(rho) (O_A (x) O_B)) = Tr(rho (O_A (x) O_B)) with L^dagger
        # applied to the operator of the lossy mode
        _, _, dense, _ = small_pair
        rng = np.random.default_rng(13 + mode)
        ops = []
        for _ in range(2):
            z = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
            ops.append(z + z.conj().T)
        dual = list(ops)
        dual[mode] = fock._loss_dual(ops[mode], 0.8)
        lossy = dense_apply_loss(dense, 0.8, mode)
        schrodinger = np.einsum("abcd,ca,db->", lossy, *ops)
        heisenberg = np.einsum("abcd,ca,db->", dense, *dual)
        assert abs(schrodinger - heisenberg) < 1e-12

    @pytest.mark.parametrize("eta", [1.0, 0.9, 1.0 - 1e-6])
    def test_correlator_matches_grid_density(self, small_pair, eta):
        rho, _, dense, _ = small_pair
        for theta, phi in [(0.0, -np.pi / 4), (0.7, 0.2), (-2.5, 1.1)]:
            e_blocks = fock.fock_sign_correlation(rho, theta, phi, eta)
            e_dense = dense_sign_correlation(dense, theta, phi, eta)
            assert abs(e_blocks - e_dense) < 1e-12

    def test_wigner_matches_dense_contraction(self, small_pair):
        rho, _, dense, _ = small_pair
        pts = np.random.default_rng(11).normal(size=(12, 4))
        assert np.max(np.abs(fock.wigner_values(rho, pts)
                             - dense_wigner_values(dense, pts))) < 1e-12

    def test_realistic_point_at_full_truncation(self, realistic_params,
                                                fock_realistic):
        rho, p_click = fock_realistic
        dense = dense_click_conditioned(0.6, 0.95, 0.3, 40)
        p_dense = float(np.einsum("abab->", dense))
        dense /= p_dense
        assert np.max(np.abs(to_dense(rho) - dense)) < 1e-12
        assert abs(p_click - p_dense) < 1e-12 * p_dense
        eta = realistic_params.homodyne_efficiency
        e_blocks = fock.fock_sign_correlation(rho, 0.0, -np.pi / 4, eta)
        e_dense = dense_sign_correlation(dense, 0.0, -np.pi / 4, eta)
        assert abs(e_blocks - e_dense) < 1e-12
        pts = np.random.default_rng(12).normal(size=(4, 4))
        assert np.max(np.abs(fock.wigner_values(rho, pts)
                             - dense_wigner_values(dense, pts))) < 1e-12

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
        sign_op = fock._sign_operator(60)
        state = fock.pair_projected_state(0.58, 0.99, 60)
        diag = np.diag(state.amplitudes)
        for angle_sum in (-np.pi / 4, np.pi / 4, 3 * np.pi / 4, 0.3):
            fast = fock._diag_sign_correlation(diag, angle_sum,
                                               sign_op * sign_op)
            direct = dense_diag_sign_correlation(diag, angle_sum, x, w, h)
            assert abs(fast - direct) < 1e-12

    @pytest.mark.parametrize("n_trunc", [40, 60, 130])
    def test_sign_operator_matches_wide_grid(self, n_trunc):
        sign = fock._sign_operator(n_trunc)
        assert np.max(np.abs(sign - grid_sign_operator(n_trunc))) < 1e-13
        assert np.array_equal(sign, sign.T)
        idx = np.arange(n_trunc)
        assert not np.any(sign[np.add.outer(idx, idx) % 2 == 0])

    def test_optimal_product_unchanged(self):
        # lambda*T found with the wavefunction-grid correlator at T = 0.99
        product, _ = fock.fock_optimal_product(0.99)
        assert abs(product - 0.5719741657865842) < 1e-9
