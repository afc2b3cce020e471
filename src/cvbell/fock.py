"""Truncated photon-number-basis implementation of the whole experiment.

Everything here is computed independently of the covariance-matrix
pipeline.  Pure states are amplitude arrays over photon numbers and beam
splitters act through binomial amplitude tables.  The heralded state
keeps the photon-number difference Delta = n_A - n_B of each ket and bra
equal, so a mixed state is stored as its Delta-blocks: an array of shape
(2N-1, N, N) with

    blocks[Delta + N - 1, a, c] = <a, a - Delta| rho |c, c - Delta>,

O(N^3) numbers instead of the dense O(N^4) array.  Click conditioning
builds each block with one product over the tap photon counts.  Homodyne
statistics come from the sign operator S[a, c] = int sgn(x) h_a h_c dx of
the Hermite functions h, in closed form from the oscillator equation: no
quadrature grid.  Homodyne loss acts on S, not on the state: its dual map
L^dagger S[a, c] = sum_l t(a, l) t(c, l) S[a - l, c - l], with t the
beam-splitter amplitudes, is one N x N matrix, and the correlator is
E = sum R[Delta, a, c] e^{i(theta+phi)(a-c)} L^dagger S[a, c]
L^dagger S[a-Delta, c-Delta], one contraction over the blocks.

Quadrature convention matches the covariance modules: <x^2> = 1/2 in
vacuum, i.e. psi_0(x) = pi^(-1/4) exp(-x^2/2).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bell import DEFAULT_ANGLES, _golden_section_max, chsh_value
from .errors import DomainError, InvalidRegimeError, TruncationError
from .gaussian import check_domain

DEFAULT_TRUNCATION = 40

#: maximum probability allowed in the top four photon-number layers
TAIL_TOLERANCE = 1e-8

#: truncation and squeezing scan range of `fock_optimal_product`
PRODUCT_TRUNCATION = 60
PRODUCT_LAMBDA_RANGE = (0.35, 0.80)


def _check_truncation(probs: np.ndarray, n_trunc: int):
    """Fail when too much probability sits near the truncation edge."""
    cut = max(n_trunc - 4, 0)
    tail = float(probs[cut:, :].sum() + probs[:cut, cut:].sum())
    if tail > TAIL_TOLERANCE:
        raise TruncationError(
            f"probability {tail:.3e} above photon number {cut} "
            f"exceeds {TAIL_TOLERANCE:.1e}; increase the truncation")


def _readonly(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class FockState:
    """Pure two-mode state as a complex amplitude array over (n_A, n_B)."""

    amplitudes: np.ndarray
    n_trunc: int

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if self.n_trunc < 16:
            raise DomainError(f"truncation must be >= 16, got {self.n_trunc}")
        if amps.shape != (self.n_trunc, self.n_trunc):
            raise DomainError("amplitude array does not match the truncation")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > 1e-10:
            raise DomainError(f"state norm {norm} differs from 1 beyond 1e-10")
        _check_truncation(np.abs(amps) ** 2, self.n_trunc)
        object.__setattr__(self, "amplitudes", amps)


# ---------------------------------------------------------------------------
# Delta-block storage


@functools.lru_cache(maxsize=8)
def _layout(n_trunc: int):
    """In-range mask and the gather from Delta-blocks to pair blocks.

    The pair layout of mode A, pairs[k + N - 1, a, b] = <a, b| rho |a - k,
    b - k>, holds the same entries as the Delta-blocks, grouped by the
    ket-bra offset k that phase-space transforms of mode A leave fixed.
    Returns the mask of entries whose partner indices lie in [0, N) (the
    same for blocks and pairs), their flat positions, and the flat
    positions in the blocks that the pair entries are read from.
    """
    n = n_trunc
    u = np.arange(1 - n, n)[:, None, None]
    i = np.arange(n)[None, :, None]
    j = np.arange(n)[None, None, :]
    valid = (i >= u) & (i - u < n) & (j >= u) & (j - u < n)
    dest = np.flatnonzero(valid)
    # pair entry [u, i, j] is block entry [i - j, i, i - u]
    source = np.broadcast_to(((i - j + n - 1) * n + i) * n + i - u, valid.shape)
    return _readonly(valid), _readonly(dest), _readonly(source.ravel()[dest])


@functools.lru_cache(maxsize=8)
def _mirror_positions(n_trunc: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions of in-range block entries [u, i, j], i <= j, and [u, j, i]."""
    valid = _layout(n_trunc)[0]
    u, i, j = np.nonzero(valid & np.triu(np.ones(valid.shape[1:], bool)))
    return (_readonly(np.ravel_multi_index((u, i, j), valid.shape)),
            _readonly(np.ravel_multi_index((u, j, i), valid.shape)))


def _relayout(blocks: np.ndarray) -> np.ndarray:
    """Delta-blocks to the pair layout of mode A."""
    _, dest, source = _layout(blocks.shape[1])
    out = np.zeros(blocks.shape, dtype=blocks.dtype)
    out.reshape(-1)[dest] = blocks.reshape(-1)[source]
    return out


def _photon_numbers(blocks: np.ndarray, n_trunc: int) -> np.ndarray:
    """Photon-number distribution P(n_A, n_B), read off the block diagonals."""
    idx = np.arange(n_trunc)
    return blocks[np.subtract.outer(idx, idx) + n_trunc - 1,
                  idx[:, None], idx[:, None]].real


@dataclass(frozen=True)
class FockDensityMatrix:
    """Mixed two-mode state stored as its photon-number-difference blocks.

    blocks[Delta + n_trunc - 1, a, c] = <a, a - Delta| rho |c, c - Delta>;
    an entry whose partner index a - Delta or c - Delta leaves the
    truncation must be zero.
    """

    blocks: np.ndarray
    n_trunc: int

    def __post_init__(self):
        blocks = np.asarray(self.blocks, dtype=complex)
        n = self.n_trunc
        if blocks.shape != (2 * n - 1, n, n):
            raise DomainError("density blocks do not match the truncation")
        if np.any(blocks[~_layout(n)[0]]):
            raise DomainError("density block has an entry whose partner "
                              "photon number lies outside the truncation")
        upper, lower = _mirror_positions(n)
        flat = blocks.reshape(-1)
        if np.max(np.abs(flat[upper] - flat[lower].conj())) > 1e-10:
            raise DomainError("density matrix is not hermitian within 1e-10")
        probs = _photon_numbers(blocks, n)
        trace = float(probs.sum())
        if abs(trace - 1.0) > 1e-9:
            raise DomainError(f"density matrix trace {trace} differs from 1")
        _check_truncation(probs, n)
        object.__setattr__(self, "blocks", blocks)


# ---------------------------------------------------------------------------
# states and beam splitters


def tmsv_amplitudes(squeezing: float, n_trunc: int) -> np.ndarray:
    """Schmidt coefficients of the two-mode squeezed vacuum, sqrt(1-l^2) l^n."""
    if not 0.0 <= squeezing < 1.0:
        raise DomainError(f"squeezing must lie in [0, 1), got {squeezing}")
    return np.sqrt(1.0 - squeezing ** 2) * squeezing ** np.arange(n_trunc)


def tmsv_state(squeezing: float, n_trunc: int = DEFAULT_TRUNCATION) -> FockState:
    """Two-mode squeezed vacuum in the photon-number basis."""
    diag = tmsv_amplitudes(squeezing, n_trunc)
    amps = np.zeros((n_trunc, n_trunc), dtype=complex)
    np.fill_diagonal(amps, diag)
    norm = np.sqrt(np.sum(np.abs(amps) ** 2))
    return FockState(amplitudes=amps / norm, n_trunc=n_trunc)


def ladder(n_trunc: int) -> np.ndarray:
    """Annihilation operator on the truncated basis."""
    return np.diag(np.sqrt(np.arange(1, n_trunc)), k=1)


def quadrature_operators(n_trunc: int) -> tuple[np.ndarray, np.ndarray]:
    """x and p matrices with <x^2>_vac = 1/2."""
    a = ladder(n_trunc)
    x = (a + a.T) / np.sqrt(2.0)
    p = (a - a.T) / (1j * np.sqrt(2.0))
    return x, p


def second_moments(state: FockState) -> np.ndarray:
    """Covariance matrix gamma_ij = <r_i r_j + r_j r_i> of a zero-mean state.

    Brute-force moment evaluation used as the ground truth for the
    covariance-matrix constructors.  Each quadrature is a pair of
    operators (F on mode A, G on mode B), one of them the identity, and
    <F (x) G> = sum conj(Psi[a,b]) F[a,c] G[b,d] Psi[c,d]
    = Tr(Psi^dagger F Psi G^T), two matrix products.
    """
    x, p = quadrature_operators(state.n_trunc)
    eye = np.eye(state.n_trunc)
    ops = ((x, eye), (p, eye), (eye, x), (eye, p))
    psi = state.amplitudes

    def expect(f, g):
        return np.vdot(psi, f @ psi @ g.T)

    gamma = np.zeros((4, 4))
    for i, (f_i, g_i) in enumerate(ops):
        for j, (f_j, g_j) in enumerate(ops):
            gamma[i, j] = (expect(f_i @ f_j, g_i @ g_j)
                           + expect(f_j @ f_i, g_j @ g_i)).real
    return gamma


def _log_factorials(n: int) -> np.ndarray:
    """log(k!) for k < n, as cumulative sums of log k."""
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n)))))


def tap_amplitude_table(transmittance: float, n_trunc: int) -> np.ndarray:
    """Beam-splitter amplitudes for |m>|0> -> sum_k table[m,k] |m-k>|k>.

    table[m, k] is the amplitude that k photons end up in the tap arm.
    Computed in log space to stay finite for large m.
    """
    if not 0.0 < transmittance <= 1.0:
        raise DomainError(f"transmittance must lie in (0, 1], got {transmittance}")
    m = np.arange(n_trunc)[:, None]
    k = np.arange(n_trunc)[None, :]
    log_fact = _log_factorials(n_trunc)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_binom = log_fact[m] - log_fact[k] - log_fact[np.maximum(m - k, 0)]
        log_kept = (m - k) / 2.0 * np.log(transmittance)
        log_tapped = np.where(k > 0, k / 2.0 * np.log1p(-transmittance), 0.0)
        table = np.exp(0.5 * log_binom + log_kept + log_tapped)
    table[k > m] = 0.0
    return table * (-1.0) ** k


def pair_projected_state(squeezing: float, transmittance: float,
                         n_trunc: int = DEFAULT_TRUNCATION) -> FockState:
    """State heralded by exactly one photon in each tap arm.

    Projecting both taps onto the single-photon state leaves a pure
    two-mode state with amplitudes proportional to (n+1)(T*lambda)^n.
    """
    coeff = tmsv_amplitudes(squeezing, n_trunc)
    table = tap_amplitude_table(transmittance, n_trunc)
    totals = np.arange(1, n_trunc)
    diag = coeff[totals] * table[totals, 1] ** 2
    norm = np.linalg.norm(diag)
    if norm == 0.0:
        raise InvalidRegimeError("no amplitude survives the photon-pair projection")
    amps = np.zeros((n_trunc, n_trunc), dtype=complex)
    amps[totals - 1, totals - 1] = diag / norm
    return FockState(amplitudes=amps, n_trunc=n_trunc)


def ideal_subtracted_state(squeezing: float, transmittance: float,
                           n_trunc: int = DEFAULT_TRUNCATION
                           ) -> tuple[FockState, float]:
    """Normalized (n+1)(T*lambda)^n |n,n> state and its projection fidelity.

    Returns the closed-form photon-subtracted state together with its
    overlap fidelity against the exact two-beam-splitter photon-pair
    projection at the same finite transmittance.
    """
    if squeezing * transmittance >= 0.95:
        raise DomainError("squeezing * transmittance must stay below 0.95 "
                          "for the truncated representation to converge")
    if squeezing * transmittance == 0.0:
        raise InvalidRegimeError("zero squeezing cannot herald a photon pair")
    n = np.arange(n_trunc)
    diag = (n + 1.0) * (transmittance * squeezing) ** n
    diag /= np.linalg.norm(diag)
    amps = np.zeros((n_trunc, n_trunc), dtype=complex)
    np.fill_diagonal(amps, diag)
    state = FockState(amplitudes=amps, n_trunc=n_trunc)
    projected = pair_projected_state(squeezing, transmittance, n_trunc)
    overlap = complex(np.vdot(projected.amplitudes, state.amplitudes))
    return state, float(abs(overlap) ** 2)


# ---------------------------------------------------------------------------
# click conditioning with lossy on/off detectors


def click_weights(apd_efficiency: float, n_trunc: int) -> np.ndarray:
    """Click probability of an on/off detector seeing k photons.

    Built from the dilation amplitudes of the efficiency beam splitter
    (the detector keeps the transmitted arm): no click means all k
    photons were tapped away into the traced arm.
    """
    table = tap_amplitude_table(apd_efficiency, n_trunc)
    idx = np.arange(n_trunc)
    no_click = table[idx, idx] ** 2
    return 1.0 - no_click


def _click_conditioned_unnormalized(squeezing: float, transmittance: float,
                                    apd_efficiency: float,
                                    n_trunc: int) -> np.ndarray:
    """Unnormalized heralded blocks; their trace is the double-click probability.

    Tap counts kc, kd leave |n - kc, n - kd>, so block Delta collects the
    pairs kd = kc + Delta: blocks[Delta] = U U^T with
    U[a, kc] = sqrt(w(kc) w(kd)) c(n) t(n, kc) t(n, kd) at n = a + kc.
    """
    if not 0.0 < apd_efficiency <= 1.0:
        raise DomainError(f"apd_efficiency must lie in (0, 1], got {apd_efficiency}")
    n = n_trunc
    # zero padding: totals reach 2n - 2, tap counts run from 1 - n to 2n - 2
    coeff = np.zeros(2 * n)
    coeff[:n] = tmsv_amplitudes(squeezing, n)
    table = np.zeros((2 * n, 3 * n))
    table[:n, n:2 * n] = tap_amplitude_table(transmittance, n)
    root_w = np.zeros(3 * n)
    root_w[n:2 * n] = np.sqrt(click_weights(apd_efficiency, n))
    a = np.arange(n)[:, None]
    kc = np.arange(n)[None, :]
    kd = kc + np.arange(1 - n, n)[:, None, None]
    first = coeff[a + kc] * table[a + kc, n + kc] * root_w[n + kc]
    factor = first * table[a + kc, n + kd] * root_w[n + kd]
    return factor @ factor.transpose(0, 2, 1)


def double_click_probability(squeezing: float, transmittance: float,
                             apd_efficiency: float,
                             n_trunc: int = DEFAULT_TRUNCATION) -> float:
    """Probability that both tap detectors click on one pulse."""
    blocks = _click_conditioned_unnormalized(squeezing, transmittance,
                                             apd_efficiency, n_trunc)
    return float(_photon_numbers(blocks, n_trunc).sum())


def lossy_click_conditioning(squeezing: float, transmittance: float,
                             apd_efficiency: float,
                             n_trunc: int = DEFAULT_TRUNCATION
                             ) -> tuple[FockDensityMatrix, float]:
    """Heralded state of the kept modes and the double-click probability.

    The tap arms are measured by on/off detectors of the given efficiency;
    conditioning on both clicking yields a mixed state block-diagonal in
    the photon-number difference.
    """
    blocks = _click_conditioned_unnormalized(squeezing, transmittance,
                                             apd_efficiency, n_trunc)
    p_click = float(_photon_numbers(blocks, n_trunc).sum())
    if p_click <= 0.0:
        raise InvalidRegimeError(
            f"double-click probability {p_click} vanishes; "
            "no conditional state exists")
    state = FockDensityMatrix(blocks=(blocks / p_click).astype(complex),
                              n_trunc=n_trunc)
    return state, p_click


# ---------------------------------------------------------------------------
# homodyne statistics


@functools.lru_cache(maxsize=8)
def _sign_operator(n_trunc: int) -> np.ndarray:
    """S[a, c] = int sgn(x) h_a(x) h_c(x) dx of the Hermite functions h.

    h_a h_c is even when a + c is even, so S is zero there.  Otherwise S
    is twice the half-axis integral, which the oscillator equation
    h_n'' = (x^2 - 2n - 1) h_n turns into a boundary term at x = 0:
    S[a, c] = (h_c(0) h_a'(0) - h_a(0) h_c'(0)) / (a - c), with
    h_n(0) = -sqrt((n-1)/n) h_{n-2}(0) and h_n'(0) = sqrt(2n) h_{n-1}(0).
    The matrix is cached and read-only.
    """
    n = np.arange(n_trunc)
    value = np.zeros(n_trunc)
    value[0] = np.pi ** -0.25
    for k in range(2, n_trunc, 2):
        value[k] = -np.sqrt((k - 1) / k) * value[k - 2]
    slope = np.zeros(n_trunc)
    slope[1:] = np.sqrt(2.0 * n[1:]) * value[:-1]
    diff = np.subtract.outer(n, n)
    odd = diff % 2 == 1
    sign = np.zeros((n_trunc, n_trunc))
    sign[odd] = ((np.outer(slope, value) - np.outer(value, slope))[odd]
                 / diff[odd])
    return _readonly(sign)


def _block_kernel(op: np.ndarray) -> np.ndarray:
    """K[Delta, a, c] = O[a, c] O[a - Delta, c - Delta] of an N x N operator O.

    The kernel of O (x) O on the Delta-blocks, zero where a partner index
    leaves [0, N).
    """
    n = op.shape[0]
    kernel = np.zeros((2 * n - 1, n, n))
    for delta in range(1 - n, n):
        lo, hi = max(delta, 0), min(n + delta, n)
        kernel[delta + n - 1, lo:hi, lo:hi] = (
            op[lo:hi, lo:hi] * op[lo - delta:hi - delta, lo - delta:hi - delta])
    return kernel


def _loss_dual(op: np.ndarray, transmittance: float) -> np.ndarray:
    """Dual of pure loss, L^dagger(O)[a, c] = sum_l t(a,l) t(c,l) O[a-l, c-l].

    The Kraus operator that loses l photons maps |m> to t(m, l) |m - l>,
    with t the beam-splitter amplitudes.  At transmittance 1 only t(m, 0)
    = 1 survives, and the map is the identity.
    """
    n = op.shape[0]
    tap = np.abs(tap_amplitude_table(transmittance, n))
    out = np.zeros_like(op)
    for lost in range(n):
        kept = tap[lost:, lost]
        out[lost:, lost:] += np.outer(kept, kept) * op[:n - lost, :n - lost]
    return out


@functools.lru_cache(maxsize=2)
def _sign_kernel(n_trunc: int, homodyne_efficiency: float) -> np.ndarray:
    """Block kernel of L^dagger S, what a pair of lossy homodynes measures.

    No state check is needed for L(rho): L is trace preserving, keeps
    hermiticity and never raises a photon number, so the checks
    FockDensityMatrix ran on rho also cover it.  homodyne_efficiency must
    lie in (0, 1] (DomainError, with the text ExperimentParams uses).  The
    kernel is cached and read-only.
    """
    check_domain("homodyne_efficiency", homodyne_efficiency)
    return _readonly(_block_kernel(
        _loss_dual(_sign_operator(n_trunc), homodyne_efficiency)))


def _contract(blocks: np.ndarray, kernel: np.ndarray, angle_sum: float) -> float:
    """sum R[Delta, a, c] K[Delta, a, c] e^{i angle_sum (a - c)}."""
    phase = np.exp(1j * angle_sum * np.arange(blocks.shape[1]))
    summed = np.einsum("uac,uac->ac", blocks, kernel)
    return float((phase @ summed @ phase.conj()).real)


def fock_sign_correlation(rho: FockDensityMatrix, theta: float, phi: float,
                          homodyne_efficiency: float = 1.0) -> float:
    """Sign-binned quadrature correlator evaluated in the photon-number basis.

    E = Tr rho (L^dagger S (x) L^dagger S), with S the closed-form sign
    operator and L the homodyne loss, applied to the measured operator
    rather than the state: one contraction of the blocks with the kernel
    of `_sign_kernel`.  A rotation by theta on mode A and phi on mode B
    multiplies entry (a, c) of every block by e^{i(theta+phi)(a-c)}, and
    rotations commute with pure loss.
    """
    kernel = _sign_kernel(rho.n_trunc, homodyne_efficiency)
    return _contract(rho.blocks, kernel, theta + phi)


def fock_chsh(rho: FockDensityMatrix,
              angles: tuple[float, float, float, float],
              homodyne_efficiency: float = 1.0) -> float:
    """CHSH combination of four sign correlators for a given heralded state."""
    theta1, theta2, phi1, phi2 = angles
    kernel = _sign_kernel(rho.n_trunc, homodyne_efficiency)
    corr = [[_contract(rho.blocks, kernel, theta + phi)
             for phi in (phi1, phi2)] for theta in (theta1, theta2)]
    return float(chsh_value(np.array(corr)))


def _diag_sign_correlation(diag: np.ndarray, angle_sum: float,
                           sign_squared: np.ndarray) -> float:
    """Sign correlator g^dagger (S o S) g of a pure sum_n g_n |n,n> state."""
    phased = diag * np.exp(1j * angle_sum * np.arange(diag.size))
    return float((phased.conj() @ sign_squared @ phased).real)


def fock_optimal_product(transmittance: float,
                         tol: float = 5e-4) -> tuple[float, float]:
    """Squeezing-transmittance product maximizing S in the Fock pipeline.

    Uses photon-pair projection (perfect photon-resolving detectors) and
    ideal homodynes, which keeps the heralded state pure and the scan
    cheap.  Returns (lambda_opt * T, S_max).
    """
    sign_op = _sign_operator(PRODUCT_TRUNCATION)
    sign_squared = sign_op * sign_op
    theta1, theta2, phi1, phi2 = DEFAULT_ANGLES

    def s_value(lam: float) -> float:
        state = pair_projected_state(lam, transmittance, PRODUCT_TRUNCATION)
        diag = np.diag(state.amplitudes)
        e = {}
        for s in {theta1 + phi1, theta1 + phi2, theta2 + phi1, theta2 + phi2}:
            e[s] = _diag_sign_correlation(diag, s, sign_squared)
        return float(chsh_value(np.array(
            [[e[theta1 + phi1], e[theta1 + phi2]],
             [e[theta2 + phi1], e[theta2 + phi2]]])))

    grid = np.linspace(*PRODUCT_LAMBDA_RANGE, 16)
    values = [s_value(lam) for lam in grid]
    best = int(np.argmax(values))
    if best in (0, len(grid) - 1):
        raise DomainError("optimal squeezing fell on the scan boundary")
    lam_opt, s_max = _golden_section_max(s_value, grid[best - 1],
                                         grid[best + 1], tol)
    return float(lam_opt * transmittance), float(s_max)


# ---------------------------------------------------------------------------
# Wigner function


def wigner_pair_table(n_trunc: int, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Wigner transforms of |m><n| at phase-space points, shape (n, n, npts).

    Closed form in terms of the associated Laguerre polynomials
    L_n^(m-n)(2 r^2), down-weighted by the usual factorial ratio, with the
    conjugate filled in for m < n.  The polynomials come from the
    three-term recurrence in the degree k,
    L_{k+1} = ((2k + 1 + order - u) L_k - (k + order) L_{k-1}) / (k + 1),
    run for every order at once.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    rsq = x * x + p * p
    alpha = np.sqrt(2.0) * (x - 1j * p)
    u = 2.0 * rsq
    order = np.arange(n_trunc)[:, None]
    laguerre = np.empty((n_trunc, n_trunc, x.size))
    laguerre[0] = 1.0
    laguerre[1] = 1.0 + order - u
    for k in range(1, n_trunc - 1):
        laguerre[k + 1] = ((2 * k + 1 + order - u) * laguerre[k]
                           - (k + order) * laguerre[k - 1]) / (k + 1)
    m, n = np.tril_indices(n_trunc)
    log_fact = _log_factorials(n_trunc)
    ratio = np.exp(0.5 * (log_fact[n] - log_fact[m]))
    diff = (m - n)[:, None]
    lower = (((-1.0) ** n * ratio)[:, None] * alpha ** diff
             * laguerre[n, m - n] * (np.exp(-rsq) / np.pi))
    table = np.zeros((n_trunc, n_trunc, x.size), dtype=complex)
    table[n, m] = lower.conj()
    table[m, n] = lower
    return table


def _offset_diagonals(table: np.ndarray) -> np.ndarray:
    """diagonals[k + N - 1, a] = table[a, a - k], zero where a - k leaves [0, N)."""
    n = table.shape[0]
    a = np.arange(n)[None, :]
    bra = a - np.arange(1 - n, n)[:, None]
    inside = (bra >= 0) & (bra < n)
    return np.where(inside[..., None], table[a, np.clip(bra, 0, n - 1)], 0.0)


def wigner_values(rho: FockDensityMatrix, points: np.ndarray) -> np.ndarray:
    """Two-mode Wigner function at phase-space points (..., 4).

    Point components are ordered (x_A, p_A, x_B, p_B) to match the
    covariance-matrix modules.  Each pair block, one ket-bra offset k,
    contracts with the k-th diagonals of the two single-mode tables.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != 4:
        raise DomainError("phase-space points must have 4 components")
    flat = pts.reshape(-1, 4)
    n = rho.n_trunc
    diag_a = _offset_diagonals(wigner_pair_table(n, flat[:, 0], flat[:, 1]))
    diag_b = _offset_diagonals(wigner_pair_table(n, flat[:, 2], flat[:, 3]))
    pairs = _relayout(rho.blocks)
    values = np.einsum("kai,kai->i", diag_a, pairs @ diag_b)
    return values.real.reshape(pts.shape[:-1])
