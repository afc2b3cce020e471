"""Truncated photon-number-basis implementation of the whole experiment.

Everything here is computed independently of the covariance-matrix
pipeline.  Every pure state built here is Schmidt-diagonal,
sum_n g_n |n,n>, and is stored as its real Schmidt coefficients g; beam
splitters act through binomial amplitude tables.  The heralded state
keeps the photon-number difference Delta = n_A - n_B of each ket and bra
equal, so a mixed state is stored as its Delta-blocks: an array of shape
(2N-1, N, N) with

    blocks[Delta + N - 1, a, c] = <a, a - Delta| rho |c, c - Delta>,

O(N^3) numbers instead of the dense O(N^4) array, kept real when the
state is real.  Click conditioning builds each block with one product
over the tap photon counts.  Every two-mode quantity is a pairing
sum rho[(a, b), (c, d)] O_A[a, c] O_B[b, d], read off the blocks with one
block reduction

    M[a, c] = sum_Delta R[Delta, a, c] O_B[a - Delta, c - Delta]

as sum_{a,c} O_A[a, c] M[a, c].  The reduction is one array contraction,
not a loop over Delta: the blocks and a zero-padded copy of O_B are read
through sliding-window views that line up, for each (a, c), the N terms
whose partner a - Delta lies in [0, N), in ascending Delta.  For
symmetric O_A, O_B the pairing is Tr rho (O_A (x) O_B); for single-mode
Wigner tables it is W.  A homodyne of efficiency eta reads the sign of
sqrt(eta) x + sqrt(1 - eta) v, with v vacuum noise, so it measures the
erf-smoothed sign operator
S[a, c] = int erf(k x) h_a h_c dx of the Hermite functions h, with
k^2 = eta / (1 - eta).  The oscillator equation turns S into Gaussian
overlaps of the h, which one recurrence gives exactly: no quadrature
grid, and no loss map on the state or the operator.  Rotations multiply
entry (a, c) by e^{i(theta+phi)(a-c)}, so the correlator is the phase form
E = sum_{a,c} S[a, c] M_S[a, c] e^{i(theta+phi)(a-c)} of one reduction.
The Wigner function reduces the stack of single-mode Wigner tables of
mode B the same way.

Quadrature convention matches the covariance modules: <x^2> = 1/2 in
vacuum, i.e. psi_0(x) = pi^(-1/4) exp(-x^2/2).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bell import DEFAULT_ANGLES, _golden_section_max, chsh_value
from .errors import DomainError, InvalidRegimeError, TruncationError
from .gaussian import check_domain

DEFAULT_TRUNCATION = 40

#: smallest truncation a Fock state or a run configuration accepts
MIN_TRUNCATION = 16

#: maximum probability allowed in the top four photon-number layers
TAIL_TOLERANCE = 1e-8

#: truncation and lambda * T scan range of `fock_optimal_product`
PRODUCT_TRUNCATION = 60
PRODUCT_RANGE = (0.35, 0.80)


def _check_truncation(probs: np.ndarray, n_trunc: int):
    """Fail when too much probability sits near the truncation edge.

    probs is P(n_A, n_B), or the vector P(n, n) of a Schmidt state.
    """
    cut = max(n_trunc - 4, 0)
    tail = float(probs[cut:].sum())
    if probs.ndim == 2:
        tail += float(probs[:cut, cut:].sum())
    if tail > TAIL_TOLERANCE:
        raise TruncationError(
            f"probability {tail:.3e} above photon number {cut} "
            f"exceeds {TAIL_TOLERANCE:.1e}; increase the truncation")


def _readonly(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _check_floor(n_trunc: int):
    """DomainError for a truncation below MIN_TRUNCATION."""
    if n_trunc < MIN_TRUNCATION:
        raise DomainError(f"truncation must be >= {MIN_TRUNCATION}, "
                          f"got {n_trunc}")


def _check_schmidt(coeffs: np.ndarray) -> np.ndarray:
    """Schmidt coefficients g of a pure state sum_n g_n |n,n>, checked.

    DomainError unless g is a real vector of at least MIN_TRUNCATION
    entries with unit norm within 1e-10; TruncationError when its tail
    reaches the truncation edge.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 1:
        raise DomainError("Schmidt coefficients must form a vector")
    _check_floor(len(coeffs))
    norm = float(coeffs @ coeffs)
    if abs(norm - 1.0) > 1e-10:
        raise DomainError(f"state norm {norm} differs from 1 beyond 1e-10")
    _check_truncation(coeffs ** 2, len(coeffs))
    return coeffs


# ---------------------------------------------------------------------------
# Delta-block storage


@functools.lru_cache(maxsize=8)
def _in_range(n_trunc: int) -> np.ndarray:
    """Mask of block entries [u, i, j] whose partners i - u and j - u lie in
    [0, N)."""
    n = n_trunc
    u = np.arange(1 - n, n)[:, None, None]
    i = np.arange(n)[None, :, None]
    j = np.arange(n)[None, None, :]
    return _readonly((i >= u) & (i - u < n) & (j >= u) & (j - u < n))


@functools.lru_cache(maxsize=8)
def _mirror_positions(n_trunc: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions of in-range block entries [u, i, j], i <= j, and [u, j, i]."""
    valid = _in_range(n_trunc)
    u, i, j = np.nonzero(valid & np.triu(np.ones(valid.shape[1:], bool)))
    return (_readonly(np.ravel_multi_index((u, i, j), valid.shape)),
            _readonly(np.ravel_multi_index((u, j, i), valid.shape)))


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
    truncation must be zero.  n_trunc must be at least MIN_TRUNCATION.
    The blocks keep their dtype: real blocks stay real float64 (half the
    memory of complex ones), complex blocks stay complex, and integer
    blocks become float64.
    """

    blocks: np.ndarray
    n_trunc: int

    def __post_init__(self):
        blocks = np.asarray(self.blocks)
        blocks = blocks.astype(np.promote_types(blocks.dtype, float),
                               copy=False)
        n = self.n_trunc
        _check_floor(n)
        if blocks.shape != (2 * n - 1, n, n):
            raise DomainError("density blocks do not match the truncation")
        if np.any(blocks[~_in_range(n)]):
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
    check_domain("squeezing", squeezing)
    return np.sqrt(1.0 - squeezing ** 2) * squeezing ** np.arange(n_trunc)


def tmsv_state(squeezing: float,
               n_trunc: int = DEFAULT_TRUNCATION) -> np.ndarray:
    """Schmidt coefficients of the two-mode squeezed vacuum, renormalized
    on the truncated basis and checked."""
    coeffs = tmsv_amplitudes(squeezing, n_trunc)
    return _check_schmidt(coeffs / np.linalg.norm(coeffs))


def ladder(n_trunc: int) -> np.ndarray:
    """Annihilation operator on the truncated basis."""
    return np.diag(np.sqrt(np.arange(1, n_trunc)), k=1)


def quadrature_operators(n_trunc: int) -> tuple[np.ndarray, np.ndarray]:
    """x and p matrices with <x^2>_vac = 1/2."""
    a = ladder(n_trunc)
    x = (a + a.T) / np.sqrt(2.0)
    p = (a - a.T) / (1j * np.sqrt(2.0))
    return x, p


def second_moments(coeffs: np.ndarray) -> np.ndarray:
    """Covariance matrix gamma_ij = <r_i r_j + r_j r_i> of the zero-mean
    pure state sum_n g_n |n,n>, given its Schmidt coefficients g.

    Brute-force moment evaluation used as the ground truth for the
    covariance-matrix constructors; g is checked as the constructors
    check it.  Each quadrature is a pair of operators (F on mode A, G on
    mode B), one of them the identity, and
    <F (x) G> = sum_{a,c} g_a F[a,c] G[a,c] g_c = g^T (F o G) g.
    """
    coeffs = _check_schmidt(coeffs)
    x, p = quadrature_operators(len(coeffs))
    eye = np.eye(len(coeffs))
    ops = ((x, eye), (p, eye), (eye, x), (eye, p))

    def expect(f, g):
        return coeffs @ (f * g) @ coeffs

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
    check_domain("transmittance", transmittance)
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
                         n_trunc: int = DEFAULT_TRUNCATION) -> np.ndarray:
    """Schmidt coefficients of the state heralded by exactly one photon in
    each tap arm.

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
    coeffs = np.zeros(n_trunc)
    coeffs[totals - 1] = diag / norm
    return _check_schmidt(coeffs)


def ideal_subtracted_state(squeezing: float, transmittance: float,
                           n_trunc: int = DEFAULT_TRUNCATION
                           ) -> tuple[np.ndarray, float]:
    """Normalized (n+1)(T*lambda)^n |n,n> state and its projection fidelity.

    Returns the Schmidt coefficients of the closed-form photon-subtracted
    state together with its overlap fidelity (g_proj . g)^2 against the
    exact two-beam-splitter photon-pair projection at the same finite
    transmittance.
    """
    if squeezing * transmittance >= 0.95:
        raise DomainError("squeezing * transmittance must stay below 0.95 "
                          "for the truncated representation to converge")
    if squeezing * transmittance == 0.0:
        raise InvalidRegimeError("zero squeezing cannot herald a photon pair")
    n = np.arange(n_trunc)
    coeffs = (n + 1.0) * (transmittance * squeezing) ** n
    coeffs = _check_schmidt(coeffs / np.linalg.norm(coeffs))
    projected = pair_projected_state(squeezing, transmittance, n_trunc)
    return coeffs, float((projected @ coeffs) ** 2)


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
    check_domain("apd_efficiency", apd_efficiency)
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
    state = FockDensityMatrix(blocks=blocks / p_click, n_trunc=n_trunc)
    return state, p_click


# ---------------------------------------------------------------------------
# homodyne statistics


def _sign_operator(n_trunc: int, homodyne_efficiency: float) -> np.ndarray:
    """S[a, c] = int erf(k x) h_a(x) h_c(x) dx, k^2 = eta / (1 - eta).

    A homodyne of efficiency eta reads sgn(x) smoothed by its vacuum noise,
    erf(k x); at eta = 1 that is sgn(x).  The oscillator equation
    h_n'' = (x^2 - 2n - 1) h_n makes 2 (c - a) h_a h_c the derivative of
    h_c h_a' - h_a h_c', so integrating by parts against erf(k x) gives
    S[a, c] = (D[a, c] - D[c, a]) / (a - c) with
    D[a, c] = int nu h_a' h_c = sqrt(a/2) G[a-1, c] - sqrt((a+1)/2) G[a+1, c],
    where nu is the normal density of variance (1 - eta) / (2 eta) and
    G[m, n] = int nu h_m h_n.  G is exact from G[0, 0] = sqrt(eta / pi) and
    sqrt(m+1) G[m+1, n] = (1 - eta) sqrt(n) G[m, n-1] - eta sqrt(m) G[m-1, n];
    G is symmetric, so the same recurrence in n gives its first row.  At
    eta = 1, G = h(0) h(0)^T.  D, and so S, vanishes for even a + c.
    """
    eta = homodyne_efficiency
    idx = np.arange(n_trunc + 1)
    root = np.sqrt(idx)
    overlap = np.zeros((n_trunc + 1, n_trunc))
    ratio = -eta * root[1:n_trunc - 1:2] / root[2:n_trunc:2]
    overlap[0, ::2] = np.sqrt(eta / np.pi) * np.cumprod(np.r_[1.0, ratio])
    # the coefficients (1 - eta) sqrt(n) and eta sqrt(m) of the recurrence
    column_coeff = (1.0 - eta) * root[1:n_trunc]
    row_coeff = eta * root[:n_trunc]
    below = np.empty(n_trunc)
    for m in range(n_trunc):
        row = overlap[m + 1]
        np.multiply(column_coeff, overlap[m, :-1], out=row[1:])
        if m:
            np.multiply(row_coeff[m], overlap[m - 1], out=below)
            np.subtract(row, below, out=row)
        np.divide(row, root[m + 1], out=row)
    half = np.sqrt(idx / 2.0)[:, None]
    deriv = -half[1:] * overlap[1:]
    deriv[1:] += half[1:-1] * overlap[:-2]
    diff = np.subtract.outer(idx[:-1], idx[:-1])
    return np.divide(deriv - deriv.T, diff, out=np.zeros(diff.shape),
                     where=diff != 0)


def _partner_view(op: np.ndarray) -> np.ndarray:
    """Read-only view V[..., a, w, c] = O[..., b, c - a + b] at b = N - 1 - w
    of a stack of N x N operators, zero where c - a + b leaves [0, N).

    op is zero-padded by N - 1 columns on each side.  The diagonals
    E[..., k + N - 1, b] = O[b, b + k] of the padding, for the offsets
    k = c - a in (-N, N), are read in windows of N consecutive offsets,
    which makes V Toeplitz in (a, c).  Nothing is copied beyond the padding.
    """
    n = op.shape[-1]
    pad = np.zeros(op.shape[:-1] + (3 * n - 2,), dtype=op.dtype)
    pad[..., n - 1:2 * n - 1] = op
    diagonals = sliding_window_view(pad, 2 * n - 1, axis=-1).diagonal(
        axis1=-3, axis2=-2)
    return sliding_window_view(diagonals, n, axis=-2)[..., ::-1, ::-1, :]


def _block_reduce(blocks: np.ndarray, op: np.ndarray) -> np.ndarray:
    """M[a, c, ...] = sum_Delta R[Delta, a, c] O[a - Delta, c - Delta, ...].

    Pairs O with mode B of the block-stored state, so that
    sum rho[(a, b), (c, d)] O_A[a, c] O[b, d] = sum_{a,c} O_A[a, c] M[a, c].
    Row a only meets the N values Delta = a + w - N + 1, w in [0, N),
    whose partner b = a - Delta = N - 1 - w lies in [0, N):
    M[a, c] = sum_w R[a + w, a, c] O[b, c - a + b], summed in ascending w,
    so in ascending Delta.  Both factors are read-only views, the blocks
    through their windows of N consecutive Delta and O through
    `_partner_view`, and one contraction sums them; a term whose
    c - a + b leaves [0, N) is an exact zero.
    Trailing axes of op are a stack of operators, reduced at once.  A
    complex stack against real blocks is reduced as its real and imaginary
    parts, so that the blocks are never cast to complex.
    """
    if np.iscomplexobj(op) and not np.iscomplexobj(blocks):
        out = np.empty(op.shape, dtype=complex)
        out.real = _block_reduce(blocks, op.real)
        out.imag = _block_reduce(blocks, op.imag)
        return out
    n = blocks.shape[1]
    # rows[c, w, a] = R[a + w, a, c]
    rows = sliding_window_view(blocks, n, axis=0).diagonal(axis1=0, axis2=1)
    # cast here, so that the contraction itself never casts
    stack = np.moveaxis(op, (0, 1), (-2, -1)).astype(blocks.dtype, copy=False)
    return np.einsum("cwa,...awc->ac...", rows, _partner_view(stack))


def _phase_form(reduced: np.ndarray, angle_sum: float) -> float:
    """sum_{a,c} M[a, c] e^{i angle_sum (a - c)}, real for a hermitian M."""
    phase = np.exp(1j * angle_sum * np.arange(reduced.shape[0]))
    return float((phase @ reduced @ phase.conj()).real)


def _phase_chsh(reduced: np.ndarray,
                angles: tuple[float, float, float, float]) -> float:
    """CHSH combination of the phase forms of M at the four angle sums."""
    theta1, theta2, phi1, phi2 = angles
    return float(chsh_value(np.array(
        [[_phase_form(reduced, theta + phi) for phi in (phi1, phi2)]
         for theta in (theta1, theta2)])))


def _sign_reduced(rho: FockDensityMatrix,
                  homodyne_efficiency: float) -> np.ndarray:
    """S o M_S with S the erf-smoothed sign operator, what a pair of lossy
    homodynes measures.

    Its phase form at theta + phi is the correlator E(theta, phi).
    homodyne_efficiency must lie in (0, 1] (DomainError, with the text
    ExperimentParams uses).
    """
    check_domain("homodyne_efficiency", homodyne_efficiency)
    sign = _sign_operator(rho.n_trunc, homodyne_efficiency)
    return sign * _block_reduce(rho.blocks, sign)


def fock_sign_correlation(rho: FockDensityMatrix, theta: float, phi: float,
                          homodyne_efficiency: float = 1.0) -> float:
    """Sign-binned quadrature correlator evaluated in the photon-number basis.

    E = Tr rho (S (x) S), with S the erf-smoothed sign operator of the
    lossy homodynes: one block reduction, then its phase form.  A rotation
    by theta on mode A and phi on mode B multiplies entry (a, c) of every
    block by e^{i(theta+phi)(a-c)}.
    """
    return _phase_form(_sign_reduced(rho, homodyne_efficiency), theta + phi)


def fock_chsh(rho: FockDensityMatrix,
              angles: tuple[float, float, float, float],
              homodyne_efficiency: float = 1.0) -> float:
    """CHSH combination of four sign correlators for a given heralded state:
    one block reduction and four phase forms."""
    return _phase_chsh(_sign_reduced(rho, homodyne_efficiency), angles)


def fock_optimal_product(transmittance: float,
                         tol: float = 5e-4) -> tuple[float, float]:
    """Squeezing-transmittance product maximizing S in the Fock pipeline.

    Uses photon-pair projection (perfect photon-resolving detectors) and
    ideal homodynes, the sign operator S at efficiency 1, which keeps the
    heralded state pure and the scan cheap.  The Schmidt state
    sum_n g_n |n,n> has the one block g g^T, so the correlators are the
    phase forms of S o M_S = (g g^T) o S o S.  The state depends on
    lambda T alone, so the scan runs over lambda T in PRODUCT_RANGE, below
    T so that lambda = (lambda T) / T stays below 1, and the golden-section
    search refines lambda T to tol.  An optimum on the scan boundary raises
    DomainError.  Returns (lambda_opt * T, S_max).
    """
    check_domain("transmittance", transmittance)
    sign_op = _sign_operator(PRODUCT_TRUNCATION, 1.0)
    sign_squared = sign_op * sign_op

    def s_value(product: float) -> float:
        coeffs = pair_projected_state(product / transmittance, transmittance,
                                      PRODUCT_TRUNCATION)
        return _phase_chsh(np.outer(coeffs, coeffs) * sign_squared,
                           DEFAULT_ANGLES)

    low, high = PRODUCT_RANGE
    grid = np.linspace(low, min(high, transmittance), 16)
    grid = grid[grid < transmittance]
    values = [s_value(product) for product in grid]
    best = int(np.argmax(values)) if values else 0
    if best in (0, len(grid) - 1):
        raise DomainError("optimal squeezing fell on the scan boundary")
    product, s_max = _golden_section_max(
        lambda products: [s_value(product) for product in products],
        grid[best - 1], grid[best + 1], tol, lookahead=1)
    return float(product), float(s_max)


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


def wigner_values(rho: FockDensityMatrix, points: np.ndarray) -> np.ndarray:
    """Two-mode Wigner function at phase-space points (..., 4).

    Point components are ordered (x_A, p_A, x_B, p_B) to match the
    covariance-matrix modules.  With T_A and T_B the single-mode tables of
    `wigner_pair_table`, W_i = sum_{a,c} T_A[a, c, i] M[a, c, i], where M
    is the block reduction of the stack T_B: the state is read in place.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != 4:
        raise DomainError("phase-space points must have 4 components")
    flat = pts.reshape(-1, 4)
    n = rho.n_trunc
    table_a = wigner_pair_table(n, flat[:, 0], flat[:, 1])
    reduced = _block_reduce(rho.blocks,
                            wigner_pair_table(n, flat[:, 2], flat[:, 3]))
    values = np.einsum("aci,aci->i", table_a, reduced)
    return values.real.reshape(pts.shape[:-1])
