"""Truncated photon-number-basis implementation of the whole experiment.

Everything here is computed independently of the covariance-matrix
pipeline.  Every pure state built here is Schmidt-diagonal,
sum_n g_n |n,n>, and is stored as its real Schmidt coefficients g; beam
splitters act through binomial amplitude tables t[n, k], the amplitude
that k of n photons leave through the tap.

The heralded state is never formed.  Each tap and its on/off detector act
on one kept mode, so the state is stored as what makes it: g of the
two-mode squeezed vacuum, t, the click weights w(k) and the double-click
probability P.  Both detector models are one herald: on/off detectors of
efficiency eta have w(k) = 1 - (1 - eta)^k, and photon-pair projection
is w = e_1.  Its truncation fence reads the four rows of the per-mode
click table c[n, k] = w(k) t(n, k)^2 that can reach the top photon
numbers; no two-mode array is formed.  A two-mode observable O_A (x) O_B is
measured by pulling the tap-and-click measurement back onto each mode's
operator,

    Phi(O)[n, m] = sum_{k >= 1} w(k) t(n, k) t(m, k) O[n - k, m - k],

one contraction over a read-only shifted view of O, after which

    P Tr rho (O_A (x) O_B) = g^T (Phi(O_A) o Phi(O_B)) g.

Phi(I) is diagonal with entries q_n = sum_k w(k) t(n, k)^2, so
P = sum_n g_n^2 q_n^2.  A homodyne of efficiency eta is a beam splitter of
transmittance eta before an ideal homodyne, which measures the sign
operator S[a, c] = int sgn(x) h_a h_c dx of the Hermite functions h.
Beam-splitter losses compose, so the tap and the homodyne loss are one
loss of T eta, whose lost photons the tap takes binomially: the lossy
measurement is the ideal S pulled back through the tap table of T eta with
thinned click weights.  The oscillator equation gives the rank-2
commutator [N, S] = u v^T - v u^T, with u and v the derivatives and
values of the h at 0, and each Kraus operator of Phi lowers both photon
numbers alike, so [N, Phi(S)] = Phi(u v^T - v u^T) is one N x N product:
no quadrature grid, no recurrence and no N^3 contraction.  Rotations
multiply entry (n, m) by e^{i(theta+phi)(n-m)} and commute with Phi, so
the correlator is the phase form at theta + phi of
(g g^T) o Phi(S) o Phi(S), divided by P.  A single-mode Wigner table is a
real radial part times e^{-i(a-c) varphi}: the radial parts are pulled
back, once per distinct radius, and the phases are put back afterwards.

Quadrature convention matches the covariance modules: <x^2> = 1/2 in
vacuum, i.e. psi_0(x) = pi^(-1/4) exp(-x^2/2); the Schmidt vector of
`tmsv_state` gives the two-mode squeezed vacuum's covariance entries
sum_n g_n^2 (2n + 1) and 2 sum_n g_n g_{n+1} (n + 1), which `validate`
compares with `gaussian.x_block` at unit transmittance.  A truncation
goes through `inputs.integer`, at least MIN_TRUNCATION where a state is
formed, and a state argument through `inputs.record`.

Two memos hold the tables that depend on the truncation N alone:
`_root_binomials` the square-root binomials and the exponent row from
which every tap table is scaled, and `_sign_tables` the N x N tables
u_{n-k}, v_{n-k} of the Hermite derivatives and values at 0 and the
divisor n - m, which the sign pull-back reads.  These three are Toeplitz
views over 2N - 1 values each, one per diagonal, so they add O(N) memory
and no call gathers or builds an index table.  Each memo is keyed on the
integer N alone (a `functools.lru_cache` of TABLE_MEMO_SIZE truncations)
and returns read-only arrays, so no caller can change what the next one
reads.  Nothing keyed on a parameter is kept: the tables scaled by T are
built per call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import inputs
from .bell import DEFAULT_ANGLES, _golden_section_max, chsh_value
from .errors import DomainError, InvalidRegimeError, TruncationError

DEFAULT_TRUNCATION = 40

#: smallest truncation a Fock state or a run configuration accepts
MIN_TRUNCATION = 16

#: maximum probability allowed in the top four photon-number layers
TAIL_TOLERANCE = 1e-8

#: largest truncation whose square-root binomials sqrt(C(j + k, k)),
#: j + k < N, are all finite doubles; past it `_root_binomials` restarts
#: its running product in chunks of rows
ROOT_BINOMIAL_LIMIT = 2048

#: truncations whose tables `_root_binomials` and `_sign_tables` each
#: keep, least recently used out first
TABLE_MEMO_SIZE = 8

#: lower triangle of the bottom-left 4 x 4 corner of a click table: the
#: entries that reach the top four photon-number layers (see `_herald`)
_CORNER = np.tril(np.ones((4, 4), dtype=bool))
_CORNER.flags.writeable = False

#: truncation and lambda * T scan range of `fock_optimal_product`
PRODUCT_TRUNCATION = 60
PRODUCT_RANGE = (0.35, 0.80)


def _check_truncation(top: np.ndarray, n_trunc: int):
    """Fail when too much probability sits near the truncation edge.

    top holds the probability contributions that reach the top four
    photon-number layers, n >= n_trunc - 4, of a kept mode: P(n, n) there
    for a Schmidt state, one value per source photon number for a heralded
    state (see `_herald`).  Their sum is the tail.
    """
    tail = float(np.sum(top))
    if tail > TAIL_TOLERANCE:
        raise TruncationError(
            f"probability {tail:.3e} above photon number {n_trunc - 4} "
            f"exceeds {TAIL_TOLERANCE:.1e}; increase the truncation")


def _check_schmidt(coeffs: np.ndarray) -> np.ndarray:
    """Schmidt coefficients g of a pure state sum_n g_n |n,n>, checked.

    DomainError unless g is a real vector (`inputs.vector`) of at least
    MIN_TRUNCATION entries with unit norm within 1e-10; TruncationError
    when its tail reaches the truncation edge.
    """
    coeffs = inputs.vector("Schmidt coefficients", coeffs)
    inputs.integer("truncation", len(coeffs), MIN_TRUNCATION)
    norm = float(coeffs @ coeffs)
    if abs(norm - 1.0) > 1e-10:
        raise DomainError(f"state norm {norm} differs from 1 beyond 1e-10")
    _check_truncation(coeffs[-4:] ** 2, len(coeffs))
    return coeffs


# ---------------------------------------------------------------------------
# states and beam splitters


def tmsv_amplitudes(squeezing: float, n_trunc: int) -> np.ndarray:
    """Schmidt coefficients of the two-mode squeezed vacuum, sqrt(1-l^2) l^n."""
    n_trunc = inputs.integer("truncation", n_trunc, 0)
    squeezing = inputs.parameter("squeezing", squeezing)
    return np.sqrt(1.0 - squeezing ** 2) * squeezing ** np.arange(n_trunc)


def tmsv_state(squeezing: float,
               n_trunc: int = DEFAULT_TRUNCATION) -> np.ndarray:
    """Schmidt coefficients of the two-mode squeezed vacuum, renormalized
    on the truncated basis and checked."""
    coeffs = tmsv_amplitudes(squeezing, n_trunc)
    return _check_schmidt(coeffs / np.linalg.norm(coeffs))


def _log_factorials(n: int) -> np.ndarray:
    """log(k!) for k < n, as cumulative sums of log k."""
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n)))))


def tap_amplitude_table(transmittance: float, n_trunc: int) -> np.ndarray:
    """Beam-splitter amplitudes for |m>|0> -> sum_k table[m,k] |m-k>|k>.

    table[m, k] = (-1)^k sqrt(C(m, k) T^(m-k) (1-T)^k) is the amplitude
    that k photons end up in the tap arm, zero for k > m: the table of
    `_scaled_taps` over `_root_binomials`, finite at every truncation.
    """
    n_trunc = inputs.integer("truncation", n_trunc, 0)
    transmittance = inputs.parameter("transmittance", transmittance)
    return _scaled_taps(*_root_binomials(n_trunc), transmittance)


def _chunk_rows(n_trunc: int) -> int:
    """Rows of one running product of `_root_binomials`: all N rows up to
    ROOT_BINOMIAL_LIMIT, and past it as many as keep a product of factors
    sqrt((j + i) / i) <= sqrt(N) below 2^1020 (at least one)."""
    if n_trunc <= ROOT_BINOMIAL_LIMIT:
        return max(n_trunc, 1)
    return int(2040 / np.log2(n_trunc))


@functools.lru_cache(maxsize=TABLE_MEMO_SIZE)
def _root_binomials(n_trunc: int) -> tuple[np.ndarray, np.ndarray]:
    """r[k, j] = sqrt(C(j + k, k)) for j + k < N, and 0 for j + k >= N,
    shape (N, N + 1) with N = n_trunc: its last column is zero; and the
    exponent row j / 2, j <= N, of the powers `_scaled_taps` scales r by.

    Both depend on the integer N alone, so they are built once per
    truncation and returned read-only: the memo holds the tables of the
    TABLE_MEMO_SIZE truncations used last.  `__wrapped__` builds afresh.

    r is the running product over i <= k of sqrt((j + i) / i), taken down
    axis 0: one rounded quotient and root per factor, with no logarithm to
    lose digits in.  Past the truncation the numerator j + i wraps to
    j + i - N, which is 0 at j + i = N, so no entry there overflows.  Up to
    N = ROOT_BINOMIAL_LIMIT every entry is finite.  Past it the product
    restarts every `_chunk_rows` rows: row k0 + i of a chunk that starts at
    row k0 > 0 holds the product over k0 <= m <= k0 + i only, which
    `_scaled_taps` puts on the table row k0 - 1.
    """
    idx = np.arange(n_trunc + 1, dtype=float)
    steps = np.add.outer(idx[:n_trunc], idx)
    np.subtract(steps, n_trunc, out=steps, where=steps >= n_trunc)
    steps[1:] /= idx[1:n_trunc, None]
    # row 0 keeps the wrapped numerator 0 in the last column
    steps[:1, :n_trunc] = 1.0
    np.sqrt(steps, out=steps)
    rows = _chunk_rows(n_trunc)
    for start in range(0, n_trunc, rows):
        chunk = steps[start:start + rows]
        np.multiply.accumulate(chunk, axis=0, out=chunk)
    halves = idx / 2.0
    steps.flags.writeable = False
    halves.flags.writeable = False
    return steps, halves


def _scaled_taps(roots: np.ndarray, halves: np.ndarray,
                 transmittance: float) -> np.ndarray:
    """The tap amplitude table t[n, k] = r[k, n - k] sqrt(T)^(n-k)
    (-sqrt(1 - T))^k of the root binomials r and exponent row j / 2 of
    `_root_binomials`, for a transmittance in [0, 1] (unchecked).

    The powers are taken of T and 1 - T at half-integer exponents, so the
    rounding of a square root is not raised to the k-th power.  r is
    scaled by them, the powers of T first: in this order the S of
    `fock_optimal_product` at T = 0.90, 0.95 and 0.99 is the S of the
    correctly rounded table, and in the other it is two spacings farther
    at T = 0.95.  Then row k is shifted right by k places: r has rows of
    length N + 1, and read back in rows of length N, row k starts k places
    later.  What passes the end of a row is the zero corner and column of
    r, and fills the start of the next row.  No index array is formed.
    The result is the transpose of the skewed table, copied to rows, so
    that sums over k run along memory as numpy's pairwise sums.

    Past ROOT_BINOMIAL_LIMIT, where r restarts its product every
    `_chunk_rows` rows, the rows of a chunk that starts at row k0 > 0 are
    scaled by the table's row k0 - 1 in place of the powers of T, and by
    (-sqrt(1 - T))^(k - k0 + 1): every product stays finite, and each
    restart adds the rounding of one power and two products.  Entries
    whose power of T or 1 - T falls below the normal range are rewritten
    by `_log_space_tails`; the check is two scalar powers.
    """
    n_trunc = len(roots)
    rows = _chunk_rows(n_trunc)
    kept = transmittance ** halves
    tapped = (1.0 - transmittance) ** halves[:rows + 1]
    tapped[1::2] *= -1.0
    skew = roots * kept
    skew[:rows] *= tapped[:rows, None]
    for start in range(rows, n_trunc, rows):
        chunk = skew[start:start + rows]
        np.multiply(roots[start:start + rows], skew[start - 1], out=chunk)
        chunk *= tapped[1:len(chunk) + 1, None]
    top = max(n_trunc - 1, 0) / 2.0
    if (transmittance > 0.0 and transmittance ** top < 2.0 ** -1022
            or transmittance < 1.0
            and (1.0 - transmittance) ** top < 2.0 ** -1022):
        _log_space_tails(skew, transmittance, kept)
    return skew.reshape(-1)[:n_trunc * n_trunc].reshape(
        n_trunc, n_trunc).T.copy()


def _log_space_tails(skew: np.ndarray, transmittance: float,
                     kept: np.ndarray):
    """Rewrite in place, from logarithms, the entries s[k, j] = t[j + k, k]
    of the skewed table of `_scaled_taps` whose power T^(j/2) or
    (1 - T)^(k/2) is below the normal range 2^-1022: the columns
    j >= j0 and the rows k >= k0 where the powers leave it.  kept holds
    T^(j/2) for j <= N, and T lies in (0, 1).

    The product loses digits there or flushes to 0, although
    sqrt(C(j + k, k)) lifts such an entry as high as 1e-70 at N = 2048.
    In log space these entries keep about 11 digits.  log C(j + k, k) is
    read from a sliding window over log factorials that are -inf past the
    truncation, so the zero corner j + k >= N stays zero.
    """
    n_trunc = len(skew)
    idx = np.arange(n_trunc + 1)
    log_fact = _log_factorials(n_trunc + 1)
    log_kept = idx / 2.0 * np.log(transmittance) - 0.5 * log_fact
    log_tapped = (idx[:n_trunc, None] / 2.0 * np.log1p(-transmittance)
                  - 0.5 * log_fact[:n_trunc, None])
    log_sums = sliding_window_view(
        np.r_[0.5 * log_fact[:n_trunc], np.full(n_trunc, -np.inf)],
        n_trunc + 1)
    signs = np.where(idx[:n_trunc, None] % 2, -1.0, 1.0)
    k0 = np.count_nonzero(
        (1.0 - transmittance) ** (idx[:n_trunc] / 2.0) >= 2.0 ** -1022)
    j0 = np.count_nonzero(kept >= 2.0 ** -1022)
    for rows, cols in ((slice(k0, None), slice(None)),
                       (slice(None, k0), slice(j0, None))):
        block = log_sums[rows, cols] + log_kept[cols]
        block += log_tapped[rows]
        np.exp(block, out=block)
        np.multiply(block, signs[rows], out=skew[rows, cols])


# ---------------------------------------------------------------------------
# click conditioning with lossy on/off detectors


def click_weights(apd_efficiency: float, n_trunc: int) -> np.ndarray:
    """Click probability w(k) = 1 - (1 - eta)^k of an on/off detector of
    efficiency eta seeing k photons, for k < n_trunc.

    Evaluated as -expm1(k log1p(-eta)), accurate to rounding also where
    w(k) is small; w(0) = 0, and eta = 1 gives w(k) = 1 for every k >= 1.
    """
    n_trunc = inputs.integer("truncation", n_trunc, 0)
    apd_efficiency = inputs.parameter("apd_efficiency", apd_efficiency)
    weights = np.zeros(n_trunc)
    with np.errstate(divide="ignore"):
        weights[1:] = -np.expm1(np.arange(1, n_trunc)
                                * np.log1p(-apd_efficiency))
    return weights


@dataclass(frozen=True)
class HeraldedState:
    """Heralded two-mode state, stored as what makes it.

    The source sum_n g_n |n,n> (amplitudes g, not renormalized), the tap
    amplitude table t of the transmittance T and the detector weights w
    give the state
    sum_{k,l} w(k) w(l) (K_k (x) K_l) |g><g| (K_k (x) K_l)^T / p_click,
    with K_k |n> = t(n, k) |n - k>, so that
    p_click Tr rho (O_A (x) O_B) = g^T (Phi(O_A) o Phi(O_B)) g for the
    pull-back Phi of `_pull_back`.  T is kept because a lossy homodyne
    behind the tap is read as one tap of transmittance T eta (see
    `_sign_reduced`).
    """

    amplitudes: np.ndarray
    tap: np.ndarray
    transmittance: float
    weights: np.ndarray
    p_click: float
    n_trunc: int


def _herald(squeezing: float, transmittance: float, weights: np.ndarray,
            tap=None) -> tuple[HeraldedState, np.ndarray]:
    """Source state heralded by a click in both tap arms, for detectors
    that click on k tapped photons with probability w(k), and the click
    probability q of a kept mode by its photon number before the tap.

    tap, when given, is `tap_amplitude_table(transmittance, len(weights))`,
    built once by a caller that heralds many states behind the same tap.

    The click table c[n, k] = w(k) t(n, k)^2 gives q_n = sum_k c[n, k] and
    P = sum_n g_n^2 q_n^2.  A kept mode ends with n - k photons, so only
    source numbers n >= N - 4 tapped of k <= n - (N - 4) photons reach its
    top four layers.  With h_n that part of q_n, summed over the lower
    triangle of the bottom-left 4 x 4 corner of c, the probability that n
    photons reach the top layers of either kept mode is
    g_n^2 h_n (2 q_n - h_n) / P, free of cancellation since h <= q.
    Refuses, in this order, a squeezing or transmittance outside its
    domain (DomainError), P <= 0 (InvalidRegimeError), a truncation below
    MIN_TRUNCATION (DomainError) and a tail above TAIL_TOLERANCE
    (TruncationError).
    """
    n_trunc = len(weights)
    amplitudes = tmsv_amplitudes(squeezing, n_trunc)
    if tap is None:
        tap = tap_amplitude_table(transmittance, n_trunc)
    clicked = tap * tap * weights
    clicks = clicked.sum(axis=1)
    p_click = float(amplitudes ** 2 @ clicks ** 2)
    if p_click <= 0.0:
        raise InvalidRegimeError(
            f"double-click probability {p_click} vanishes; "
            "no conditional state exists")
    inputs.integer("truncation", n_trunc, MIN_TRUNCATION)
    high = clicked[-4:, :4].sum(axis=1, where=_CORNER)
    _check_truncation(amplitudes[-4:] ** 2 * high * (2.0 * clicks[-4:] - high)
                      / p_click, n_trunc)
    return HeraldedState(amplitudes, tap, transmittance, weights, p_click,
                         n_trunc), clicks


def lossy_click_conditioning(squeezing: float, transmittance: float,
                             apd_efficiency: float,
                             n_trunc: int = DEFAULT_TRUNCATION
                             ) -> tuple[HeraldedState, float]:
    """Heralded state of the kept modes and the double-click probability.

    The tap arms are measured by on/off detectors of the given efficiency,
    and both click: the herald of `_herald` with the weights of
    `click_weights`, whose domain is checked first.
    """
    state, _ = _herald(squeezing, transmittance,
                       click_weights(apd_efficiency, n_trunc))
    return state, state.p_click


def pair_projected_state(squeezing: float, transmittance: float,
                         n_trunc: int = DEFAULT_TRUNCATION) -> np.ndarray:
    """Schmidt coefficients of the state heralded by exactly one photon in
    each tap arm.

    Photon-pair projection is the herald of `_herald` with the click
    weights w = e_1, so q_n = t(n, 1)^2 and the kept modes hold n - 1
    photons: the Schmidt vector is g_{n+1} q_{n+1} / sqrt(P), proportional
    to (n+1)(T*lambda)^n.  It is normalized by construction, and the
    herald's tail fence sums the same top entries as `_check_schmidt`.
    """
    n_trunc = inputs.integer("truncation", n_trunc, 0)
    return _pair_projection(squeezing, transmittance, n_trunc)


def _pair_projection(squeezing: float, transmittance: float, n_trunc: int,
                     tap: np.ndarray | None = None) -> np.ndarray:
    """`pair_projected_state`, behind a tap table the caller may have
    built already (see `_herald`)."""
    state, clicks = _herald(squeezing, transmittance,
                            (np.arange(n_trunc) == 1).astype(float), tap)
    return np.append(state.amplitudes[1:] * clicks[1:], 0.0) / np.sqrt(
        state.p_click)


# ---------------------------------------------------------------------------
# homodyne statistics


def _shifted_view(op: np.ndarray) -> np.ndarray:
    """Read-only view V[..., n, m, s] = O[n - k, m - k, ...] at
    k = N - 1 - s of a stack of N x N operators, zero where n - k or m - k
    is negative.

    op is zero-padded by N - 1 rows and columns in front; the N x N
    windows of the padding that start on its diagonal are the shifts of O.
    Nothing is copied beyond the padding.
    """
    n = op.shape[0]
    pad = np.zeros((2 * n - 1, 2 * n - 1) + op.shape[2:], dtype=op.dtype)
    pad[n - 1:, n - 1:] = op
    return sliding_window_view(pad, (n, n), axis=(0, 1)).diagonal(
        axis1=0, axis2=1)


def _pull_back(state: HeraldedState, op: np.ndarray) -> np.ndarray:
    """Phi(O)[n, m, ...] = sum_k w(k) t(n, k) t(m, k) O[n - k, m - k, ...].

    The tap and click measurement of one mode in the Heisenberg picture,
    as one contraction over `_shifted_view`; a term whose shifted index
    leaves the truncation has t = 0.  Trailing axes of op are a stack of
    operators, pulled back at once.
    """
    tap = state.tap[:, ::-1]
    return np.einsum("ns,ms,...nms->nm...", tap * state.weights[::-1], tap,
                     _shifted_view(op))


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


def _toeplitz(diagonals: np.ndarray) -> np.ndarray:
    """Read-only N x N view T[n, k] = d[n - k + N - 1] of 2N - 1 values d,
    one per diagonal, so that a table adds O(N) memory."""
    diagonals.flags.writeable = False
    return sliding_window_view(diagonals, (len(diagonals) + 1) // 2)[:, ::-1]


@functools.lru_cache(maxsize=TABLE_MEMO_SIZE)
def _sign_tables(n_trunc: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The N x N tables u_{n-k}, v_{n-k} and n - m that `_pull_back_sign`
    reads, N = n_trunc >= 1, as read-only `_toeplitz` views.

    v = h(0) and u = h'(0) are the values and derivatives at 0 of the
    first N Hermite functions: v_0 = pi^(-1/4),
    v_{n+2} = -sqrt((n+1)/(n+2)) v_n and u_n = sqrt(2n) v_{n-1}, so v is
    zero at odd n and u at even n.  A negative n - k wraps to n - k + N,
    where t(n, k) = 0.  The divisor n - m is 1 on the diagonal, where the
    commutator is 0.

    All three depend on the integer N alone; they are built once per
    truncation, with the memo and bound of `_root_binomials`.
    """
    idx = np.arange(n_trunc)
    v = np.zeros(n_trunc)
    v[::2] = np.cumprod(np.append(np.pi ** -0.25,
                                  -np.sqrt(idx[1:-1:2] / idx[2::2])))
    # u_0 meets the wrapped v_{N-1} with the factor sqrt(0)
    u = np.sqrt(2.0 * idx) * np.roll(v, 1)
    gaps = np.arange(1.0 - n_trunc, n_trunc)
    gaps[n_trunc - 1] = 1.0
    return (_toeplitz(np.r_[u[1:], u]), _toeplitz(np.r_[v[1:], v]),
            _toeplitz(gaps))


def _pull_back_sign(tap: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Phi(S) of the sign operator S[a, c] = int sgn(x) h_a h_c dx of an
    ideal homodyne, for the tap table t and click weights w.

    The oscillator equation h_n'' = (x^2 - 2n - 1) h_n makes 2 (c - a) h_a h_c
    the derivative of h_c h_a' - h_a h_c', so integrating by parts against
    sgn(x) gives the commutator [N, S] = u v^T - v u^T, with v = h(0) and
    u = h'(0) of `_sign_tables`, so S vanishes for even a + c.  Each
    Kraus operator of the pull-back lowers both photon numbers by the same
    k, so Phi commutes with [N, .] and [N, Phi(S)] = U V^T - V U^T with
    U[n, k] = t(n, k) u_{n-k} and V[n, k] = w(k) t(n, k) v_{n-k}: one N x N
    product, divided by n - m; the diagonal of Phi(S) is zero.
    With w = e_0 and t(n, 0) = 1, a transparent tap that always heralds,
    Phi is the identity and this is S itself.
    """
    shifted_u, shifted_v, gaps = _sign_tables(len(weights))
    pair = (tap * shifted_u) @ (tap * weights * shifted_v).T
    return (pair - pair.T) / gaps


def _sign_reduced(state: HeraldedState,
                  homodyne_efficiency: float) -> np.ndarray:
    """(g g^T) o Phi(S) o Phi(S) / P with S the erf-smoothed sign operator,
    what a pair of lossy homodynes measures.

    Its phase form at theta + phi is the correlator E(theta, phi).  The
    homodyne of efficiency eta is a beam splitter of transmittance eta
    before an ideal one, so the tap of transmittance T and the homodyne
    loss are one loss of T eta: Phi_{T,w}(S_eta) = Phi_{T eta,w~}(S) with
    the ideal S of `_pull_back_sign`.  Of the j photons lost, the tap takes
    each with probability p = (1 - T) / (1 - T eta), so
    w~(j) = sum_k C(j, k) p^k (1-p)^(j-k) w(k), whose binomials are the
    squared tap table of the homodyne's share 1 - p = T (1 - eta) /
    (1 - T eta); T - T eta and 1 - T eta come from the one rounded
    product T eta, exactly where it is at least half of T.  Both folded
    tables are scaled from one table of `_root_binomials`; their
    transmittances lie in [0, 1] by construction and are not checked
    again.  P is read through the same folded tables: the loss map is
    unital, so their click table has the record's row sums q_n.  At
    eta = 1 the record's own tables are used, and that P is its p_click,
    bitwise.  Below it the folded P gives the better E: against the
    45-digit E of 808 seeded rows it was off by at most 4.4e-16, and by up
    to 2.6e-14 with the record's p_click.  homodyne_efficiency must lie in
    (0, 1] (DomainError, with the text ExperimentParams uses).
    """
    homodyne_efficiency = inputs.parameter("homodyne_efficiency",
                                           homodyne_efficiency)
    tap, weights = state.tap, state.weights
    if homodyne_efficiency != 1.0:
        product = state.transmittance * homodyne_efficiency
        tables = _root_binomials(state.n_trunc)
        thinning = _scaled_taps(
            *tables, (state.transmittance - product) / (1.0 - product))
        tap = _scaled_taps(*tables, product)
        weights = thinning * thinning @ weights
    pulled = _pull_back_sign(tap, weights)
    coeffs = state.amplitudes
    p_click = float(coeffs ** 2 @ (tap * tap * weights).sum(axis=1) ** 2)
    reduced = np.outer(coeffs, coeffs)
    reduced *= pulled
    reduced *= pulled
    reduced /= p_click
    return reduced


def fock_sign_correlation(rho: HeraldedState, theta: float, phi: float,
                          homodyne_efficiency: float = 1.0) -> float:
    """Sign-binned quadrature correlator evaluated in the photon-number basis.

    E = Tr rho (S (x) S), with S the erf-smoothed sign operator of the
    lossy homodynes: one pull-back, then its phase form.  A rotation by
    theta on mode A and phi on mode B multiplies entry (n, m) by
    e^{i theta (n-m)} and e^{i phi (n-m)}.  A theta or phi that is not one
    finite real number raises DomainError, as `inputs.angles` refuses a
    pair; rho goes through `inputs.record`.
    """
    inputs.record("rho", rho, HeraldedState)
    theta, phi = inputs.angles((theta, phi), 2)
    return _phase_form(_sign_reduced(rho, homodyne_efficiency), theta + phi)


def fock_chsh(rho: HeraldedState,
              angles: tuple[float, float, float, float],
              homodyne_efficiency: float = 1.0) -> float:
    """CHSH combination of four sign correlators for a given heralded state:
    one pull-back and four phase forms.  rho goes through `inputs.record`;
    angles that `inputs.angles` refuses raise DomainError."""
    inputs.record("rho", rho, HeraldedState)
    angles = inputs.angles(angles)
    return _phase_chsh(_sign_reduced(rho, homodyne_efficiency), angles)


def fock_optimal_product(transmittance: float,
                         tol: float = 5e-4) -> tuple[float, float]:
    """Squeezing-transmittance product maximizing S in the Fock pipeline.

    Uses photon-pair projection (perfect photon-resolving detectors) and
    ideal homodynes, the sign operator S at efficiency 1, which keeps the
    heralded state pure and the scan cheap.  The Schmidt state
    sum_n g_n |n,n> has the one block g g^T, so the correlators are the
    phase forms of S o M_S = (g g^T) o S o S.  The state depends on
    lambda T alone, so the scan runs over lambda T in PRODUCT_RANGE, up to
    just below T so that lambda = (lambda T) / T stays below 1, and the
    golden-section search refines lambda T to tol around the best scan
    point, or to where its bracket stops shrinking for a tol below the
    float spacing.  Every point is heralded behind one tap table.  An
    optimum at the lower end of the scan, or within tol of its upper end,
    raises DomainError, and so does a tol that is not a finite positive
    real number (`inputs.positive`).  Returns (lambda_opt * T, S_max).
    """
    transmittance = inputs.parameter("transmittance", transmittance)
    tol = inputs.positive("tol", tol)
    # the ideal S: w = e_0 reads only t(n, 0), 1 for a transparent tap
    sign_op = _pull_back_sign(1.0, np.eye(PRODUCT_TRUNCATION)[0])
    tap = tap_amplitude_table(transmittance, PRODUCT_TRUNCATION)

    def s_value(product: float) -> float:
        coeffs = _pair_projection(product / transmittance, transmittance,
                                  PRODUCT_TRUNCATION, tap)
        return _phase_chsh(np.outer(coeffs, coeffs) * sign_op * sign_op,
                           DEFAULT_ANGLES)

    low, high = PRODUCT_RANGE
    # lambda = (lambda T) / T stays below 1 up to the last float below T
    top = min(high, float(np.nextafter(transmittance, 0.0)))
    if top <= low:
        raise DomainError("optimal squeezing fell on the scan boundary")
    grid = np.linspace(low, top, 16)
    best = int(np.argmax([s_value(product) for product in grid]))
    if best == 0:
        raise DomainError("optimal squeezing fell on the scan boundary")
    product, s_max = _golden_section_max(
        lambda products: [s_value(product) for product in products],
        grid[best - 1], grid[min(best + 1, len(grid) - 1)], tol, lookahead=1)
    if top - product < tol:
        raise DomainError("optimal squeezing fell on the scan boundary")
    return float(product), float(s_max)


# ---------------------------------------------------------------------------
# Wigner function


def _radial_table(n_trunc: int, rsq: np.ndarray) -> np.ndarray:
    """Real radial parts R[m, n, i] = R[n, m, i] of the Wigner transforms
    of |m><n| at squared radii rsq, shape (n, n, npts).

    For m >= n, R[m, n] = (-1)^n sqrt(n!/m!) (2 r^2)^((m-n)/2)
    L_n^(m-n)(2 r^2) e^{-r^2} / pi, with the associated Laguerre polynomials
    from the three-term recurrence in the degree k,
    L_{k+1} = ((2k + 1 + order - u) L_k - (k + order) L_{k-1}) / (k + 1),
    run for every order at once.
    """
    u = 2.0 * rsq
    order = np.arange(n_trunc)[:, None]
    laguerre = np.empty((n_trunc, n_trunc, rsq.size))
    laguerre[0] = 1.0
    laguerre[1] = 1.0 + order - u
    for k in range(1, n_trunc - 1):
        laguerre[k + 1] = ((2 * k + 1 + order - u) * laguerre[k]
                           - (k + order) * laguerre[k - 1]) / (k + 1)
    m, n = np.tril_indices(n_trunc)
    log_fact = _log_factorials(n_trunc)
    ratio = np.exp(0.5 * (log_fact[n] - log_fact[m]))
    lower = (((-1.0) ** n * ratio)[:, None] * u ** ((m - n)[:, None] / 2.0)
             * laguerre[n, m - n] * (np.exp(-rsq) / np.pi))
    table = np.empty((n_trunc, n_trunc, rsq.size))
    table[n, m] = lower
    table[m, n] = lower
    return table


def wigner_values(rho: HeraldedState, points: np.ndarray) -> np.ndarray:
    """Two-mode Wigner function at phase-space points (..., 4).

    Point components are ordered (x_A, p_A, x_B, p_B) to match the
    covariance-matrix modules.  The tables of both modes are R e^{-i(a-c)
    varphi} with R real and depending on the radius alone, and rotations
    commute with the pull-back, so the radial parts of every distinct
    radius are pulled back once and W is the phase form of
    (g g^T) o Phi(R_A) o Phi(R_B) / P at -(varphi_A + varphi_B); rho goes
    through `inputs.record` and the points through `inputs.points`.
    """
    inputs.record("rho", rho, HeraldedState)
    pts = inputs.points("phase-space points", points)
    flat = pts.reshape(-1, 4)
    count = len(flat)
    rsq, which = np.unique(np.r_[flat[:, 0] ** 2 + flat[:, 1] ** 2,
                                 flat[:, 2] ** 2 + flat[:, 3] ** 2],
                           return_inverse=True)
    pulled = _pull_back(rho, _radial_table(rho.n_trunc, rsq))
    coeffs = rho.amplitudes
    reduced = (np.outer(coeffs, coeffs)[..., None] * pulled[..., which[:count]]
               * pulled[..., which[count:]])
    angle = (np.arctan2(flat[:, 1], flat[:, 0])
             + np.arctan2(flat[:, 3], flat[:, 2]))
    phase = np.exp(-1j * np.outer(np.arange(rho.n_trunc), angle))
    values = np.einsum("ni,nmi,mi->i", phase, reduced, phase.conj()).real
    return (values / rho.p_click).reshape(pts.shape[:-1])
