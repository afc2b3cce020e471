import decimal
import functools
import math
import time
import tracemalloc
from dataclasses import dataclass, replace
from decimal import Decimal

import mpmath
import numpy as np
import pytest
from mpmath.calculus.quadrature import GaussLegendre
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf, eval_genlaguerre, gammaln

from cvbell import bell, conditioning, fock
from cvbell.errors import DomainError, InvalidRegimeError, TruncationError
import symplectic_reference as ref
from test_bell import exact_sign_correlation

# ---------------------------------------------------------------------------
# sign-operator references: the Hermite functions on a glued Gauss-Legendre
# grid, and the Gaussian-overlap recurrence of the erf-smoothed operator,
# which the folded closed form of the package replaces

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


def grid_sign_operator(n_trunc, homodyne_efficiency=1.0):
    """S = (h w f) h^T on the reference grid, with f = sgn x at efficiency 1
    and erf(k x), k^2 = eta / (1 - eta), below it."""
    x, w = reference_grid(n_trunc)
    h = hermite_functions(n_trunc, x)
    eta = homodyne_efficiency
    smooth = np.sign(x) if eta == 1.0 else erf(np.sqrt(eta / (1 - eta)) * x)
    return (h * w * smooth) @ h.T


def loop_sign_operator(n_trunc, homodyne_efficiency):
    """S[a, c] = int erf(k x) h_a(x) h_c(x) dx, k^2 = eta / (1 - eta), by
    its Gaussian-overlap recurrence, one full row at a time.

    A homodyne of efficiency eta reads sgn(x) smoothed by its vacuum noise,
    erf(k x); at eta = 1 that is sgn(x).  The oscillator equation
    h_n'' = (x^2 - 2n - 1) h_n makes 2 (c - a) h_a h_c the derivative of
    h_c h_a' - h_a h_c', so integrating by parts against erf(k x) gives
    S[a, c] = (D[a, c] - D[c, a]) / (a - c) with
    D[a, c] = int nu h_a' h_c = sqrt(a/2) G[a-1, c] - sqrt((a+1)/2) G[a+1, c],
    where nu is the normal density of variance (1 - eta) / (2 eta) and
    G[m, n] = int nu h_m h_n.  G is exact from G[0, 0] = sqrt(eta / pi) and
    sqrt(m+1) G[m+1, n] = (1 - eta) sqrt(n) G[m, n-1] - eta sqrt(m) G[m-1, n];
    G is symmetric, so the same recurrence in n gives its first row.  This
    is the sign operator the package computed before the homodyne loss was
    folded into the tap, kept as the reference route's operator.
    """
    eta = homodyne_efficiency
    idx = np.arange(n_trunc + 1)
    root = np.sqrt(idx)
    overlap = np.zeros((n_trunc + 1, n_trunc))
    ratio = -eta * root[1:n_trunc - 1:2] / root[2:n_trunc:2]
    overlap[0, ::2] = np.sqrt(eta / np.pi) * np.cumprod(np.r_[1.0, ratio])
    for m in range(n_trunc):
        below = overlap[m - 1] if m else 0.0
        overlap[m + 1, 1:] = (1.0 - eta) * root[1:n_trunc] * overlap[m, :-1]
        overlap[m + 1] = ((overlap[m + 1] - eta * root[m] * below)
                          / root[m + 1])
    half = np.sqrt(idx / 2.0)[:, None]
    deriv = -half[1:] * overlap[1:]
    deriv[1:] += half[1:-1] * overlap[:-2]
    diff = np.subtract.outer(idx[:-1], idx[:-1])
    return np.divide(deriv - deriv.T, diff, out=np.zeros(diff.shape),
                     where=diff != 0)


def loop_block_reduce(blocks, op):
    """M[a, c, ...] = sum_Delta R[Delta, a, c] O[a - Delta, c - Delta, ...]
    as one slice update per Delta, in ascending Delta, the summation order
    `block_reduce` must keep."""
    n = blocks.shape[1]
    blocks = blocks.reshape(blocks.shape + (1,) * (op.ndim - 2))
    out = np.zeros(op.shape, dtype=np.result_type(blocks, op))
    for delta in range(1 - n, n):
        lo, hi = max(delta, 0), min(n + delta, n)
        out[lo:hi, lo:hi] += (blocks[delta + n - 1, lo:hi, lo:hi]
                              * op[lo - delta:hi - delta, lo - delta:hi - delta])
    return out


def exact_sign_entries(entries, efficiencies, n_trunc, halfwidth=22):
    """S[a, c] = int erf(k x) h_a h_c dx at 40 digits, one row per
    efficiency.  The integrand is even; 48-node Gauss-Legendre rules on
    unit panels of [0, halfwidth] resolve h_{N-1}, whose tail past
    halfwidth is below 1e-40, and the Hermite functions come from their
    recurrence at every node."""
    with mpmath.workdps(40):
        rule = GaussLegendre(mpmath.mp).calc_nodes(5, mpmath.mp.prec)
        up = [mpmath.sqrt(mpmath.mpf(2) / n) for n in range(1, n_trunc)]
        back = [mpmath.sqrt(mpmath.mpf(n) / (n + 1)) for n in range(n_trunc)]
        slopes = [mpmath.sqrt(mpmath.mpf(eta) / (1 - mpmath.mpf(eta)))
                  for eta in efficiencies]
        sums = [[0] * len(entries) for _ in efficiencies]
        for left in range(halfwidth):
            for node, weight in rule:
                x = left + (node + 1) / 2
                h = [mpmath.exp(-x * x / 2) / mpmath.pi ** 0.25]
                h.append(up[0] * x * h[0])
                for n in range(2, n_trunc):
                    h.append(up[n - 1] * x * h[n - 1] - back[n - 1] * h[n - 2])
                for row, slope in zip(sums, slopes):
                    # the panel's Jacobian 1/2 and the even integrand's 2
                    smooth = weight * mpmath.erf(slope * x)
                    for i, (a, c) in enumerate(entries):
                        row[i] += smooth * h[a] * h[c]
        return np.array(sums, dtype=float)


def reference_sign_reduced(state, homodyne_efficiency):
    """(g g^T) o Phi(S) o Phi(S) / P with S from `loop_sign_operator` and
    Phi the package's `_pull_back`: the route that the folded commutator
    form replaced."""
    pulled = fock._pull_back(state, loop_sign_operator(state.n_trunc,
                                                       homodyne_efficiency))
    coeffs = state.amplitudes
    return np.outer(coeffs, coeffs) * pulled * pulled / state.p_click


def reference_sign_correlation(state, theta, phi, homodyne_efficiency):
    return fock._phase_form(reference_sign_reduced(state, homodyne_efficiency),
                            theta + phi)


def closed_sign_operator(n_trunc):
    """The package's ideal sign operator S: its pull-back with w = e_0 and
    t(n, 0) = 1, a transparent tap that always heralds, is S itself."""
    return fock._pull_back_sign(1.0, np.eye(n_trunc)[0])


def folded_record(state, homodyne_efficiency):
    """The record with the homodyne loss folded into its tap: the tap table
    of T eta, and click weights thinned by the share
    p = (1 - T) / (1 - T eta) of the lost photons that the tap takes."""
    t, eta = state.transmittance, homodyne_efficiency
    thinning = fock.tap_amplitude_table(t * (1 - eta) / (1 - t * eta),
                                        state.n_trunc) ** 2
    return replace(state, tap=fock.tap_amplitude_table(t * eta, state.n_trunc),
                   transmittance=t * eta, weights=thinning @ state.weights)


#: pi to 50 significant digits
PI_50 = Decimal("3.1415926535897932384626433832795028841971693993751")


def exact_fock_correlation(squeezing, transmittance, apd_efficiency, n_trunc,
                           homodyne_efficiency, angle_sum):
    """E of the heralded state on the truncated basis, at 45 digits.

    The definition route, with none of the package's identities: the
    recurrence of `loop_sign_operator` gives S at the homodyne efficiency,
    which is pulled back through the tap amplitudes and click weights of
    the transmittance T term by term, and P is the record's own sum.  The
    float inputs are converted exactly, and the phase of each photon-number
    difference comes from mpmath.
    """
    n = n_trunc
    with decimal.localcontext(decimal.Context(prec=45)):
        lam, t, eta_apd, eta = (Decimal(x) for x in (
            squeezing, transmittance, apd_efficiency, homodyne_efficiency))
        one = Decimal(1)
        root = [Decimal(i).sqrt() for i in range(n + 1)]
        half = [(Decimal(i) / 2).sqrt() for i in range(n + 1)]
        g = [(one - lam * lam).sqrt() * lam ** i for i in range(n)]
        # |t(m, k)|: the pull-back reads the tap amplitudes in pairs
        tap = [[(math.comb(m, k) * t ** (m - k) * (one - t) ** k).sqrt()
                for k in range(m + 1)] for m in range(n)]
        w = [one - (one - eta_apd) ** k for k in range(n)]
        q = [sum(w[k] * tap[m][k] ** 2 for k in range(m + 1))
             for m in range(n)]
        p_click = sum(g[m] ** 2 * q[m] ** 2 for m in range(n))
        overlap = [[Decimal(0)] * n for _ in range(n + 1)]
        overlap[0][0] = (eta / PI_50).sqrt()
        for c in range(2, n, 2):
            overlap[0][c] = -eta * root[c - 1] / root[c] * overlap[0][c - 2]
        for m in range(n):
            for c in range(n):
                value = (one - eta) * root[c] * overlap[m][c - 1] if c else 0
                if m:
                    value -= eta * root[m] * overlap[m - 1][c]
                overlap[m + 1][c] = value / root[m + 1]
        deriv = [[(half[a] * overlap[a - 1][c] if a else 0)
                  - half[a + 1] * overlap[a + 1][c] for c in range(n)]
                 for a in range(n)]
        sign = [[(deriv[a][c] - deriv[c][a]) / (a - c) if a != c else 0
                 for c in range(n)] for a in range(n)]
        with mpmath.workdps(50):
            cosines = [Decimal(mpmath.nstr(
                mpmath.cos(mpmath.mpf(angle_sum) * d), 50)) for d in range(n)]
        # Phi(S) is symmetric and vanishes at even n - m, and the cosine is
        # even: twice the sum over n > m
        total = Decimal(0)
        for a in range(n):
            weighted = [w[k] * tap[a][k] for k in range(a + 1)]
            for c in range(a - 1, -1, -2):
                pulled = sum(weighted[k] * tap[c][k] * sign[a - k][c - k]
                             for k in range(c + 1))
                total += g[a] * g[c] * pulled * pulled * cosines[a - c]
        return float(2 * total / p_click)


def exact_ideal_sign_entries(n_trunc):
    """S[a, c] = (u_a v_c - v_a u_c) / (a - c) at 45 digits, nested lists
    of Decimals, with v_{2m} = (-1)^m pi^(-1/4) sqrt(C(2m, m) / 4^m) and
    u_n = sqrt(2n) v_{n-1} from exact binomials."""
    with decimal.localcontext(decimal.Context(prec=45)):
        scale = 1 / PI_50.sqrt().sqrt()
        v = [Decimal(0)] * n_trunc
        for m in range(0, n_trunc, 2):
            v[m] = (-1) ** (m // 2) * scale * (
                Decimal(math.comb(m, m // 2)) / 2 ** m).sqrt()
        u = [Decimal(2 * n).sqrt() * v[n - 1] if n else Decimal(0)
             for n in range(n_trunc)]
        return [[(u[a] * v[c] - v[a] * u[c]) / (a - c) if (a - c) % 2
                 else Decimal(0) for c in range(n_trunc)]
                for a in range(n_trunc)]


def exact_ideal_sign_operator(n_trunc):
    """`exact_ideal_sign_entries` rounded to floats."""
    return np.array([[float(x) for x in row]
                     for row in exact_ideal_sign_entries(n_trunc)])


# ---------------------------------------------------------------------------
# Delta-block references: the heralded state stored as its photon-number-
# difference blocks,
#
#     blocks[Delta + N - 1, a, c] = <a, a - Delta| rho |c, c - Delta>,
#
# and every two-mode quantity read off them with one block reduction.  This
# is the route the pull-back replaced, kept here to check it.


@functools.lru_cache(maxsize=8)
def in_range(n_trunc):
    """Mask of block entries [u, i, j] whose partners i - u and j - u lie in
    [0, N)."""
    n = n_trunc
    u = np.arange(1 - n, n)[:, None, None]
    i = np.arange(n)[None, :, None]
    j = np.arange(n)[None, None, :]
    return (i >= u) & (i - u < n) & (j >= u) & (j - u < n)


@functools.lru_cache(maxsize=8)
def mirror_positions(n_trunc):
    """Flat positions of in-range block entries [u, i, j], i <= j, and [u, j, i]."""
    valid = in_range(n_trunc)
    u, i, j = np.nonzero(valid & np.triu(np.ones(valid.shape[1:], bool)))
    return (np.ravel_multi_index((u, i, j), valid.shape),
            np.ravel_multi_index((u, j, i), valid.shape))


def photon_numbers(blocks, n_trunc):
    """Photon-number distribution P(n_A, n_B), read off the block diagonals."""
    idx = np.arange(n_trunc)
    return blocks[np.subtract.outer(idx, idx) + n_trunc - 1,
                  idx[:, None], idx[:, None]].real


def kept_mode_tail(probs, n_trunc):
    """Probability that either mode of P(n_A, n_B) holds n_trunc - 4 or more
    photons, summed over the two-mode array."""
    cut = n_trunc - 4
    return float(probs[cut:].sum()) + float(probs[:cut, cut:].sum())


@dataclass(frozen=True)
class FockDensityMatrix:
    """Mixed two-mode state stored as its photon-number-difference blocks.

    An entry whose partner index a - Delta or c - Delta leaves the
    truncation must be zero, and n_trunc must be at least
    `fock.MIN_TRUNCATION`.  The blocks keep their dtype: real blocks stay
    real float64, complex blocks stay complex, and integer blocks become
    float64.
    """

    blocks: np.ndarray
    n_trunc: int

    def __post_init__(self):
        blocks = np.asarray(self.blocks)
        blocks = blocks.astype(np.promote_types(blocks.dtype, float),
                               copy=False)
        n = self.n_trunc
        fock._check_floor(n)
        if blocks.shape != (2 * n - 1, n, n):
            raise DomainError("density blocks do not match the truncation")
        if np.any(blocks[~in_range(n)]):
            raise DomainError("density block has an entry whose partner "
                              "photon number lies outside the truncation")
        upper, lower = mirror_positions(n)
        flat = blocks.reshape(-1)
        if np.max(np.abs(flat[upper] - flat[lower].conj())) > 1e-10:
            raise DomainError("density matrix is not hermitian within 1e-10")
        probs = photon_numbers(blocks, n)
        trace = float(probs.sum())
        if abs(trace - 1.0) > 1e-9:
            raise DomainError(f"density matrix trace {trace} differs from 1")
        fock._check_truncation([kept_mode_tail(probs, n)], n)
        object.__setattr__(self, "blocks", blocks)


def click_conditioned_blocks(squeezing, transmittance, weights):
    """Unnormalized heralded blocks for click weights w of length N; their
    trace is the double-click probability.

    Tap counts kc, kd leave |n - kc, n - kd>, so block Delta collects the
    pairs kd = kc + Delta: blocks[Delta] = U U^T with
    U[a, kc] = sqrt(w(kc) w(kd)) c(n) t(n, kc) t(n, kd) at n = a + kc.
    """
    n = len(weights)
    # zero padding: totals reach 2n - 2, tap counts run from 1 - n to 2n - 2
    coeff = np.zeros(2 * n)
    coeff[:n] = fock.tmsv_amplitudes(squeezing, n)
    table = np.zeros((2 * n, 3 * n))
    table[:n, n:2 * n] = fock.tap_amplitude_table(transmittance, n)
    root_w = np.zeros(3 * n)
    root_w[n:2 * n] = np.sqrt(weights)
    a = np.arange(n)[:, None]
    kc = np.arange(n)[None, :]
    kd = kc + np.arange(1 - n, n)[:, None, None]
    first = coeff[a + kc] * table[a + kc, n + kc] * root_w[n + kc]
    factor = first * table[a + kc, n + kd] * root_w[n + kd]
    return factor @ factor.transpose(0, 2, 1)


def block_conditioning(squeezing, transmittance, apd_efficiency, n_trunc):
    """Block-stored heralded state and the double-click probability, the
    trace of the unnormalized blocks."""
    blocks = click_conditioned_blocks(
        squeezing, transmittance, fock.click_weights(apd_efficiency, n_trunc))
    p_click = float(photon_numbers(blocks, n_trunc).sum())
    return FockDensityMatrix(blocks=blocks / p_click, n_trunc=n_trunc), p_click


def partner_view(op):
    """Read-only view V[..., a, w, c] = O[..., b, c - a + b] at b = N - 1 - w
    of a stack of N x N operators, zero where c - a + b leaves [0, N).

    op is zero-padded by N - 1 columns on each side.  The diagonals
    E[..., k + N - 1, b] = O[b, b + k] of the padding, for the offsets
    k = c - a in (-N, N), are read in windows of N consecutive offsets.
    """
    n = op.shape[-1]
    pad = np.zeros(op.shape[:-1] + (3 * n - 2,), dtype=op.dtype)
    pad[..., n - 1:2 * n - 1] = op
    diagonals = sliding_window_view(pad, 2 * n - 1, axis=-1).diagonal(
        axis1=-3, axis2=-2)
    return sliding_window_view(diagonals, n, axis=-2)[..., ::-1, ::-1, :]


def block_reduce(blocks, op):
    """M[a, c, ...] = sum_Delta R[Delta, a, c] O[a - Delta, c - Delta, ...]
    as one contraction of read-only views, in ascending Delta.

    Pairs O with mode B of the block-stored state, so that
    sum rho[(a, b), (c, d)] O_A[a, c] O[b, d] = sum_{a,c} O_A[a, c] M[a, c].
    Row a only meets the N values Delta = a + w - N + 1, w in [0, N), whose
    partner b = a - Delta = N - 1 - w lies in [0, N):
    M[a, c] = sum_w R[a + w, a, c] O[b, c - a + b].  A complex stack against
    real blocks is reduced as its real and imaginary parts.
    """
    if np.iscomplexobj(op) and not np.iscomplexobj(blocks):
        out = np.empty(op.shape, dtype=complex)
        out.real = block_reduce(blocks, op.real)
        out.imag = block_reduce(blocks, op.imag)
        return out
    n = blocks.shape[1]
    # rows[c, w, a] = R[a + w, a, c]
    rows = sliding_window_view(blocks, n, axis=0).diagonal(axis1=0, axis2=1)
    stack = np.moveaxis(op, (0, 1), (-2, -1)).astype(blocks.dtype, copy=False)
    return np.einsum("cwa,...awc->ac...", rows, partner_view(stack))


def block_sign_reduced(rho, homodyne_efficiency=1.0):
    """S o M_S of the block route, whose phase forms are the correlators."""
    sign = loop_sign_operator(rho.n_trunc, homodyne_efficiency)
    return sign * block_reduce(rho.blocks, sign)


def block_sign_correlation(rho, theta, phi, homodyne_efficiency=1.0):
    return fock._phase_form(block_sign_reduced(rho, homodyne_efficiency),
                            theta + phi)


def block_chsh(rho, angles, homodyne_efficiency=1.0):
    return fock._phase_chsh(block_sign_reduced(rho, homodyne_efficiency),
                            angles)


def block_wigner_values(rho, points, reduce=block_reduce):
    """W_i = sum_{a,c} T_A[a, c, i] M[a, c, i], M the block reduction of the
    mode-B table stack."""
    n = rho.n_trunc
    table_a = fock.wigner_pair_table(n, points[:, 0], points[:, 1])
    reduced = reduce(rho.blocks,
                     fock.wigner_pair_table(n, points[:, 2], points[:, 3]))
    return np.einsum("aci,aci->i", table_a, reduced).real


# ---------------------------------------------------------------------------
# dense (n, n, n, n) references: the direct photon-number-basis computations
# the Delta-block route replaced, kept here to check it


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
    return FockDensityMatrix(blocks=to_blocks(rho), n_trunc=n_trunc)


def vacuum_record(n_trunc=16):
    """The vacuum as a `fock.HeraldedState`: source |0,0> and the weight
    vector of zero tapped photons."""
    unit = np.eye(n_trunc)[0]
    return fock.HeraldedState(unit, fock.tap_amplitude_table(0.9, n_trunc),
                              0.9, unit, 1.0, n_trunc)


def scatter_heralded(coeff, table, weights):
    """Unnormalized heralded state rho[n_A, n_B, m_A, m_B] of the source
    amplitudes, tap table and click weights, scattered term by term over
    the tap counts."""
    n_trunc = len(coeff)
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


def expand_record(state):
    """Dense normalized density rho[n_A, n_B, m_A, m_B] of a
    `fock.HeraldedState`."""
    return scatter_heralded(state.amplitudes, state.tap,
                            state.weights) / state.p_click


def dense_click_conditioned(squeezing, transmittance, apd_efficiency, n_trunc):
    """Unnormalized heralded state, scattered term by term over tap counts."""
    return scatter_heralded(fock.tmsv_amplitudes(squeezing, n_trunc),
                            fock.tap_amplitude_table(transmittance, n_trunc),
                            fock.click_weights(apd_efficiency, n_trunc))


def kraus_loss_dual(op, transmittance):
    """Dual of pure loss, L^dagger(O)[a, c] = sum_l t(a,l) t(c,l) O[a-l, c-l].

    The Kraus operator that loses l photons maps |m> to t(m, l) |m - l>,
    with t the beam-splitter amplitudes.
    """
    n = op.shape[0]
    tap = np.abs(fock.tap_amplitude_table(transmittance, n))
    out = np.zeros_like(op)
    for lost in range(n):
        kept = tap[lost:, lost]
        out[lost:, lost:] += np.outer(kept, kept) * op[:n - lost, :n - lost]
    return out


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
    ], ids=["squeezing", "transmittance", "apd_efficiency"])
    def test_parameter_domain_error_text(self, call, text):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == text

    def test_minimum_truncation(self):
        with pytest.raises(DomainError):
            fock.tmsv_state(0.1, 8)

    def test_second_moments_match_einsum_form(self):
        # the four-operand einsum on the dense amplitudes diag(g)
        rng = np.random.default_rng(8)
        n = 20
        coeffs = 0.5 ** np.arange(n) * rng.normal(size=n)
        coeffs /= np.linalg.norm(coeffs)
        x, p = fock.quadrature_operators(n)
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
        assert np.max(np.abs(fock.second_moments(coeffs) - expected)) < 1e-13

    def test_second_moments_check_their_input(self):
        coeffs = fock.tmsv_state(0.5, 40)
        with pytest.raises(DomainError, match="norm"):
            fock.second_moments(2.0 * coeffs)
        with pytest.raises(DomainError, match="vector"):
            fock.second_moments(np.diag(coeffs))
        heavy = fock.tmsv_amplitudes(0.85, 16)
        with pytest.raises(TruncationError):
            fock.second_moments(heavy / np.linalg.norm(heavy))

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


def ideal_subtracted_state(squeezing, transmittance,
                           n_trunc=fock.DEFAULT_TRUNCATION):
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
    coeffs = fock._check_schmidt(coeffs / np.linalg.norm(coeffs))
    projected = fock.pair_projected_state(squeezing, transmittance, n_trunc)
    return coeffs, float((projected @ coeffs) ** 2)


class TestIdealSubtractedState:
    def test_projection_fidelity_high_transmittance(self):
        _, fidelity = ideal_subtracted_state(0.5, 0.999, 40)
        assert fidelity > 0.999

    def test_zero_squeezing_degenerate(self):
        with pytest.raises(InvalidRegimeError):
            ideal_subtracted_state(0.0, 0.95, 40)

    def test_truncation_stability(self):
        state40, _ = ideal_subtracted_state(0.5, 0.95, 40)
        state60, _ = ideal_subtracted_state(0.5, 0.95, 60)
        assert np.max(np.abs(state40 - state60[:40])) < 1e-10

    def test_convergence_guard(self):
        with pytest.raises(DomainError):
            ideal_subtracted_state(0.97, 0.99, 40)

    def test_amplitude_law(self):
        state, _ = ideal_subtracted_state(0.4, 0.9, 40)
        n = np.arange(40)
        expected = (n + 1.0) * (0.36) ** n
        expected /= np.linalg.norm(expected)
        assert np.max(np.abs(state - expected)) < 1e-12

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
        # the record expanded densely: hermitian, unit trace, no partner
        # outside the truncation and a light tail, as the block reference
        # checks them, and positive
        rho, _ = fock_realistic
        dense = expand_record(rho)
        FockDensityMatrix(to_blocks(dense), rho.n_trunc)
        flat = dense.reshape(rho.n_trunc ** 2, rho.n_trunc ** 2)
        assert np.max(np.abs(flat - flat.conj().T)) < 1e-10
        assert np.einsum("abab->", dense).real == pytest.approx(1.0, abs=1e-9)
        eigs = np.linalg.eigvalsh(flat)
        assert eigs.min() > -1e-8

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


def exact_pair_chsh(product, n_trunc):
    """S at the paper's angles of the pair-projected state, whose Schmidt
    vector is proportional to (n + 1)(lambda T)^n for n < N - 1, with the
    ideal sign operator, at 45 digits.  The angle sums are -pi/4, pi/4
    (twice) and 3 pi/4, whose cosines come from mpmath."""
    sign = exact_ideal_sign_entries(n_trunc)
    with decimal.localcontext(decimal.Context(prec=45)):
        x = Decimal(product)
        coeffs = [(n + 1) * x ** n for n in range(n_trunc - 1)] + [0]
        norm = sum(c * c for c in coeffs)

        def correlator(quarters):
            with mpmath.workdps(50):
                cosines = [Decimal(mpmath.nstr(mpmath.cos(
                    quarters * mpmath.pi / 4 * d), 50)) for d in range(n_trunc)]
            return sum(coeffs[a] * coeffs[c] * sign[a][c] ** 2
                       * cosines[abs(a - c)] for a in range(n_trunc)
                       for c in range(n_trunc) if (a - c) % 2) / norm

        return correlator(-1) + 2 * correlator(1) - correlator(3)


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

    def test_empty_scan_raises(self):
        # at T = 0.3 no lambda T of the scan range has lambda < 1
        with pytest.raises(DomainError) as info:
            fock.fock_optimal_product(0.3)
        assert str(info.value) == "optimal squeezing fell on the scan boundary"

    def test_transmittance_outside_domain_raises(self):
        with pytest.raises(DomainError) as info:
            fock.fock_optimal_product(0.0)
        assert str(info.value) == "transmittance must lie in (0, 1], got 0.0"

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf, "1e-3"])
    def test_tolerance_outside_domain_raises(self, tol):
        # a tolerance the golden-section bracket can never reach would
        # search forever
        with pytest.raises(DomainError) as info:
            fock.fock_optimal_product(0.95, tol=tol)
        assert str(info.value) == \
            f"tol must be a finite positive number, got {tol!r}"


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
        values = fock.wigner_values(vacuum_record(), pts)
        expected = np.exp(-np.sum(pts ** 2, axis=1)) / np.pi ** 2
        assert np.max(np.abs(values - expected)) < 1e-12

    def test_points_must_have_four_components(self):
        with pytest.raises(DomainError) as info:
            fock.wigner_values(vacuum_record(), np.zeros((2, 3)))
        assert str(info.value) == "phase-space points must have 4 components"

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
    """The package's truncation refusals, and the checks of the block
    reference that the pins and the dense comparisons rest on."""

    def test_heavy_density_tail_raises(self):
        # about 2e-4 of the heralded state's probability sits in the top
        # four photon-number layers at this truncation
        with pytest.raises(TruncationError):
            fock.lossy_click_conditioning(0.6, 0.95, 0.3, 16)

    def test_rejects_truncation_below_floor(self):
        with pytest.raises(DomainError) as info:
            fock.lossy_click_conditioning(0.5, 0.95, 0.3, 4)
        assert str(info.value) == "truncation must be >= 16, got 4"

    def test_rejects_wrong_shape(self):
        with pytest.raises(DomainError, match="truncation"):
            FockDensityMatrix(blocks=np.zeros((16, 16, 16)), n_trunc=16)

    def test_rejects_non_hermitian_block(self):
        blocks = vacuum_density().blocks.copy()
        blocks[15, 1, 2] = 1e-6
        with pytest.raises(DomainError, match="hermitian"):
            FockDensityMatrix(blocks=blocks, n_trunc=16)

    def test_rejects_wrong_trace(self):
        blocks = 1.5 * vacuum_density().blocks
        with pytest.raises(DomainError, match="trace"):
            FockDensityMatrix(blocks=blocks, n_trunc=16)

    def test_rejects_partner_outside_truncation(self):
        # block Delta = 3 at a = 1 would pair n_A = 1 with n_B = -2
        blocks = vacuum_density().blocks.copy()
        blocks[15 + 3, 1, 1] = 1e-12
        with pytest.raises(DomainError, match="partner"):
            FockDensityMatrix(blocks=blocks, n_trunc=16)

    def test_blocks_keep_their_dtype(self):
        rho, _ = block_conditioning(0.6, 0.95, 0.3, 40)
        assert rho.blocks.dtype == np.float64
        complex_blocks = vacuum_density().blocks
        assert complex_blocks.dtype == np.complex128
        assert FockDensityMatrix(complex_blocks, 16).blocks.dtype \
            == np.complex128
        integer_blocks = complex_blocks.real.astype(int)
        assert FockDensityMatrix(integer_blocks, 16).blocks.dtype \
            == np.float64

    def test_correlator_allocates_less_than_a_block_array(self):
        # the correlator pulls the sign operator back through a view; it
        # builds no (2N-1, N, N) array, which at N = 60 is 3.43 MB.  Its
        # sign operator is built afresh on every call, so the peak counts
        # it; the warm-up only keeps numpy's one-time costs out.
        n_trunc = 60
        rho, _ = fock.lossy_click_conditioning(0.6, 0.95, 0.3, n_trunc)
        fock.fock_sign_correlation(rho, 0.0, -np.pi / 4, 1.0)
        tracemalloc.start()
        try:
            fock.fock_sign_correlation(rho, 0.0, -np.pi / 4, 0.95)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (2 * n_trunc - 1) * n_trunc * n_trunc * 8


SMALL_POINTS = [(0.4, 0.95, 0.3), (0.35, 0.9, 1.0)]


@pytest.fixture(scope="module", params=SMALL_POINTS)
def small_pair(request):
    """Heralded state, its click probability, the normalized dense state and
    its trace, and the block-stored state at N=20."""
    squeezing, transmittance, apd = request.param
    rho, p_click = fock.lossy_click_conditioning(squeezing, transmittance,
                                                 apd, 20)
    dense = dense_click_conditioned(squeezing, transmittance, apd, 20)
    p_dense = float(np.einsum("abab->", dense))
    block, _ = block_conditioning(squeezing, transmittance, apd, 20)
    return rho, p_click, dense / p_dense, p_dense, block


@pytest.fixture(scope="module")
def block_realistic():
    """Block-stored heralded state at the realistic operating point."""
    return block_conditioning(0.6, 0.95, 0.3, 40)[0]


@pytest.fixture(scope="module")
def block_cut_state():
    """Block-stored heralded state at the Wigner-cut operating point."""
    return block_conditioning(0.5, 0.95, 0.3, 40)[0]


class TestDenseReferences:
    def test_conditioning_matches_scatter_loop(self, small_pair):
        rho, p_click, dense, p_dense, block = small_pair
        assert np.max(np.abs(to_dense(block) - dense)) < 1e-12
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
            e_blocks = fock.fock_sign_correlation(rho, theta, phi, eta)
            e_dense = dense_sign_correlation(dense, theta, phi, eta)
            assert abs(e_blocks - e_dense) < 1e-12

    def test_wigner_matches_dense_contraction(self, small_pair):
        rho, _, dense, _, _ = small_pair
        pts = np.random.default_rng(11).normal(size=(12, 4))
        assert np.max(np.abs(fock.wigner_values(rho, pts)
                             - dense_wigner_values(dense, pts))) < 1e-12

    def test_realistic_point_at_full_truncation(self, realistic_params,
                                                fock_realistic,
                                                block_realistic):
        rho, p_click = fock_realistic
        dense = dense_click_conditioned(0.6, 0.95, 0.3, 40)
        p_dense = float(np.einsum("abab->", dense))
        dense /= p_dense
        assert np.max(np.abs(to_dense(block_realistic) - dense)) < 1e-12
        assert abs(p_click - p_dense) < 1e-12 * p_dense
        eta = realistic_params.homodyne_efficiency
        e_blocks = fock.fock_sign_correlation(rho, 0.0, -np.pi / 4, eta)
        e_dense = dense_sign_correlation(dense, 0.0, -np.pi / 4, eta)
        assert abs(e_blocks - e_dense) < 1e-12
        pts = np.random.default_rng(12).normal(size=(4, 4))
        assert np.max(np.abs(fock.wigner_values(rho, pts)
                             - dense_wigner_values(dense, pts))) < 1e-12

    def test_complex_blocks_match_dense_references(self, small_pair):
        # the heralded state rotated by e^{i theta n_A}: block entry (a, c)
        # picks up e^{i theta (a - c)}, which makes every block complex.  The
        # record stays real: the package rotates the measurement instead,
        # the angle of mode A for E and the phase-space point of mode A by
        # -theta for W
        rho, _, _, _, block = small_pair
        theta = 0.7
        idx = np.arange(block.n_trunc)
        rotated = FockDensityMatrix(
            block.blocks * np.exp(1j * theta * np.subtract.outer(idx, idx)),
            block.n_trunc)
        assert rotated.blocks.dtype == np.complex128
        dense = to_dense(rotated)
        for phi in (0.0, -np.pi / 4, 1.1):
            for eta in (1.0, 0.9):
                e_rotated = block_sign_correlation(rotated, 0.0, phi, eta)
                e_dense = dense_sign_correlation(dense, 0.0, phi, eta)
                assert abs(e_rotated - e_dense) < 1e-12
                e_plain = fock.fock_sign_correlation(rho, theta, phi, eta)
                assert abs(e_rotated - e_plain) < 1e-14
        pts = np.random.default_rng(14).normal(size=(12, 4))
        w_dense = dense_wigner_values(dense, pts)
        assert np.max(np.abs(block_wigner_values(rotated, pts) - w_dense)) \
            < 1e-12
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


def loop_wigner_values(rho, points):
    """`block_wigner_values` with the mode-B table stack reduced by
    `loop_block_reduce`."""
    return block_wigner_values(rho, points, reduce=loop_block_reduce)


#: (squeezing, transmittance, APD efficiency, homodyne efficiency) of the
#: small-P corner, where P is about 2e-13
SMALL_P_CORNER = (0.01, 0.999, 0.05, 0.9)


def seeded_heralded_states(n_trunc, count, seed):
    """Heralded states at seeded criterion-7 draws, as the package's record
    and as the block reference; the squeezing box shrinks with the
    truncation so that the tail fence passes."""
    rng = np.random.default_rng([seed, n_trunc])
    top = 0.65 if n_trunc >= 40 else 0.35
    for _ in range(count):
        draw = (rng.uniform(0.2, top), rng.uniform(0.9, 0.99),
                rng.uniform(0.1, 1.0), n_trunc)
        rho, p_click = fock.lossy_click_conditioning(*draw)
        block, p_block = block_conditioning(*draw)
        yield rho, p_click, block, p_block, rng.uniform(0.85, 1.0), rng


class TestBitwiseReductions:
    """The block reference is bitwise the slice-per-Delta reduction, and
    reproduces the pinned correlators of the block route; the package's
    observables agree with it within 1e-15.  The package's pull-back of
    the sign operator, folded and in commutator form, agrees with the
    recurrence route of the reference."""

    @pytest.mark.parametrize("eta, correlation, s_value", [
        (0.95, "0x1.01680d8108e67p-1", "0x1.01680d8108e66p+1"),
        (1.0, "0x1.03f1b4d4c7b4ep-1", "0x1.03f1b4d4c7b4ep+1")])
    def test_correlators_pinned(self, realistic_params, fock_realistic,
                                block_realistic, eta, correlation, s_value):
        angles = realistic_params.angles
        e_block = block_sign_correlation(block_realistic, 0.0, -np.pi / 4, eta)
        s_block = block_chsh(block_realistic, angles, eta)
        assert e_block == float.fromhex(correlation)
        assert s_block == float.fromhex(s_value)
        rho, _ = fock_realistic
        assert abs(fock.fock_sign_correlation(rho, 0.0, -np.pi / 4, eta)
                   - e_block) <= 1e-15
        assert abs(fock.fock_chsh(rho, angles, eta) - s_block) <= 1e-15

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

    @pytest.mark.parametrize("n_trunc", [16, 17, 40])
    def test_reduction_matches_loop_on_heralded_states(self, n_trunc):
        for _, _, block, _, eta, rng in seeded_heralded_states(n_trunc, 4, 19):
            sign = loop_sign_operator(n_trunc, eta)
            generic = rng.normal(size=(n_trunc, n_trunc))
            for op in (sign, generic + generic.T):
                assert np.array_equal(block_reduce(block.blocks, op),
                                      loop_block_reduce(block.blocks, op))

    def test_correlators_match_loop_on_seeded_states(self):
        angles = bell.DEFAULT_ANGLES
        for rho, _, block, _, eta, rng in seeded_heralded_states(40, 4, 23):
            sign = loop_sign_operator(40, eta)
            reduced = sign * loop_block_reduce(block.blocks, sign)
            theta, phi = rng.uniform(-np.pi, np.pi, 2)
            assert abs(fock.fock_sign_correlation(rho, theta, phi, eta)
                       - fock._phase_form(reduced, theta + phi)) <= 1e-15
            assert abs(fock.fock_chsh(rho, angles, eta)
                       - fock._phase_chsh(reduced, angles)) <= 2e-15

    def test_reduction_matches_loop_on_complex_blocks(self, small_pair):
        _, _, _, _, block = small_pair
        idx = np.arange(block.n_trunc)
        rotated = block.blocks * np.exp(0.7j * np.subtract.outer(idx, idx))
        sign = loop_sign_operator(20, 0.9)
        assert np.array_equal(block_reduce(rotated, sign),
                              loop_block_reduce(rotated, sign))
        rng = np.random.default_rng(29)
        z = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
        assert np.array_equal(block_reduce(block.blocks, z),
                              loop_block_reduce(block.blocks, z))
        # complex times complex: numpy's multiply loop may fuse the
        # multiply-add of each product where the contraction rounds both
        # products, so the two agree to rounding, not bitwise
        op = z + z.conj().T
        assert np.max(np.abs(block_reduce(rotated, op)
                             - loop_block_reduce(rotated, op))) < 1e-15

    def test_reduction_matches_loop_on_table_stack(self, block_realistic):
        pts = np.random.default_rng(31).normal(size=(7, 2))
        tables = fock.wigner_pair_table(40, pts[:, 0], pts[:, 1])
        assert np.array_equal(block_reduce(block_realistic.blocks, tables),
                              loop_block_reduce(block_realistic.blocks, tables))

    def test_wigner_matches_loop(self, fock_realistic, fock_cut_state,
                                 block_realistic, block_cut_state):
        pts = np.random.default_rng(37).normal(size=(9, 4))
        cut = np.linspace(-3.0, 3.0, 41)[:, None] \
            * np.array([1.0, 0.0, -1.0, 0.0]) / np.sqrt(2.0)
        for (rho, _), block in ((fock_realistic, block_realistic),
                                (fock_cut_state, block_cut_state)):
            for points in (pts, cut):
                reference = loop_wigner_values(block, points)
                assert np.array_equal(block_wigner_values(block, points),
                                      reference)
                assert np.max(np.abs(fock.wigner_values(rho, points)
                                     - reference)) <= 1e-15

    def test_reduction_writes_no_input(self, block_realistic):
        sign = loop_sign_operator(40, 0.9)
        kept = sign.copy()
        sign.setflags(write=False)
        assert not partner_view(sign).flags.writeable
        assert np.array_equal(block_reduce(block_realistic.blocks, sign),
                              loop_block_reduce(block_realistic.blocks, kept))
        assert np.array_equal(sign, kept)

    def test_partner_view(self):
        # V[a, w, c] = O[N - 1 - w, c - a + N - 1 - w], zero off the grid
        n = 16
        op = np.arange(n * n, dtype=float).reshape(n, n) + 1.0
        view = partner_view(op)
        a, w, c = np.meshgrid(*(np.arange(n),) * 3, indexing="ij")
        b, d = n - 1 - w, c - a + n - 1 - w
        inside = (d >= 0) & (d < n)
        assert view.shape == (n, n, n)
        assert np.array_equal(view[inside], op[b[inside], d[inside]])
        assert not np.any(view[~inside])


def exact_success_prob(squeezing, transmittance, apd_efficiency, n_trunc):
    """sum_{n < N} g_n^2 q_n^2 at 40 digits, q_n = sum_k C(n, k) T^(n-k)
    (1-T)^k (1 - (1 - eta)^k)."""
    with mpmath.workdps(40):
        lam, t, eta = (mpmath.mpf(v) for v in
                       (squeezing, transmittance, apd_efficiency))
        total = mpmath.mpf(0)
        for n in range(n_trunc):
            q = mpmath.fsum(mpmath.binomial(n, k) * t ** (n - k) * (1 - t) ** k
                            * (1 - (1 - eta) ** k) for k in range(1, n + 1))
            total += (1 - lam ** 2) * lam ** (2 * n) * q * q
        return float(total)


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
    def test_matches_block_reference(self, n_trunc):
        # seeded draws and the small-P corner: E and W within 1e-15, P
        # within 1e-15 relative of the block route
        corner = SMALL_P_CORNER[:3] + (n_trunc,)
        rho, p_click = fock.lossy_click_conditioning(*corner)
        block, p_block = block_conditioning(*corner)
        states = [(rho, p_click, block, p_block, SMALL_P_CORNER[3],
                   np.random.default_rng([43, n_trunc]))]
        states += seeded_heralded_states(n_trunc, 6, 47)
        for rho, p_click, block, p_block, eta, rng in states:
            assert abs(p_click - p_block) <= 1e-15 * p_block
            for theta, phi in rng.uniform(-np.pi, np.pi, (3, 2)):
                assert abs(fock.fock_sign_correlation(rho, theta, phi, eta)
                           - block_sign_correlation(block, theta, phi, eta)) \
                    <= 1e-15
            pts = rng.normal(size=(9, 4))
            assert np.max(np.abs(fock.wigner_values(rho, pts)
                                 - block_wigner_values(block, pts))) <= 1e-15

    @pytest.mark.parametrize("params", [(0.6, 0.95, 0.3), SMALL_P_CORNER[:3],
                                        (0.45, 0.99, 0.9)],
                             ids=["realistic", "small-P", "high-eta"])
    def test_success_prob_matches_forty_digits(self, params):
        # the block route's trace was 7.2e-15 off in the small-P corner
        _, p_click = fock.lossy_click_conditioning(*params, 40)
        exact = exact_success_prob(*params, 40)
        assert abs(p_click - exact) <= 10 * np.finfo(float).eps * exact

    def test_fence_reads_kept_mode_distribution(self, monkeypatch,
                                                block_realistic):
        # the four values the herald hands the fence sum to the top-layer
        # mass of the block reference's photon-number distribution
        seen = []
        monkeypatch.setattr(fock, "_check_truncation",
                            lambda top, n_trunc: seen.append(top))
        fock.lossy_click_conditioning(0.6, 0.95, 0.3, 40)
        assert len(seen) == 1 and len(seen[0]) == 4
        expected = kept_mode_tail(photon_numbers(block_realistic.blocks, 40),
                                  40)
        assert abs(seen[0].sum() - expected) <= 1e-15 * expected

    def test_large_truncation(self):
        # lambda = 0.95 at N = 300, where the blocks would take 1.2 GB:
        # conditioning and one correlator peak under 10 MB and agree with
        # the closed form.  The warm-up keeps numpy's one-time costs out.
        params = bell.ExperimentParams(0.95, 0.95, 0.3, 0.95)
        theta, _, phi, _ = params.angles
        rho, _ = fock.lossy_click_conditioning(0.6, 0.95, 0.3, 40)
        fock.fock_sign_correlation(rho, theta, phi, 0.95)
        tracemalloc.start()
        try:
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
        # every kind of click weights, within the 1e-14 relative accuracy
        # of log-space tap tables; on/off detectors of efficiency eta_apd
        # fold into on/off detectors of efficiency p eta_apd
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
        (0.85, 0.93, 0.34, 130, 0.61), (0.85, 0.6, 0.7, 130, 0.999999)],
        ids=["small-P", "small-P-lossy", "realistic", "realistic-ideal",
             "high-squeezing", "high-squeezing-near-ideal"])
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
        monkeypatch.setattr(fock, "tap_amplitude_table", None)
        pulled = fock._pull_back_sign(rho.tap, rho.weights)
        coeffs = rho.amplitudes
        assert np.array_equal(fock._sign_reduced(rho, 1.0),
                              np.outer(coeffs, coeffs) * pulled * pulled
                              / rho.p_click)

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


#: rows whose block-reference tail lies within a factor of 2 of
#: TAIL_TOLERANCE, at 0.7 and 1.4 times it
NEAR_TOLERANCE_ROWS = (
    (0.39172, 0.9, 0.5, 16), (0.403585, 0.9, 0.5, 16),
    (0.727291, 0.95, 0.3, 40), (0.734911, 0.95, 0.3, 40),
    (0.875112, 0.99, 0.9, 90), (0.879069, 0.99, 0.9, 90),
    (0.911065, 0.999, 0.05, 130), (0.9139, 0.999, 0.05, 130))


def block_tail(squeezing, transmittance, apd_efficiency, n_trunc):
    """Top-layer mass of the block reference's normalized photon-number
    distribution."""
    blocks = click_conditioned_blocks(
        squeezing, transmittance, fock.click_weights(apd_efficiency, n_trunc))
    probs = photon_numbers(blocks, n_trunc)
    return kept_mode_tail(probs / probs.sum(), n_trunc)


def direct_pair_projection(squeezing, transmittance, n_trunc):
    """Photon-pair projected Schmidt vector built from the k = 1 column of
    the tap table and normalized by its own norm."""
    coeff = fock.tmsv_amplitudes(squeezing, n_trunc)
    table = fock.tap_amplitude_table(transmittance, n_trunc)
    diag = coeff[1:] * table[1:, 1] ** 2
    return np.r_[diag / np.linalg.norm(diag), 0.0]


class TestHerald:
    """One herald for both detector models: its fence reads four rows of
    the click table, and photon-pair projection is the weight w = e_1."""

    def test_fence_matches_block_tail(self, monkeypatch):
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
            expected = block_tail(*row)
            if expected > 1e-280:
                assert abs(tail - expected) <= 1e-15 * expected, row
            if expected > fock.TAIL_TOLERANCE:
                refused += 1
                with pytest.raises(TruncationError):
                    fock.lossy_click_conditioning(*row)
            else:
                fock.lossy_click_conditioning(*row)
        near = [block_tail(*row) / fock.TAIL_TOLERANCE
                for row in NEAR_TOLERANCE_ROWS]
        assert all(0.5 <= ratio <= 2.0 for ratio in near)
        assert 0 < refused < len(rows)

    def test_block_reference_refuses_like_the_package(self):
        # the test-side density class fences its own two-mode tail and
        # raises the package's TruncationError text
        with pytest.raises(TruncationError) as package:
            fock.lossy_click_conditioning(0.6, 0.95, 0.3, 16)
        with pytest.raises(TruncationError) as block:
            block_conditioning(0.6, 0.95, 0.3, 16)
        assert str(block.value) == str(package.value)

    def test_pair_projection_matches_direct_construction(self):
        rng = np.random.default_rng(2202)
        for _ in range(40):
            squeezing = rng.uniform(0.01, 0.9)
            transmittance = rng.uniform(0.5, 0.9999)
            n_trunc = int(rng.integers(40, 91))
            args = (squeezing, transmittance, n_trunc)
            state = fock.pair_projected_state(*args)
            assert state.shape == (n_trunc,) and state[-1] == 0.0
            assert np.max(np.abs(state - direct_pair_projection(*args))) \
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
