"""Photon-number references for the Fock route.

The definition route: Hermite functions on a glued Gauss-Legendre grid,
the heralded state scattered into a dense (N, N, N, N) array term by term
over the tap counts, homodyne loss through its Kraus operators, the joint
quadrature density integrated against the signs, and the Wigner function
as a full contraction with Laguerre tables from scipy.  The ladder and
quadrature operators and the second moments of a Schmidt state are the
ground truth for the covariance constructors.  The sign operator
below efficiency 1 comes from its Gaussian-overlap recurrence; pulled back
term by term it is the float twin of `exact_fock_correlation`, which
covers seeded rows up to N = 130 where the oracle is too slow.  The
oracles evaluate the same definitions at 40 to 45 digits in mpmath and
decimal.  The tests hold the package's herald, pull-back, correlators,
Wigner function and tap tables to these.  The ideal sign pull-back and
the herald's tail fence are also held byte for byte to the same
arithmetic on tables gathered per call.
"""

import decimal
import functools
import math
from dataclasses import replace
from decimal import Decimal

import mpmath
import numpy as np
from mpmath.calculus.quadrature import GaussLegendre
from scipy.special import erf, eval_genlaguerre, gammaln

from cvbell import fock, inputs

# ---------------------------------------------------------------------------
# sign operators: the Hermite functions on a glued Gauss-Legendre grid, and
# the Gaussian-overlap recurrence of the erf-smoothed operator, which the
# folded closed form of the package replaces

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


def closed_sign_operator(n_trunc):
    """The package's ideal sign operator S: its pull-back with w = e_0 and
    t(n, 0) = 1, a transparent tap that always heralds, is S itself."""
    return fock._pull_back_sign(1.0, np.eye(n_trunc)[0])


def gathered_pull_back_sign(tap, weights):
    """`fock._pull_back_sign` with its tables gathered on every call: the
    Hermite values v = h(0) and derivatives u = h'(0) read at n - k
    through an N x N index table whose negative entries wrap, and
    U V^T - V U^T divided by n - m off the diagonal only, into zeros.
    The package's Toeplitz views must give these bytes."""
    n_trunc = len(weights)
    idx = np.arange(n_trunc)
    v = np.zeros(n_trunc)
    v[::2] = np.cumprod(np.append(np.pi ** -0.25,
                                  -np.sqrt(idx[1:-1:2] / idx[2::2])))
    u = np.sqrt(2.0 * idx) * np.roll(v, 1)
    kept = idx[:, None] - idx
    pair = (tap * u[kept]) @ (tap * weights * v[kept]).T
    return np.divide(pair - pair.T, kept, out=np.zeros(pair.shape),
                     where=kept != 0)


def tril_fence_top(state):
    """What `fock._herald` hands its tail fence for a record, with the
    lower triangle of the click table's bottom-left 4 x 4 corner taken by
    np.tril."""
    clicked = state.tap * state.tap * state.weights
    clicks = clicked.sum(axis=1)
    high = np.tril(clicked[-4:, :4]).sum(axis=1)
    return (state.amplitudes[-4:] ** 2 * high * (2.0 * clicks[-4:] - high)
            / state.p_click)


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


def folded_record(state, homodyne_efficiency):
    """The record with the homodyne loss folded into its tap: the tap table
    of T eta, and click weights thinned by the share
    p = (1 - T) / (1 - T eta) of the lost photons that the tap takes."""
    t, eta = state.transmittance, homodyne_efficiency
    thinning = fock.tap_amplitude_table(t * (1 - eta) / (1 - t * eta),
                                        state.n_trunc) ** 2
    return replace(state, tap=fock.tap_amplitude_table(t * eta, state.n_trunc),
                   transmittance=t * eta, weights=thinning @ state.weights)


# ---------------------------------------------------------------------------
# dense (n, n, n, n) references: the direct photon-number-basis computations


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


def kept_mode_distribution(squeezing, transmittance, apd_efficiency, n_trunc):
    """Photon-number distribution P(n_A, n_B) of the heralded kept modes,
    C^T diag(g^2) C normalized, with C[n, a] = w(n - a) t(n, n - a)^2 the
    probability that n source photons leave a in the kept mode and click
    the detector of its tap."""
    idx = np.arange(n_trunc)
    tapped = idx[:, None] - idx
    clicks = (fock.tap_amplitude_table(transmittance, n_trunc) ** 2
              * fock.click_weights(apd_efficiency, n_trunc))
    kept = np.where(tapped >= 0, clicks[idx[:, None], tapped], 0.0)
    source = fock.tmsv_amplitudes(squeezing, n_trunc) ** 2
    probs = kept.T @ (source[:, None] * kept)
    return probs / probs.sum()


def kept_mode_tail(probs, n_trunc):
    """Probability that either mode of P(n_A, n_B) holds n_trunc - 4 or more
    photons, summed over the two-mode array."""
    cut = n_trunc - 4
    return float(probs[cut:].sum()) + float(probs[:cut, cut:].sum())


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


def dense_wigner_values(rho, points):
    """Two-mode Wigner function by a full contraction with the tables of
    `loop_wigner_pair_table` for both modes."""
    n = rho.shape[0]
    table_a = loop_wigner_pair_table(n, points[:, 0], points[:, 1])
    table_b = loop_wigner_pair_table(n, points[:, 2], points[:, 3])
    partial = np.einsum("abcd,aci->bdi", rho, table_a, optimize=True)
    return np.einsum("bdi,bdi->i", partial, table_b).real


def dense_diag_sign_correlation(diag, angle_sum, x, w, h):
    """Sign correlator of sum_n g_n |n,n> from its wavefunction on the grid."""
    phased = diag * np.exp(1j * angle_sum * np.arange(diag.size))
    wave = np.einsum("n,nx,ny->xy", phased, h, h)
    dens = np.abs(wave) ** 2
    signed = w * np.sign(x)
    return float(signed @ dens @ signed)


def ideal_subtracted_state(squeezing, transmittance,
                           n_trunc=fock.DEFAULT_TRUNCATION):
    """Normalized (n+1)(T*lambda)^n |n,n> state and its projection fidelity.

    Returns the Schmidt coefficients of the closed-form photon-subtracted
    state together with its overlap fidelity (g_proj . g)^2 against the
    exact two-beam-splitter photon-pair projection at the same finite
    transmittance.
    """
    n = np.arange(n_trunc)
    coeffs = (n + 1.0) * (transmittance * squeezing) ** n
    coeffs = fock._check_schmidt(coeffs / np.linalg.norm(coeffs))
    projected = fock.pair_projected_state(squeezing, transmittance, n_trunc)
    return coeffs, float((projected @ coeffs) ** 2)


# ---------------------------------------------------------------------------
# quadrature moments: the ladder operator on the truncated basis and the
# brute-force second moments of a Schmidt state, the ground truth for the
# covariance constructors


def ladder(n_trunc: int) -> np.ndarray:
    """Annihilation operator on the truncated basis, shape (N, N) for every
    N >= 0."""
    n_trunc = inputs.integer("truncation", n_trunc, 0)
    idx = np.arange(n_trunc)
    a = np.zeros((n_trunc, n_trunc))
    a[idx[:-1], idx[1:]] = np.sqrt(idx[1:])
    return a


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
    coeffs = fock._check_schmidt(coeffs)
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


# ---------------------------------------------------------------------------
# oracles at 40 to 45 digits

#: pi to 50 significant digits
PI_50 = Decimal("3.1415926535897932384626433832795028841971693993751")


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
        # w(0) = 0 apart: at unit efficiency it would be Decimal 0 ** 0,
        # which decimal refuses
        w = [Decimal(0)] + [one - (one - eta_apd) ** k for k in range(1, n)]
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


def exact_tap_amplitude_table(transmittance, n_trunc, rows=None):
    """Beam-splitter amplitudes (-1)^k sqrt(C(m, k) T^(m-k) (1-T)^k) at 40
    digits, for the photon numbers m in rows (every m < n_trunc by
    default), one table row each.  Each power of T and 1 - T is taken
    once; the binomials run along a row as C(m, k + 1) = C(m, k) (m - k)
    / (k + 1), within 2 k 1e-40 relative of the exact integers and
    several times faster than converting them at m in the thousands."""
    rows = range(n_trunc) if rows is None else rows
    with mpmath.workdps(40):
        t = mpmath.mpf(transmittance)
        kept = [t ** j for j in range(n_trunc)]
        tapped = [(1 - t) ** k for k in range(n_trunc)]
        table = np.zeros((len(rows), n_trunc))
        for row, m in zip(table, rows):
            binomial = mpmath.mpf(1)
            for k in range(m + 1):
                row[k] = (-1) ** k * mpmath.sqrt(
                    binomial * kept[m - k] * tapped[k])
                binomial = binomial * (m - k) / (k + 1)
        return table


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


def _pair_coefficients(product, n_trunc):
    """(n + 1) x^n for n < N - 1, then 0, of the Decimal x = lambda T: the
    unnormalized Schmidt vector of photon-pair projection, in the caller's
    decimal context."""
    return [(n + 1) * product ** n for n in range(n_trunc - 1)] + [Decimal(0)]


def exact_pair_projection(squeezing, transmittance, n_trunc):
    """Schmidt vector of photon-pair projection at 45 digits, of the exact
    product lambda T of the float inputs."""
    with decimal.localcontext(decimal.Context(prec=45)):
        coeffs = _pair_coefficients(
            Decimal(squeezing) * Decimal(transmittance), n_trunc)
        norm = sum(c * c for c in coeffs).sqrt()
        return np.array([float(c / norm) for c in coeffs])


def exact_pair_chsh(product, n_trunc):
    """S at the paper's angles of the pair-projected state, whose Schmidt
    vector is proportional to (n + 1)(lambda T)^n for n < N - 1, with the
    ideal sign operator, at 45 digits.  The angle sums are -pi/4, pi/4
    (twice) and 3 pi/4, whose cosines come from mpmath."""
    sign = exact_ideal_sign_entries(n_trunc)
    with decimal.localcontext(decimal.Context(prec=45)):
        coeffs = _pair_coefficients(Decimal(product), n_trunc)
        norm = sum(c * c for c in coeffs)

        def correlator(quarters):
            with mpmath.workdps(50):
                cosines = [Decimal(mpmath.nstr(mpmath.cos(
                    quarters * mpmath.pi / 4 * d), 50)) for d in range(n_trunc)]
            return sum(coeffs[a] * coeffs[c] * sign[a][c] ** 2
                       * cosines[abs(a - c)] for a in range(n_trunc)
                       for c in range(n_trunc) if (a - c) % 2) / norm

        return correlator(-1) + 2 * correlator(1) - correlator(3)
