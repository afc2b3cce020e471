"""Pulsed event-ready protocol simulation.

Simulates the three-party experiment: heralding double clicks at the
source, a fair coin for the setting at each homodyne station, quadrature
sampling from the heralded joint distribution, sign binning, and CHSH
estimation with propagated standard errors.

Randomness is organized around counter-based Philox streams, one per
party per fixed-size event block, so the heralding, Alice and Bob
histories are independent and the results do not depend on the order in
which blocks are simulated.  Within a block, the heralding stream gives
the pulse gaps, the Alice and Bob streams the settings, and the
quadrature stream serves the four setting cells in turn, (theta1, phi1),
(theta1, phi2), (theta2, phi1), (theta2, phi2): each cell draws exactly
its event count from it by chunked rejection sampling (`_draw`) against
one inflated Gaussian, the marginal's widest term (`build_envelope`).

Both work in the envelope's whitened frame x = L z, with L the Cholesky
factor of the envelope covariance, where target/envelope is a short sum
of centred Gaussians in z, r(z) = sum_j a_j exp(-z^T B_j z / 2).  The
envelope's bound is the peak of r, found by a coarse grid search refined
around its best points, and a proposal z is accepted by comparing r(z)
alone with the bound: drawing evaluates neither density.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import conditioning
from .bell import (BellResult, BivariateMixture, ExperimentParams, chsh_value,
                   rotated_marginal)
from .errors import DomainError, EnvelopeError

#: events processed per RNG block; the block is the reproducibility atom
BLOCK_EVENTS = 4096

#: most proposals the rejection sampler evaluates at once
CHUNK = 16_384

#: abort threshold on the rejection acceptance rate
MIN_ACCEPTANCE = 0.01

#: covariance inflation of the envelope relative to the widest mixture term
ENVELOPE_INFLATION = 2.0

#: points per axis of the coarse grid that seeds the peak search of r
ENVELOPE_GRID = 41

#: best coarse-grid points the peak search refines
ENVELOPE_STARTS = 4

#: the envelope's bound over the peak of r that the search finds
ENVELOPE_HEADROOM = 1.05

_ROLE_SOPHIE, _ROLE_ALICE, _ROLE_BOB, _ROLE_QUAD = range(4)


@dataclass(frozen=True)
class ProtocolConfig:
    """Settings for one simulated data-taking campaign.

    Each station picks each of its two angles with probability 1/2.
    """

    params: ExperimentParams
    n_target_events: int
    seed: int
    rep_rate: float = 1e6

    def __post_init__(self):
        _check_integer("n_target_events", self.n_target_events, 1)
        _check_integer("seed", self.seed, 0)
        if not _positive_real(self.rep_rate):
            raise DomainError(f"rep_rate must be finite and positive, "
                              f"got {self.rep_rate}")


def _check_integer(name: str, value, least: int) -> None:
    """DomainError naming the field unless value is an integer >= least."""
    if not (isinstance(value, numbers.Integral) and value >= least):
        raise DomainError(f"{name} must be an integer >= {least}, "
                          f"got {value!r}")


def _positive_real(value) -> bool:
    """True for a finite, positive real number."""
    return (isinstance(value, numbers.Real) and np.isfinite(value)
            and value > 0)


@dataclass(frozen=True)
class MCResult:
    """Finite-statistics CHSH estimate from one simulated campaign.

    counts and product_sums hold, per angle-pair cell, the number of
    events and the sum of the +-1 outcome products.  s_available is False
    when some cell collected no events, which a short campaign can leave
    empty; S_hat and stderr_S are then NaN.
    """

    S_hat: float
    stderr_S: float
    counts: np.ndarray          # (2, 2) ints
    product_sums: np.ndarray    # (2, 2) floats
    wall_sim_time: float
    P_hat: float
    total_pulses: int
    s_available: bool


@dataclass(frozen=True)
class Envelope(BivariateMixture):
    """One Gaussian (weights (1,), covariances (1, 2, 2)) that dominates a
    signed marginal after scaling by `bound`.

    `chol` is its Cholesky factor L.  A proposal is x = L z with z
    standard normal, and at x the target over the envelope is
    r(z) = sum_j scales[j] exp(-z^T forms[j] z / 2), one term per mixture
    term.  `accept_rate` is the exact expected acceptance 1/bound.
    """

    chol: np.ndarray         # (2, 2) lower Cholesky factor
    scales: np.ndarray       # (terms,) a_j
    forms: np.ndarray        # (terms, 2, 2) B_j
    bound: float

    @property
    def accept_rate(self) -> float:
        return 1.0 / self.bound


def _ratio(scales: np.ndarray, forms: np.ndarray, z: np.ndarray,
           work: np.ndarray | None = None) -> np.ndarray:
    """r(z) = sum_j scales[j] exp(-z^T forms[j] z / 2) at the whitened
    points z, shape (2, n).

    work, if given, is a flat array of at least (4 + terms) n floats that
    holds the temporaries and the result; `_draw` reuses one for every
    chunk, because fresh chunk-sized arrays cost a page fault per page.
    """
    terms, n = len(scales), z.shape[1]
    if work is None:
        work = np.empty((4 + terms) * n)
    moments = work[:3 * n].reshape(3, n)
    values = work[3 * n:(3 + terms) * n].reshape(terms, n)
    np.multiply(z[0], z[0], out=moments[0])
    np.multiply(z[0], z[1], out=moments[1])
    np.multiply(z[1], z[1], out=moments[2])
    coeffs = -0.5 * np.stack([forms[:, 0, 0], 2.0 * forms[:, 0, 1],
                              forms[:, 1, 1]], axis=-1)
    np.einsum("jk,kn->jn", coeffs, moments, out=values)
    np.exp(values, out=values)
    return np.einsum("j,jn->n", scales, values,
                     out=work[(3 + terms) * n:(4 + terms) * n])


def _peak_ratio(scales: np.ndarray, forms: np.ndarray) -> float:
    """The largest value of r(z) = sum_j scales[j] exp(-z^T forms[j] z / 2),
    given forms[j] >= I for every positive scales[j].

    Then r(z) <= sum_{scales > 0} scales * exp(-|z|^2 / 2), which is below
    1 <= sup r (target and envelope both integrate to 1) outside the disc
    |z|^2 <= 2 log sum_{scales > 0} scales, so the peak lies in the disc.
    r is even, so a grid of ENVELOPE_GRID points per axis over the half
    z_0 >= 0 of the disc's square finds its cells.  Each of the
    ENVELOPE_STARTS best points then moves to the best of a 5x5 grid
    around it, of half the previous spacing, ten times over: the last grid
    is 1024 times finer than the first.
    """
    radius = np.sqrt(2.0 * np.log(scales[scales > 0].sum()))
    axis, step = np.linspace(-radius, radius, ENVELOPE_GRID, retstep=True)
    z = np.stack(np.meshgrid(axis[ENVELOPE_GRID // 2:], axis,
                             indexing="ij")).reshape(2, -1)
    best = np.argsort(_ratio(scales, forms, z))[-ENVELOPE_STARTS:]
    centres = z[:, best, None]
    offsets = np.mgrid[-2:3, -2:3].reshape(2, 1, 25)
    for _ in range(10):
        step /= 2.0
        points = centres + step * offsets                  # (2, starts, 25)
        ratio = _ratio(scales, forms, points.reshape(2, -1))
        ratio = ratio.reshape(ENVELOPE_STARTS, 25)
        centres = np.take_along_axis(
            points, ratio.argmax(axis=1)[None, :, None], axis=2)
    # each grid holds its centre, so the last one holds the best value seen
    return float(ratio.max())


def build_envelope(marginal: BivariateMixture) -> Envelope:
    """Construct the dominating Gaussian and its scaling constant.

    Projecting tap modes onto vacuum only narrows a heralded term,
    Sigma_j <= Sigma_0 in the Loewner order, and a rotation scales every
    off-diagonal by one cos(theta + phi), which keeps the order.  So the
    term of largest trace, Sigma_w, inflated by ENVELOPE_INFLATION, has
    fatter tails than every positive term; EnvelopeError if a positive
    term is not below it.  In the whitened frame x = L z, L L^T the
    envelope covariance 2 Sigma_w, target/envelope is
    r(z) = sum_j a_j exp(-z^T B_j z / 2) with B_j = L^T Sigma_j^-1 L - I and
    a_j = w_j sqrt(det(2 Sigma_w) / det Sigma_j), and the Loewner order
    gives B_j >= I for every positive term.  The scaling constant is the
    peak of r that `_peak_ratio` finds, with ENVELOPE_HEADROOM.
    """
    covs = marginal.covariances
    pos = np.flatnonzero(marginal.weights > 0)
    if not pos.size:
        raise EnvelopeError("signed mixture has no positive terms")
    widest = covs[np.argmax(np.trace(covs, axis1=1, axis2=2))]
    if np.any(np.linalg.eigvalsh(widest - covs[pos])[:, 0] < 0.0):
        raise EnvelopeError("a positive term is not below the widest term "
                            "in the Loewner order; the tail bound fails")
    env_cov = ENVELOPE_INFLATION * widest
    chol = np.linalg.cholesky(env_cov)
    forms = chol.T @ np.linalg.solve(covs, chol) - np.eye(2)
    scales = marginal.weights * (chol[0, 0] * chol[1, 1]
                                 / np.sqrt(np.linalg.det(covs)))
    bound = ENVELOPE_HEADROOM * _peak_ratio(scales, forms)
    if not np.isfinite(bound) or bound <= 0:
        raise EnvelopeError("could not bound the target/envelope ratio")
    if 1.0 / bound < MIN_ACCEPTANCE:
        raise EnvelopeError(
            f"envelope acceptance rate 1/{bound:.1f} is below "
            f"{MIN_ACCEPTANCE:.0%}; the dominating constant is unusable")
    return Envelope(weights=np.ones(1), covariances=env_cov[None], chol=chol,
                    scales=scales, forms=forms, bound=bound)


def _draw(env: Envelope, n: int, rng: np.random.Generator) -> np.ndarray:
    """n samples of the marginal that env dominates, by rejection, shape
    (n, 2).

    Proposes in chunks of at most CHUNK points.  A chunk for m missing
    samples holds bound * (m + 3 sqrt(m)) proposals, which at the
    acceptance rate 1/bound yield them with three standard deviations to
    spare (bound >= 1 for any envelope `build_envelope` makes, so a chunk
    is never empty).  It draws the accept uniform u of each point, then a
    (2, size) array of standard normals z, and keeps z where
    u * bound < r(z); only the kept points are mapped to x = L z.

    Raises EnvelopeError when r(z) exceeds the bound at a proposal (the
    peak search of `build_envelope` missed a peak, and the samples would
    be biased there) or when the observed acceptance falls below
    MIN_ACCEPTANCE after 10,000 proposals.
    """
    l00, l10, l11 = env.chol[(0, 1, 1), (0, 0, 1)]
    out = np.empty((n, 2))
    # one chunk's accept uniforms, normals and `_ratio` temporaries
    work = np.empty((7 + len(env.scales)) * CHUNK)
    filled = proposed = accepted = 0
    while filled < n:
        missing = n - filled
        size = min(CHUNK, int(env.bound * (missing + 3.0 * np.sqrt(missing))))
        accept = rng.random(out=work[:size])
        z = rng.standard_normal(out=work[size:3 * size]).reshape(2, size)
        ratio = _ratio(env.scales, env.forms, z, work[3 * size:])
        if np.any(ratio > env.bound):
            raise EnvelopeError(
                f"target/envelope ratio exceeds the envelope bound "
                f"{env.bound:.3f} at {int(np.count_nonzero(ratio > env.bound))}"
                f" of {size} proposals; the peak search missed a peak")
        accept *= env.bound
        keep = np.flatnonzero(accept < ratio)
        take = keep[:missing]
        z0, z1 = z[:, take]
        out[filled:filled + len(take), 0] = l00 * z0
        out[filled:filled + len(take), 1] = l10 * z0 + l11 * z1
        filled += len(take)
        proposed += size
        accepted += len(keep)
        if proposed >= 10_000 and accepted < MIN_ACCEPTANCE * proposed:
            raise EnvelopeError(
                f"observed acceptance {accepted / proposed:.2%} below "
                f"{MIN_ACCEPTANCE:.0%} after {proposed} proposals")
    return out


def sample_joint_quadratures(marginal: BivariateMixture, n: int,
                             seed: int) -> np.ndarray:
    """Draw n quadrature pairs from a signed-mixture joint distribution.

    Chunked rejection sampling (`_draw`) against the Gaussian envelope;
    the stream is fully determined by the seed.
    """
    _check_integer("sample count", n, 1)
    _check_integer("seed", seed, 0)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    return _draw(build_envelope(marginal), n, rng)


def _block_rng(seed: int, role: int, block: int) -> np.random.Generator:
    seq = np.random.SeedSequence(seed, spawn_key=(role, block))
    return np.random.Generator(np.random.Philox(seq))


def _simulate_block(seed: int, block: int, size: int, success_prob: float,
                    envelopes: list[Envelope]):
    """One block of heralded events: pulses burned, settings, sign products."""
    sophie = _block_rng(seed, _ROLE_SOPHIE, block)
    alice = _block_rng(seed, _ROLE_ALICE, block)
    bob = _block_rng(seed, _ROLE_BOB, block)
    quad = _block_rng(seed, _ROLE_QUAD, block)

    # pulses until each double click: inverse-CDF geometric, support >= 1
    u = sophie.random(size)
    gaps = np.floor(np.log1p(-u) / np.log1p(-success_prob)).astype(np.int64) + 1
    set_a = (alice.random(size) >= 0.5).astype(np.int64)
    set_b = (bob.random(size) >= 0.5).astype(np.int64)

    # settings cell j * 2 + k draws exactly its events' samples
    counts = np.bincount(set_a * 2 + set_b, minlength=4)
    sums = np.zeros(4)
    for idx in range(4):
        samples = _draw(envelopes[idx], int(counts[idx]), quad)
        signs = np.where(samples >= 0.0, 1.0, -1.0)
        sums[idx] = float((signs[:, 0] * signs[:, 1]).sum())
    return int(gaps.sum()), counts.reshape(2, 2), sums.reshape(2, 2)


def run_protocol(config: ProtocolConfig) -> MCResult:
    """Simulate pulses until the target number of heralded events.

    Each pulse heralds with the pipeline's double-click probability; on
    success both parties toss a fair coin for their setting and a
    quadrature sample is taken from the corresponding joint marginal.
    Each block of BLOCK_EVENTS events draws from its own streams, so the
    totals do not depend on the order in which the blocks are simulated.
    """
    params = config.params
    state = conditioning.conditional_state(params.output_covariance())
    theta = (params.angles[0], params.angles[1])
    phi = (params.angles[2], params.angles[3])
    envelopes = [build_envelope(rotated_marginal(state, theta[j], phi[k]))
                 for j in range(2) for k in range(2)]

    n = config.n_target_events
    results = [_simulate_block(config.seed, block,
                               min(BLOCK_EVENTS, n - block * BLOCK_EVENTS),
                               state.success_prob, envelopes)
               for block in range((n + BLOCK_EVENTS - 1) // BLOCK_EVENTS)]
    total_pulses, counts, sums = (sum(parts) for parts in zip(*results))

    populated = counts > 0
    correlators = np.divide(sums, counts, out=np.zeros_like(sums),
                            where=populated)
    s_available = bool(populated.all())
    if s_available:
        s_hat = float(chsh_value(correlators))
        variance = float(((1.0 - correlators ** 2) / counts)[populated].sum())
        stderr = float(np.sqrt(variance))
    else:
        s_hat, stderr = float("nan"), float("nan")
    return MCResult(S_hat=s_hat, stderr_S=stderr, counts=counts,
                    product_sums=sums,
                    wall_sim_time=total_pulses / config.rep_rate,
                    P_hat=n / total_pulses, total_pulses=total_pulses,
                    s_available=s_available)


def acquisition_time(bell: BellResult, rep_rate: float,
                     target_stderr_s: float) -> float:
    """Seconds of data taking needed to reach a CHSH standard error.

    With fair setting coins each cell holds a quarter of the events, so
    the per-event estimator variance is sigma0^2 = sum over cells of
    (1 - E^2) / 0.25, and the answer is
    (sigma0 / target)^2 / (P * rep_rate) with P = bell.success_prob.
    """
    if not all(map(_positive_real, (bell.success_prob, rep_rate,
                                    target_stderr_s))):
        raise DomainError(
            "all acquisition-time inputs must be finite and positive")
    sigma0_sq = float(((1.0 - bell.correlators ** 2) / 0.25).sum())
    n_events = sigma0_sq / target_stderr_s ** 2
    return n_events / (bell.success_prob * rep_rate)
