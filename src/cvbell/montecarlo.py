"""Pulsed event-ready protocol simulation.

Simulates the three-party experiment: heralding double clicks at the
source, independent random angle choices at the two homodyne stations,
quadrature sampling from the heralded joint distribution, sign binning,
and CHSH estimation with propagated standard errors.

Randomness is organized around counter-based Philox streams, one per
party per fixed-size event block, so the heralding, Alice and Bob
histories are independent and the results do not depend on the order in
which blocks are simulated.  Within a block, the heralding stream gives
the pulse gaps, the Alice and Bob streams the settings, and the
quadrature stream serves the four setting cells in turn, (theta1, phi1),
(theta1, phi2), (theta2, phi1), (theta2, phi2): each cell draws exactly
its event count from it by chunked rejection sampling (`_draw`) against
one inflated Gaussian, the marginal's widest term (`build_envelope`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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

#: points per axis of the square grid that bounds target/envelope
ENVELOPE_GRID = 321

_ROLE_SOPHIE, _ROLE_ALICE, _ROLE_BOB, _ROLE_QUAD = range(4)


@dataclass(frozen=True)
class ProtocolConfig:
    """Settings for one simulated data-taking campaign."""

    params: ExperimentParams
    n_target_events: int
    seed: int
    rep_rate: float = 1e6
    angle_choice_probs: tuple[float, float] = (0.5, 0.5)

    def __post_init__(self):
        if self.n_target_events < 1:
            raise DomainError("n_target_events must be >= 1")
        if not (np.isfinite(self.rep_rate) and self.rep_rate > 0):
            raise DomainError(f"rep_rate must be finite and positive, "
                              f"got {self.rep_rate}")
        p1, p2 = self.angle_choice_probs
        if not (p1 >= 0 and p2 >= 0 and abs(p1 + p2 - 1.0) <= 1e-12):
            raise DomainError("angle_choice_probs must be non-negative and sum to 1")


@dataclass(frozen=True)
class MCResult:
    """Finite-statistics CHSH estimate from one simulated campaign.

    counts and product_sums hold, per angle-pair cell, the number of
    events and the sum of the +-1 outcome products.  s_available is False
    when some cell collected no events (degenerate angle choices).
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
    signed marginal after scaling by `bound`; `chol` is its Cholesky factor
    and `accept_rate` the exact expected acceptance 1/bound.
    """

    chol: np.ndarray         # (2, 2) lower Cholesky factor
    bound: float

    @property
    def accept_rate(self) -> float:
        return 1.0 / self.bound


def build_envelope(marginal: BivariateMixture) -> Envelope:
    """Construct the dominating Gaussian and its scaling constant.

    Projecting tap modes onto vacuum only narrows a heralded term,
    Sigma_j <= Sigma_0 in the Loewner order, and a rotation scales every
    off-diagonal by one cos(theta + phi), which keeps the order.  So the
    term of largest trace, inflated by ENVELOPE_INFLATION, has fatter tails
    than every positive term; EnvelopeError if a positive term is not
    below it.  The scaling constant is the grid maximum of target/envelope
    (with 5% headroom) over a box large enough that an analytic tail bound
    excludes a larger ratio outside.
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
    env = Envelope(weights=np.ones(1), covariances=env_cov[None],
                   chol=np.linalg.cholesky(env_cov), bound=1.0)

    # each positive term over the envelope is at most
    # inflation sqrt(det widest / det term) exp(-decay r^2 / 2); solve for
    # the box radius where their sum provably drops below 1
    lam_max = float(np.linalg.eigvalsh(widest)[-1])
    decay = (1.0 - 1.0 / ENVELOPE_INFLATION) / lam_max
    prefac = float(ENVELOPE_INFLATION * marginal.weights[pos].sum() * np.sqrt(
        np.linalg.det(widest) / np.linalg.det(covs[pos]).min()))
    radius = np.sqrt(max(2.0 * np.log(max(prefac, 2.0)) / decay, 25.0 * lam_max))

    # the grid goes in slabs of about CHUNK points, which keeps every
    # temporary small; fmax skips the 0/0 of points where both underflow
    axis = np.linspace(-radius, radius, ENVELOPE_GRID)
    rows = max(1, CHUNK // ENVELOPE_GRID)
    peaks = []
    for start in range(0, ENVELOPE_GRID, rows):
        moments = conditioning.quadratic_moments(
            axis[start:start + rows, None], axis)
        ratio = marginal.moment_density(moments) / env.moment_density(moments)
        peaks.append(np.fmax.reduce(ratio, axis=None))
    bound = 1.05 * float(np.fmax.reduce(peaks))
    if not np.isfinite(bound) or bound <= 0:
        raise EnvelopeError("could not bound the target/envelope ratio")
    if 1.0 / bound < MIN_ACCEPTANCE:
        raise EnvelopeError(
            f"envelope acceptance rate 1/{bound:.1f} is below "
            f"{MIN_ACCEPTANCE:.0%}; the dominating constant is unusable")
    return replace(env, bound=bound)


def _draw(env: Envelope, marginal: BivariateMixture, n: int,
          rng: np.random.Generator) -> np.ndarray:
    """n samples of marginal by rejection against env, shape (n, 2).

    Proposes in chunks of at most CHUNK points.  A chunk for m missing
    samples holds bound * (m + 3 sqrt(m)) proposals, which at the
    acceptance rate 1/bound yield them with three standard deviations to
    spare (bound >= 1 for any envelope `build_envelope` makes, so a chunk
    is never empty).  It draws the accept uniform of each point, then a
    (2, size) array of standard normals that `env.chol` maps to points.

    Raises EnvelopeError when the target exceeds bound * envelope at a
    proposal (the grid maximum of `build_envelope` missed a peak, and the
    samples would be biased there) or when the observed acceptance falls
    below MIN_ACCEPTANCE after 10,000 proposals.
    """
    l00, l10, l11 = env.chol[(0, 1, 1), (0, 0, 1)]
    out = np.empty((n, 2))
    filled = proposed = accepted = 0
    while filled < n:
        missing = n - filled
        size = min(CHUNK, int(env.bound * (missing + 3.0 * np.sqrt(missing))))
        accept = rng.random(size)
        z = rng.standard_normal((2, size))
        x = l00 * z[0]
        y = l10 * z[0] + l11 * z[1]
        moments = conditioning.quadratic_moments(x, y)
        target = marginal.moment_density(moments)
        cap = env.bound * env.moment_density(moments)
        if np.any(target > cap):
            raise EnvelopeError(
                f"target density exceeds the envelope bound {env.bound:.3f} "
                f"at {int(np.count_nonzero(target > cap))} of {size} "
                "proposals; the grid maximum missed a peak")
        keep = np.flatnonzero(accept * cap < target)
        take = keep[:missing]
        out[filled:filled + len(take), 0] = x[take]
        out[filled:filled + len(take), 1] = y[take]
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
    if n < 1:
        raise DomainError("sample count must be >= 1")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    return _draw(build_envelope(marginal), marginal, n, rng)


def _block_rng(seed: int, role: int, block: int) -> np.random.Generator:
    seq = np.random.SeedSequence(seed, spawn_key=(role, block))
    return np.random.Generator(np.random.Philox(seq))


def _simulate_block(seed: int, block: int, size: int, success_prob: float,
                    choice_probs: np.ndarray,
                    envelopes: list[Envelope],
                    marginals: list[BivariateMixture]):
    """One block of heralded events: pulses burned, settings, sign products."""
    sophie = _block_rng(seed, _ROLE_SOPHIE, block)
    alice = _block_rng(seed, _ROLE_ALICE, block)
    bob = _block_rng(seed, _ROLE_BOB, block)
    quad = _block_rng(seed, _ROLE_QUAD, block)

    # pulses until each double click: inverse-CDF geometric, support >= 1
    u = sophie.random(size)
    gaps = np.floor(np.log1p(-u) / np.log1p(-success_prob)).astype(np.int64) + 1
    set_a = (alice.random(size) >= choice_probs[0]).astype(np.int64)
    set_b = (bob.random(size) >= choice_probs[0]).astype(np.int64)

    # settings cell j * 2 + k draws exactly its events' samples
    counts = np.bincount(set_a * 2 + set_b, minlength=4)
    sums = np.zeros(4)
    for idx in range(4):
        samples = _draw(envelopes[idx], marginals[idx], int(counts[idx]), quad)
        signs = np.where(samples >= 0.0, 1.0, -1.0)
        sums[idx] = float((signs[:, 0] * signs[:, 1]).sum())
    return int(gaps.sum()), counts.reshape(2, 2), sums.reshape(2, 2)


def run_protocol(config: ProtocolConfig) -> MCResult:
    """Simulate pulses until the target number of heralded events.

    Each pulse heralds with the pipeline's double-click probability; on
    success both parties draw a setting and a quadrature sample is taken
    from the corresponding joint marginal.  Each block of BLOCK_EVENTS
    events draws from its own streams, so the totals do not depend on the
    order in which the blocks are simulated.
    """
    params = config.params
    state = conditioning.conditional_state(params.output_covariance())
    theta = (params.angles[0], params.angles[1])
    phi = (params.angles[2], params.angles[3])
    marginals = [rotated_marginal(state, theta[j], phi[k])
                 for j in range(2) for k in range(2)]
    envelopes = [build_envelope(m) for m in marginals]
    choice_probs = np.asarray(config.angle_choice_probs)

    n = config.n_target_events
    results = [_simulate_block(config.seed, block,
                               min(BLOCK_EVENTS, n - block * BLOCK_EVENTS),
                               state.success_prob, choice_probs, envelopes,
                               marginals)
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


def acquisition_time(success_prob: float, rep_rate: float,
                     target_stderr_s: float, bell: BellResult,
                     angle_choice_probs: tuple[float, float] = (0.5, 0.5)
                     ) -> float:
    """Seconds of data taking needed to reach a CHSH standard error.

    Uses the per-event estimator variance sigma0^2 = sum over cells of
    (1 - E^2) / p_cell, so the answer is
    (sigma0 / target)^2 / (success_prob * rep_rate).
    """
    if not all(0 < v < np.inf for v in (success_prob, rep_rate,
                                         target_stderr_s)):
        raise DomainError(
            "all acquisition-time inputs must be finite and positive")
    probs = np.asarray(angle_choice_probs)
    cell_probs = np.outer(probs, probs)
    if not np.all(cell_probs > 0):
        raise DomainError("acquisition time needs all four cells reachable")
    sigma0_sq = float(((1.0 - bell.correlators ** 2) / cell_probs).sum())
    n_events = sigma0_sq / target_stderr_s ** 2
    return n_events / (success_prob * rep_rate)
