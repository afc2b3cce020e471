"""Pulsed event-ready protocol simulation.

Simulates the three-party experiment: heralding double clicks at the
source, independent random angle choices at the two homodyne stations,
quadrature sampling from the heralded joint distribution, sign binning,
and CHSH estimation with propagated standard errors.

Randomness is organized around counter-based Philox streams, one per
party per fixed-size event block, so the heralding, Alice and Bob
histories are independent and the results do not depend on how blocks
are distributed over workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import conditioning
from .bell import (BellResult, BivariateMixture, ExperimentParams, chsh_value,
                   rotated_marginal)
from .errors import DomainError, EnvelopeError

#: events processed per RNG block; the block is the reproducibility atom
BLOCK_EVENTS = 4096

#: rejection-sampling rounds per block before giving up
MAX_ROUNDS = 10_000

#: abort threshold on the rejection acceptance rate
MIN_ACCEPTANCE = 0.01

#: covariance inflation of the envelope relative to the mixture terms
ENVELOPE_INFLATION = 2.0

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
        if self.rep_rate <= 0:
            raise DomainError("rep_rate must be positive")
        p1, p2 = self.angle_choice_probs
        if p1 < 0 or p2 < 0 or abs(p1 + p2 - 1.0) > 1e-12:
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
class Envelope:
    """Dominating mixture for rejection sampling from a signed marginal.

    Two inflated Gaussians built from the positive-weight terms dominate
    the target after scaling by `bound`; `accept_rate` is the exact
    expected acceptance 1/bound.
    """

    weights: np.ndarray      # (2,) mixture weights, sum 1
    covariances: np.ndarray  # (2, 2, 2)
    chols: np.ndarray        # (2, 2, 2) lower Cholesky factors
    bound: float

    @property
    def accept_rate(self) -> float:
        return 1.0 / self.bound

    def density(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        out = np.zeros_like(x, dtype=float)
        for w, cov in zip(self.weights, self.covariances):
            det = cov[0, 0] * cov[1, 1] - cov[0, 1] ** 2
            quad = (cov[1, 1] * x * x - 2.0 * cov[0, 1] * x * y
                    + cov[0, 0] * y * y) / det
            out += w * np.exp(-0.5 * quad) / (2.0 * np.pi * np.sqrt(det))
        return out


def build_envelope(marginal: BivariateMixture,
                   inflation: float = ENVELOPE_INFLATION,
                   grid_points: int = 321) -> Envelope:
    """Construct a dominating envelope and its scaling constant.

    The envelope reuses the two positive-weight terms of the signed
    mixture with covariances inflated by `inflation`, which makes its
    tails strictly fatter than the target's.  The scaling constant is the
    grid maximum of target/envelope (with 5% headroom) over a box large
    enough that an analytic tail bound excludes a larger ratio outside.
    """
    pos = [i for i, w in enumerate(marginal.weights) if w > 0]
    if not pos:
        raise EnvelopeError("signed mixture has no positive terms")
    w_pos = marginal.weights[pos]
    covs = inflation * marginal.covariances[pos]
    env_weights = w_pos / w_pos.sum()
    env = Envelope(weights=env_weights, covariances=covs,
                   chols=np.linalg.cholesky(covs), bound=1.0)

    # widest target term bounds every tail; solve for the box radius where
    # (sum of positive terms)/envelope provably drops below 1
    widest = marginal.covariances[pos[0]]
    for cov in marginal.covariances[pos]:
        if np.trace(cov) > np.trace(widest):
            widest = cov
    lam_max = float(np.linalg.eigvalsh(widest)[-1])
    decay = (1.0 - 1.0 / inflation) / lam_max
    dets = np.linalg.det(marginal.covariances[pos])
    prefac = float(inflation * w_pos.sum() / env_weights[0]
                   * np.sqrt(dets.max() / dets.min()))
    radius = np.sqrt(max(2.0 * np.log(max(prefac, 2.0)) / decay, 25.0 * lam_max))

    axis = np.linspace(-radius, radius, grid_points)
    xg, yg = np.meshgrid(axis, axis, indexing="ij")
    ratio = marginal.density(xg, yg) / env.density(xg, yg)
    bound = 1.05 * float(np.nanmax(ratio))
    if not np.isfinite(bound) or bound <= 0:
        raise EnvelopeError("could not bound the target/envelope ratio")
    if 1.0 / bound < MIN_ACCEPTANCE:
        raise EnvelopeError(
            f"envelope acceptance rate 1/{bound:.1f} is below "
            f"{MIN_ACCEPTANCE:.0%}; the dominating constant is unusable")
    return Envelope(weights=env.weights, covariances=env.covariances,
                    chols=env.chols, bound=bound)


def _propose(env: Envelope, comp_u: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Map uniform/normal draws to envelope proposals, shape (n, 2)."""
    comp = (comp_u >= env.weights[0]).astype(int)
    chol = env.chols[comp]
    return np.einsum("nij,nj->ni", chol, normals)


def sample_joint_quadratures(marginal: BivariateMixture, n: int,
                             seed: int) -> np.ndarray:
    """Draw n quadrature pairs from a signed-mixture joint distribution.

    Plain batched rejection sampling against the positive-term envelope;
    the stream is fully determined by the seed.
    """
    if n < 1:
        raise DomainError("sample count must be >= 1")
    env = build_envelope(marginal)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    out = np.empty((n, 2))
    filled = 0
    proposed = accepted = 0
    while filled < n:
        batch = int(min(max((n - filled) / env.accept_rate * 1.2, 1024), 4e6))
        comp_u = rng.random(batch)
        normals = rng.standard_normal((batch, 2))
        acc_u = rng.random(batch)
        pts = _propose(env, comp_u, normals)
        target = marginal.density(pts[:, 0], pts[:, 1])
        accept = acc_u * env.bound * env.density(pts[:, 0], pts[:, 1]) < target
        good = pts[accept]
        take = min(len(good), n - filled)
        out[filled:filled + take] = good[:take]
        filled += take
        proposed += batch
        accepted += int(accept.sum())
        if proposed >= 10_000 and accepted < MIN_ACCEPTANCE * proposed:
            raise EnvelopeError(
                f"observed acceptance {accepted / proposed:.2%} below "
                f"{MIN_ACCEPTANCE:.0%} after {proposed} proposals")
    return out


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
    pair = set_a * 2 + set_b

    samples = np.empty((size, 2))
    pending = np.ones(size, dtype=bool)
    for _ in range(MAX_ROUNDS):
        comp_u = quad.random(size)
        normals = quad.standard_normal((size, 2))
        acc_u = quad.random(size)
        for idx in range(4):
            rows = pending & (pair == idx)
            if not rows.any():
                continue
            env = envelopes[idx]
            pts = _propose(env, comp_u[rows], normals[rows])
            target = marginals[idx].density(pts[:, 0], pts[:, 1])
            envd = env.density(pts[:, 0], pts[:, 1])
            ok = acc_u[rows] * env.bound * envd < target
            take = np.flatnonzero(rows)[ok]
            samples[take] = pts[ok]
            pending[take] = False
        if not pending.any():
            break
    else:
        raise EnvelopeError("rejection sampling failed to converge in a block")

    signs = np.where(samples >= 0.0, 1.0, -1.0)
    products = signs[:, 0] * signs[:, 1]
    counts = np.zeros((2, 2), dtype=np.int64)
    sums = np.zeros((2, 2))
    for j in range(2):
        for k in range(2):
            cell = (set_a == j) & (set_b == k)
            counts[j, k] = int(cell.sum())
            sums[j, k] = float(products[cell].sum())
    return int(gaps.sum()), counts, sums


def run_protocol(config: ProtocolConfig, threads: int = 1) -> MCResult:
    """Simulate pulses until the target number of heralded events.

    Each pulse heralds with the pipeline's double-click probability; on
    success both parties draw a setting and a quadrature sample is taken
    from the corresponding joint marginal.  Results are bit-identical for
    a given seed regardless of `threads`.
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
    blocks = [(b, min(BLOCK_EVENTS, n - b * BLOCK_EVENTS))
              for b in range((n + BLOCK_EVENTS - 1) // BLOCK_EVENTS)]

    def work(block_size):
        block, size = block_size
        return _simulate_block(config.seed, block, size, state.success_prob,
                               choice_probs, envelopes, marginals)

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, blocks))
    else:
        results = [work(b) for b in blocks]

    total_pulses = 0
    counts = np.zeros((2, 2), dtype=np.int64)
    sums = np.zeros((2, 2))
    for pulses, block_counts, block_sums in results:
        total_pulses += pulses
        counts += block_counts
        sums += block_sums

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
    if success_prob <= 0 or rep_rate <= 0 or target_stderr_s <= 0:
        raise DomainError("all acquisition-time inputs must be positive")
    probs = np.asarray(angle_choice_probs)
    cell_probs = np.outer(probs, probs)
    if np.any(cell_probs <= 0):
        raise DomainError("acquisition time needs all four cells reachable")
    sigma0_sq = float(((1.0 - bell.correlators ** 2) / cell_probs).sum())
    n_events = sigma0_sq / target_stderr_s ** 2
    return n_events / (success_prob * rep_rate)
