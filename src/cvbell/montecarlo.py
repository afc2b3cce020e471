"""Pulsed event-ready protocol simulation.

Simulates the three-party experiment: heralding double clicks at the
source, a fair coin for the setting at each homodyne station, quadrature
sampling from the heralded joint distribution, sign binning, and CHSH
estimation with propagated standard errors.

Randomness comes from SFC64 streams, one per party per fixed-size event
block, each seeded by `SeedSequence(seed, spawn_key=(role, block))`.  The
spawn keys make the heralding, Alice, Bob and quadrature histories
independent and the results independent of the order in which blocks are
simulated; no stream is ever jumped or advanced.  Within a block, the
heralding stream gives the pulse gaps, the Alice and Bob streams the
settings, and the quadrature stream serves the setting targets in turn.
A cell's target depends on its angles only through cos(theta + phi), so
cells whose `rotated_marginal` takes the same cos(theta + phi), bit for
bit, share one target: one envelope and one draw per block, which is
split in cell order, (theta1, phi1), (theta1, phi2), (theta2, phi1),
(theta2, phi2), by each cell's exact event count.  At the default angles
the first three cells share a target and (theta2, phi2) has its own.
A draw takes exactly its event count by chunked rejection sampling
(`_draw`) against one inflated Gaussian, the marginal's widest term
(`build_envelope`).

Both work in the envelope's whitened frame x = L z, with L the Cholesky
factor of the envelope covariance, where target/envelope is a short sum
of centred Gaussians in z, r(z) = sum_j a_j exp(-z^T B_j z / 2).  The
envelope's bound is the peak of r, found by a coarse grid search refined
around its best points, and a proposal z is accepted by comparing r(z)
alone with the bound: drawing evaluates neither density.  The envelope
keeps the coefficients of r's exponents and the entries of L, so a chunk
computes neither.  Each chunk writes the uniforms, normals and r of its
proposals into one scratch array, which `run_protocol` allocates once
and every draw of the campaign reuses, then gathers its accepted z into
the (2, n) result and maps them there to x = L z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import conditioning, inputs
from .bell import (BellResult, BivariateMixture, ExperimentParams, chsh_value,
                   rotated_marginal)
from .errors import EnvelopeError

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

    Each station picks each of its two angles with probability 1/2.  The
    fields are stored as `inputs.integer` and `inputs.positive` give them.
    """

    params: ExperimentParams
    n_target_events: int
    seed: int
    rep_rate: float = 1e6

    def __post_init__(self):
        for name, least in (("n_target_events", 1), ("seed", 0)):
            object.__setattr__(self, name, inputs.integer(
                name, getattr(self, name), least))
        object.__setattr__(self, "rep_rate",
                           inputs.positive("rep_rate", self.rep_rate))


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
    `coeffs` (`_coefficients` of forms) and `chol_entries`, L's (l00, l10,
    l11), are derived once, for the sampler's chunks.
    """

    chol: np.ndarray         # (2, 2) lower Cholesky factor
    scales: np.ndarray       # (terms,) a_j
    forms: np.ndarray        # (terms, 2, 2) B_j
    bound: float
    coeffs: np.ndarray = field(init=False, repr=False, compare=False)
    chol_entries: tuple[float, float, float] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _coefficients(self.forms))
        object.__setattr__(self, "chol_entries", tuple(
            float(v) for v in self.chol[(0, 1, 1), (0, 0, 1)]))

    @property
    def accept_rate(self) -> float:
        return 1.0 / self.bound


def _coefficients(forms: np.ndarray) -> np.ndarray:
    """-[B00, 2 B01, B11] / 2 per term, shape (terms, 3): the exponent of
    term j of r at z is their dot with (z0^2, z0 z1, z1^2)."""
    return -0.5 * np.stack([forms[:, 0, 0], 2.0 * forms[:, 0, 1],
                            forms[:, 1, 1]], axis=-1)


def _ratio(scales: np.ndarray, coeffs: np.ndarray, z: np.ndarray,
           work: np.ndarray | None = None) -> np.ndarray:
    """r(z) = sum_j scales[j] exp(-z^T B_j z / 2) at the whitened points z,
    shape (2, n), with coeffs the `_coefficients` of the B_j.

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
    coeffs = _coefficients(forms)
    radius = np.sqrt(2.0 * np.log(scales[scales > 0].sum()))
    axis, step = np.linspace(-radius, radius, ENVELOPE_GRID, retstep=True)
    z = np.stack(np.meshgrid(axis[ENVELOPE_GRID // 2:], axis,
                             indexing="ij")).reshape(2, -1)
    # one scratch array for every evaluation; the coarse grid is the largest
    work = np.empty((4 + len(scales)) * z.shape[1])
    best = np.argsort(_ratio(scales, coeffs, z, work))[-ENVELOPE_STARTS:]
    centres = z[:, best, None]
    offsets = np.mgrid[-2:3, -2:3].reshape(2, 1, 25)
    starts = np.arange(ENVELOPE_STARTS)
    for _ in range(10):
        step /= 2.0
        points = centres + step * offsets                  # (2, starts, 25)
        ratio = _ratio(scales, coeffs, points.reshape(2, -1), work)
        ratio = ratio.reshape(ENVELOPE_STARTS, 25)
        centres = points[:, starts, ratio.argmax(axis=1), None]
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


def _scratch(envelopes: list[Envelope]) -> np.ndarray:
    """A scratch array for `_draw` at any of envelopes: one chunk's accept
    uniforms, normals and `_ratio` temporaries."""
    terms = max(len(env.scales) for env in envelopes)
    return np.empty((7 + terms) * CHUNK)


def _draw(env: Envelope, n: int, rng: np.random.Generator,
          work: np.ndarray | None = None) -> np.ndarray:
    """n samples of the marginal that env dominates, by rejection, shape
    (n, 2): the transpose of a C-ordered (2, n) array, so Fortran-ordered,
    with each quadrature's samples contiguous.

    Proposes in chunks of at most CHUNK points.  A chunk for m missing
    samples holds bound * (m + 3 sqrt(m)) proposals, which at the
    acceptance rate 1/bound yield them with three standard deviations to
    spare (bound >= 1 for any envelope `build_envelope` makes, so a chunk
    is never empty).  It draws the accept uniform u of each point, then a
    (2, size) array of standard normals z, and keeps z where
    u * bound < r(z); the kept points are gathered into the result and
    mapped there to x = L z.  The chunk's arrays live in work, a
    `_scratch` array for env, or a fresh one if work is None.

    Raises EnvelopeError when r(z) exceeds the bound at a proposal (the
    peak search of `build_envelope` missed a peak, and the samples would
    be biased there) or when the observed acceptance falls below
    MIN_ACCEPTANCE after 10,000 proposals.
    """
    l00, l10, l11 = env.chol_entries
    bound = env.bound
    out = np.empty((2, n))
    if work is None:
        work = _scratch([env])
    filled = proposed = accepted = 0
    while filled < n:
        missing = n - filled
        size = min(CHUNK, int(bound * (missing + 3.0 * math.sqrt(missing))))
        accept = rng.random(out=work[:size])
        z = rng.standard_normal(out=work[size:3 * size]).reshape(2, size)
        ratio = _ratio(env.scales, env.coeffs, z, work[3 * size:])
        if ratio.max() > bound:
            raise EnvelopeError(
                f"target/envelope ratio exceeds the envelope bound "
                f"{bound:.3f} at {int(np.count_nonzero(ratio > bound))}"
                f" of {size} proposals; the peak search missed a peak")
        accept *= bound
        keep = np.flatnonzero(accept < ratio)
        take = keep[:missing]
        # x1 = l11 z1 + l10 z0, x0 = l00 z0; the accept uniforms are spent,
        # so their slots hold l10 z0.  Every index is in range, and "clip"
        # spares the copy of out that take's default mode makes
        x0, x1 = out[:, filled:filled + len(take)]
        np.take(z[0], take, out=x0, mode="clip")
        np.take(z[1], take, out=x1, mode="clip")
        x1 *= l11
        x1 += np.multiply(x0, l10, out=work[:len(take)])
        x0 *= l00
        filled += len(take)
        proposed += size
        accepted += len(keep)
        if proposed >= 10_000 and accepted < MIN_ACCEPTANCE * proposed:
            raise EnvelopeError(
                f"observed acceptance {accepted / proposed:.2%} below "
                f"{MIN_ACCEPTANCE:.0%} after {proposed} proposals")
    return out.T


def sample_joint_quadratures(marginal: BivariateMixture, n: int,
                             seed: int) -> np.ndarray:
    """Draw n quadrature pairs from a signed-mixture joint distribution.

    Chunked rejection sampling (`_draw`) against the Gaussian envelope;
    the stream is fully determined by the seed.  The (n, 2) result is
    Fortran-ordered: each quadrature's n samples are contiguous.  n and
    seed go through `inputs.integer`.
    """
    n = inputs.integer("sample count", n, 1)
    seed = inputs.integer("seed", seed, 0)
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))
    return _draw(build_envelope(marginal), n, rng)


def _block_rng(seed: int, role: int, block: int) -> np.random.Generator:
    """The SFC64 stream of one party (role) in one event block.

    `SeedSequence(seed, spawn_key=(role, block))` gives every (role,
    block) pair its own state, so the streams are independent and a block
    draws the same numbers whatever order the blocks run in.
    """
    seq = np.random.SeedSequence(seed, spawn_key=(role, block))
    return np.random.Generator(np.random.SFC64(seq))


def _simulate_block(seed: int, block: int, size: int, success_prob: float,
                    targets: list[tuple[Envelope, list[int]]],
                    work: np.ndarray):
    """One block of heralded events: pulses burned, settings, sign products.

    targets holds, per distinct setting target, its envelope and the cells
    j * 2 + k that share it, in cell order; work is the `_scratch` array
    of the envelopes that every draw reuses.
    """
    sophie = _block_rng(seed, _ROLE_SOPHIE, block)
    alice = _block_rng(seed, _ROLE_ALICE, block)
    bob = _block_rng(seed, _ROLE_BOB, block)
    quad = _block_rng(seed, _ROLE_QUAD, block)

    # pulses until each double click: inverse-CDF geometric, support >= 1
    u = sophie.random(size)
    gaps = np.floor(np.log1p(-u) / np.log1p(-success_prob)).astype(np.int64) + 1
    set_a = (alice.random(size) >= 0.5).astype(np.int64)
    set_b = (bob.random(size) >= 0.5).astype(np.int64)

    # a target draws its cells' events at once, and each cell takes its
    # count of them in turn; a product of signs is -1 where they disagree,
    # so a cell's sum is its count - 2 disagree
    counts = np.bincount(set_a * 2 + set_b, minlength=4)
    sums = np.zeros(4)
    for env, cells in targets:
        x0, x1 = _draw(env, int(counts[cells].sum()), quad, work).T
        disagree = (x0 >= 0.0) != (x1 >= 0.0)
        parts = np.split(disagree, np.cumsum(counts[cells])[:-1])
        for idx, part in zip(cells, parts):
            sums[idx] = float(counts[idx] - 2 * np.count_nonzero(part))
    return int(gaps.sum()), counts.reshape(2, 2), sums.reshape(2, 2)


def _setting_targets(state: conditioning.SignedGaussianMixture,
                     angles: tuple[float, float, float, float]
                     ) -> list[tuple[Envelope, list[int]]]:
    """One envelope per distinct target of the four setting cells, with the
    cells j * 2 + k that share it, in order of their first cell.

    Cells share a target when the cos(theta + phi) of `rotated_marginal`
    is the same float; there is no tolerance, so no cell samples a target
    other than its own.
    """
    targets: dict[float, tuple[Envelope, list[int]]] = {}
    for idx in range(4):
        theta, phi = angles[idx // 2], angles[2 + idx % 2]
        key = float(np.cos(theta + phi))
        if key not in targets:
            targets[key] = (build_envelope(rotated_marginal(state, theta,
                                                            phi)), [])
        targets[key][1].append(idx)
    return list(targets.values())


def run_protocol(config: ProtocolConfig) -> MCResult:
    """Simulate pulses until the target number of heralded events.

    Each pulse heralds with the pipeline's double-click probability; on
    success both parties toss a fair coin for their setting and a
    quadrature sample is taken from the corresponding joint marginal.
    Each block of BLOCK_EVENTS events draws from its own streams, so the
    totals do not depend on the order in which the blocks are simulated;
    the cells that share a target (`_setting_targets`) share one draw per
    block.
    """
    params = config.params
    state = conditioning.conditional_state(params.output_covariance())
    targets = _setting_targets(state, params.angles)

    n = config.n_target_events
    work = _scratch([env for env, _ in targets])
    results = [_simulate_block(config.seed, block,
                               min(BLOCK_EVENTS, n - block * BLOCK_EVENTS),
                               state.success_prob, targets, work)
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
    P, rep_rate and target_stderr_s go through `inputs.positive`.
    """
    success_prob = inputs.positive("success_prob", bell.success_prob)
    rep_rate = inputs.positive("rep_rate", rep_rate)
    target_stderr_s = inputs.positive("target_stderr_s", target_stderr_s)
    sigma0_sq = float(((1.0 - bell.correlators ** 2) / 0.25).sum())
    n_events = sigma0_sq / target_stderr_s ** 2
    return n_events / (success_prob * rep_rate)
