"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s or -v to see them); a
criterion's assertions are exactly its stated bands, nothing looser.
"""

import time

import numpy as np

from cvbell import bell, conditioning, fock, gaussian, montecarlo
from conftest import reversed_block_totals
import symplectic_reference as ref

REALISTIC = bell.ExperimentParams(squeezing=0.6, transmittance=0.95,
                                  apd_efficiency=0.3, homodyne_efficiency=0.95)

CUT_DIRECTION = np.array([1.0, 0.0, -1.0, 0.0]) / np.sqrt(2.0)


def report(num, name, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'} criterion {num}: {name} ({detail})")
    assert passed, f"criterion {num}: {name} ({detail})"


def test_criterion_1_maximum_bell_factor():
    start = time.perf_counter()
    lam_opt, s_max = bell.optimize_lambda(0.99, 1.0, 1.0)
    elapsed = time.perf_counter() - start
    ok = abs(s_max - 2.046) <= 0.005 and elapsed < 10.0
    report(1, "S_max reproduction",
           ok, f"S_max={s_max:.4f}, lambda_opt={lam_opt:.4f}, t={elapsed:.1f}s")


def test_criterion_2_optimal_product_both_pipelines():
    start = time.perf_counter()
    details = []
    ok = True
    for t in (0.90, 0.95, 0.99):
        lam_opt, _ = bell.optimize_lambda(t, 1.0, 1.0)
        gauss_product = lam_opt * t
        fock_product, _ = fock.fock_optimal_product(t)
        details.append(f"T={t}: gauss={gauss_product:.3f} fock={fock_product:.3f}")
        ok &= 0.55 <= gauss_product <= 0.60
        ok &= 0.55 <= fock_product <= 0.60
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    report(2, "optimal squeezing-transmittance product", ok,
           "; ".join(details) + f"; t={elapsed:.1f}s")


def test_criterion_3_realistic_operating_point():
    result = bell.chsh(REALISTIC)
    ok = 2.01 <= result.S <= 2.03
    ok &= 2.0e-4 <= result.success_prob <= 3.2e-4
    report(3, "realistic operating point", ok,
           f"S={result.S:.4f}, P={result.success_prob:.3e}")


def test_criterion_4_apd_efficiency_insensitivity():
    fixed = bell.ExperimentParams(squeezing=0.57 / 0.95, transmittance=0.95,
                                  apd_efficiency=0.3, homodyne_efficiency=1.0)
    grid = np.unique(np.append(np.linspace(0.05, 1.0, 20), 0.08))
    points = bell.sweep("apd_efficiency", grid, fixed)
    values = {p.value: p.S for p in points}
    spread = max(values.values()) - min(values.values())
    ok = spread < 0.02 and values[0.08] > 2.0
    report(4, "APD-efficiency insensitivity", ok,
           f"spread={spread:.4f}, S(eta=0.08)={values[0.08]:.4f}")


def test_criterion_5_homodyne_threshold():
    fixed = bell.ExperimentParams(squeezing=0.57 / 0.95, transmittance=0.95,
                                  apd_efficiency=0.3, homodyne_efficiency=1.0)
    points = bell.sweep("homodyne_efficiency", np.linspace(0.85, 1.0, 31),
                        fixed)
    crossing = None
    for a, b in zip(points, points[1:]):
        if a.S < 2.0 <= b.S:
            crossing = a.value + (b.value - a.value) * (2.0 - a.S) / (b.S - a.S)
    ok = crossing is not None and 0.88 <= crossing <= 0.93
    report(5, "homodyne-efficiency threshold", ok,
           f"S=2 crossing at eta_bhd={crossing:.4f}" if crossing
           else "no crossing found")


def test_criterion_6_wigner_negativity_and_fock_agreement():
    params = bell.ExperimentParams(squeezing=0.5, transmittance=0.95,
                                   apd_efficiency=0.3, homodyne_efficiency=1.0)
    state = conditioning.conditional_state(params.output_covariance())
    offsets = np.linspace(-3.0, 3.0, 61)
    cut = conditioning.wigner_cut(state, CUT_DIRECTION, offsets)
    minimum = float(cut[:, 1].min())

    rho, _ = fock.lossy_click_conditioning(0.5, 0.95, 0.3, 40)
    points = offsets[:, None] * CUT_DIRECTION[None, :]
    w_fock = fock.wigner_values(rho, points)
    mask = np.abs(cut[:, 1]) > 1e-8
    rel = float(np.max(np.abs((cut[mask, 1] - w_fock[mask]) / cut[mask, 1])))
    ok = minimum < 0.0 and rel < 1e-6
    report(6, "Wigner negativity and cross-formalism agreement", ok,
           f"min W={minimum:.3e}, max rel diff={rel:.2e}")


def test_criterion_7_triple_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20260808)
    worst_quad = worst_fock = worst_fock_budget = worst_mc_z = 0.0
    ok = True
    for draw in range(10):
        lam = rng.uniform(0.3, 0.65)
        t = rng.uniform(0.9, 0.99)
        eta = rng.uniform(0.1, 1.0)
        eta_bhd = rng.uniform(0.85, 1.0)
        theta, phi = rng.uniform(-np.pi, np.pi, size=2)
        params = bell.ExperimentParams(lam, t, eta, eta_bhd)
        state = conditioning.conditional_state(params.output_covariance())
        marginal = bell.rotated_marginal(state, theta, phi)
        e_closed = bell.sign_correlation(marginal)

        e_quad = bell.sign_correlation_quadrature(marginal)
        worst_quad = max(worst_quad, abs(e_closed - e_quad))
        ok &= abs(e_closed - e_quad) < 1e-6

        rho, _ = fock.lossy_click_conditioning(lam, t, eta, 40)
        e_fock = fock.fock_sign_correlation(rho, theta, phi, eta_bhd)
        # rounding budget of the signed four-term sum
        budget = 8 * np.abs(state.weights).sum() * np.finfo(float).eps + 1e-12
        worst_fock = max(worst_fock, abs(e_closed - e_fock))
        worst_fock_budget = max(worst_fock_budget,
                                abs(e_closed - e_fock) / budget)
        ok &= abs(e_closed - e_fock) <= budget

        n = 1_000_000
        samples = montecarlo.sample_joint_quadratures(marginal, n,
                                                      seed=1000 + draw)
        signs = np.where(samples >= 0.0, 1.0, -1.0)
        e_mc = float(np.mean(signs[:, 0] * signs[:, 1]))
        stderr = float(np.sqrt(max(1.0 - e_mc ** 2, 1e-12) / n))
        worst_mc_z = max(worst_mc_z, abs(e_mc - e_closed) / stderr)
        ok &= abs(e_mc - e_closed) < 3.0 * stderr
    elapsed = time.perf_counter() - start
    ok &= elapsed < 600.0
    report(7, "triple-oracle equivalence", ok,
           f"max |dE_quad|={worst_quad:.2e}, max |dE_fock|={worst_fock:.2e} "
           f"({worst_fock_budget:.2f} of budget), "
           f"max MC z={worst_mc_z:.2f}, t={elapsed:.0f}s")


def test_criterion_8_feasibility_numbers():
    config = montecarlo.ProtocolConfig(params=REALISTIC,
                                       n_target_events=50_000, seed=808)
    result = montecarlo.run_protocol(config)
    events_per_second = result.P_hat * config.rep_rate
    chsh_result = bell.chsh(REALISTIC)
    seconds = montecarlo.acquisition_time(chsh_result, 1e6, 0.005)
    ok = 130.0 <= events_per_second <= 520.0 and seconds < 3600.0
    report(8, "feasibility numbers", ok,
           f"events/s={events_per_second:.0f}, "
           f"acquisition time={seconds:.0f}s")


def test_criterion_9_structural_invariants():
    checks = []

    # covariance physicality across the studied regimes
    physical = True
    for lam, t, eta, eta_bhd in [(0.3, 0.90, 0.2, 0.85),
                                 (0.5, 0.95, 0.3, 1.0),
                                 (0.65, 0.99, 1.0, 0.95)]:
        cov = gaussian.output_covariance(lam, t, eta, eta_bhd)
        physical &= bool(np.max(np.abs(cov - cov.T)) < 1e-12)
        physical &= bool(np.all(ref.symplectic_eigenvalues(cov)
                                >= 1.0 - 1e-9))
    checks.append(("covariance physicality", physical))

    # mixture normalization over [-6, 6]^4 within 1e-3
    from test_conditioning import integrate_wigner_4d
    norm_ok = True
    for params in (REALISTIC,
                   bell.ExperimentParams(0.5, 0.95, 0.3, 1.0)):
        state = conditioning.conditional_state(params.output_covariance())
        norm_ok &= bool(abs(integrate_wigner_4d(state) - 1.0) < 1e-3)
    checks.append(("mixture normalization", norm_ok))

    # marginal non-negativity on a dense grid over the angle grid
    state = conditioning.conditional_state(REALISTIC.output_covariance())
    grid = np.linspace(-5.0, 5.0, 41)
    min_density = np.inf
    for theta in np.linspace(0.0, np.pi, 8):
        for phi in np.linspace(-np.pi / 2, np.pi / 2, 8):
            marginal = bell.rotated_marginal(state, theta, phi)
            min_density = min(min_density,
                              float(marginal.density(grid[:, None],
                                                     grid[None, :]).min()))
    checks.append(("marginal non-negativity", min_density > -1e-9))

    # correlator and CHSH bounds
    e_ok = all(abs(bell.sign_correlation(
        bell.rotated_marginal(state, theta, phi))) <= 1.0
        for theta in np.linspace(0.0, np.pi, 16)
        for phi in np.linspace(-np.pi, np.pi, 16))
    checks.append(("correlator bound |E|<=1", e_ok))

    rng = np.random.default_rng(99)
    tsirelson = True
    for _ in range(20):
        params = bell.ExperimentParams(
            rng.uniform(0.05, 0.8), rng.uniform(0.85, 1.0),
            rng.uniform(0.05, 1.0), rng.uniform(0.7, 1.0),
            angles=tuple(rng.uniform(-np.pi, np.pi, size=4)))
        tsirelson &= bool(abs(bell.chsh(params).S) <= 2.0 * np.sqrt(2.0) + 1e-9)
    checks.append(("Tsirelson bound", tsirelson))

    # seed determinism and block-order independence of the protocol run
    config = montecarlo.ProtocolConfig(params=REALISTIC,
                                       n_target_events=20_000, seed=4242)
    a, (pulses, counts, sums) = reversed_block_totals(config)
    b = montecarlo.run_protocol(config)
    determinism = (a.S_hat == b.S_hat
                   and np.array_equal(a.counts, b.counts)
                   and a.total_pulses == b.total_pulses)
    order_free = (pulses == a.total_pulses
                  and np.array_equal(counts, a.counts)
                  and np.array_equal(sums, a.product_sums))
    checks.append(("seed determinism", determinism))
    checks.append(("block-order independence", order_free))

    ok = all(passed for _, passed in checks)
    detail = ", ".join(f"{name}: {'ok' if passed else 'FAILED'}"
                       for name, passed in checks)
    report(9, "structural invariants suite", ok, detail)
