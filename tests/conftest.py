import numpy as np
import pytest

from cvbell import bell, conditioning, fock, montecarlo

#: operating point quoted for a feasible experiment
REALISTIC = dict(squeezing=0.6, transmittance=0.95, apd_efficiency=0.3,
                 homodyne_efficiency=0.95)

#: parameters of the published Wigner-function cut
WIGNER_CUT = dict(squeezing=0.5, transmittance=0.95, apd_efficiency=0.3,
                  homodyne_efficiency=1.0)


@pytest.fixture(scope="session")
def realistic_params():
    return bell.ExperimentParams(**REALISTIC)


@pytest.fixture(scope="session")
def realistic_state(realistic_params):
    return conditioning.conditional_state(realistic_params.output_covariance())


@pytest.fixture(scope="session")
def cut_params():
    return bell.ExperimentParams(**WIGNER_CUT)


@pytest.fixture(scope="session")
def cut_state(cut_params):
    return conditioning.conditional_state(cut_params.output_covariance())


@pytest.fixture(scope="session")
def fock_realistic():
    """Heralded Fock-basis state at the realistic operating point."""
    return fock.lossy_click_conditioning(REALISTIC["squeezing"],
                                         REALISTIC["transmittance"],
                                         REALISTIC["apd_efficiency"], 40)


@pytest.fixture(scope="session")
def fock_cut_state():
    """Heralded Fock-basis state at the Wigner-cut operating point."""
    return fock.lossy_click_conditioning(WIGNER_CUT["squeezing"],
                                         WIGNER_CUT["transmittance"],
                                         WIGNER_CUT["apd_efficiency"], 40)


def integrate_mixture_2d(marginal, sigma_range=8.0, nodes=128):
    """Gauss-Legendre integral of a bivariate mixture over +-range*sigma."""
    sx = sigma_range * np.sqrt(max(c[0, 0] for c in marginal.covariances))
    sy = sigma_range * np.sqrt(max(c[1, 1] for c in marginal.covariances))
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    dens = marginal.density(xs[:, None] * sx, xs[None, :] * sy)
    return float((ws * sx) @ dens @ (ws * sy))


def integrate_wigner_4d(state, halfwidth=6.0, nodes=48):
    """Tensor Gauss-Legendre integral of W over the given box."""
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    x = xs * halfwidth
    w = ws * halfwidth
    pts = np.stack(np.meshgrid(x, x, x, x, indexing="ij"), axis=-1).reshape(-1, 4)
    wts = (w[:, None, None, None] * w[None, :, None, None]
           * w[None, None, :, None] * w[None, None, None, :]).ravel()
    total = 0.0
    for i in range(0, len(pts), 500_000):
        total += float(np.dot(wts[i:i + 500_000],
                              conditioning.wigner_value(state, pts[i:i + 500_000])))
    return total


def reversed_block_totals(config):
    """run_protocol(config) and the (pulses, counts, product sums) of its
    event blocks, simulated again one by one in reverse order."""
    calls = []
    simulate = montecarlo._simulate_block

    def record(*args):
        calls.append(args)
        return simulate(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "_simulate_block", record)
        result = montecarlo.run_protocol(config)
    assert len(calls) > 1
    blocks = [simulate(*args) for args in reversed(calls)]
    return result, tuple(sum(parts) for parts in zip(*blocks))
