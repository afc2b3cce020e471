import numpy as np
import pytest

from cvbell import bell, conditioning, fock, gaussian

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


def component_covariance(lam, t, eta, eta_bhd):
    """8x8 output covariance composed from the single-step constructors."""
    cov = gaussian.embed_with_vacuum_ancillas(gaussian.tmsv_covariance(lam))
    s = gaussian.beamsplitter_symplectic(t, ("A", "C")) \
        @ gaussian.beamsplitter_symplectic(t, ("B", "D"))
    return gaussian.apply_channel(gaussian.apply_symplectic(cov, s),
                                  gaussian.detector_loss_channel(eta_bhd, eta))
