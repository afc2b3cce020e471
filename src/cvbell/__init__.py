"""Bell-CHSH statistics of photon-subtracted two-mode squeezed vacuum
measured with balanced homodyne detection.

The package computes the heralded non-Gaussian state and its sign-binned
quadrature correlators three independent ways: a closed form that
conditions the 4x4 x-quadrature covariance of the source (`x_block`) and
evaluates an arcsine correlator (`gaussian`, `conditioning`, `bell`), a
truncated photon-number-basis re-derivation (`fock`), and a pulsed Monte
Carlo protocol simulation (`montecarlo`).
"""

from .bell import (BellResult, BivariateMixture, ExperimentParams, chsh,
                   chsh_value, optimize_lambda, rotated_marginal,
                   sign_correlation, sign_correlation_quadrature, sweep)
from .conditioning import (HeraldedTerms, SignedGaussianMixture,
                           conditional_state, heralded_terms, wigner_cut,
                           wigner_value)
from .errors import (ConfigError, CVBellError, DomainError, EnvelopeError,
                     InvalidRegimeError, OptimizationError,
                     SingularMatrixError, TruncationError)
from .gaussian import (db_to_squeezing, output_covariance, squeezing_to_db,
                       x_block)
from .montecarlo import (MCResult, ProtocolConfig, acquisition_time,
                         run_protocol, sample_joint_quadratures)

__version__ = "0.1.0"
