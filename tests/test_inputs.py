"""Every public entry point against one catalogue of inputs.

Each name that `cvbell` exports, and each public function of `cvbell.fock`,
has a row in ENTRY_POINTS: a call with valid arguments, and the arguments a
caller gives as numbers, arrays or records, each with its kind (see
`cvbell.inputs`) and the names its refusal text may give.  An argument
that is a record the package builds (parameters, states, mixtures,
results) is of kind "record": every catalogue value is a non-record.  A
record class or error class has no row of its own but an entry in
RECORDS.

Each catalogue value, put in one catalogued argument at a time, must
either raise a DomainError whose text names the argument, or be taken as
its kind documents: a real number that is not a float behaves exactly as
its float (an integer as its int), and a value the kind accepts may end
only in the package's own typed errors, never in a bare numpy or Python
one.  The values the kind must refuse are in MUST_REFUSE.
"""

import dataclasses
import inspect
import types
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import cvbell
from cvbell import bell, conditioning, fock, gaussian, montecarlo
from cvbell.errors import CVBellError, DomainError

CATALOGUE = {
    "true": True, "numpy-true": np.True_, "nan": np.nan, "inf": np.inf,
    "-inf": -np.inf, "str": "0.5", "bytes": b"0.5", "none": None,
    "complex": 0.5 + 0j, "two-element": np.array([0.5, 0.4]),
    "list": [0.5], "zero-d": np.array(0.5), "huge": 10 ** 400,
    "fraction": Fraction(1, 2), "decimal": Decimal("0.5"),
    "negative-zero": -0.0, "float32": np.float32(0.5), "int64": np.int64(1),
}

#: catalogue values that are one real number but not a float: each must
#: behave as its float, and an integer as its int
AS_FLOAT = ("fraction", "float32", "int64")

_NOT_NUMBERS = {"true", "numpy-true", "str", "bytes", "none", "complex",
                "huge", "decimal"}
_ARRAYS = {"two-element", "list", "zero-d"}
_NON_FINITE = {"nan", "inf", "-inf"}

#: kind -> the catalogue values it must refuse
MUST_REFUSE = {
    # one real number (`inputs.real`, `parameter`, `positive`)
    "number": _NOT_NUMBERS | _ARRAYS,
    # one angle of `inputs.angles`, which must be finite
    "angle": _NOT_NUMBERS | _ARRAYS | _NON_FINITE,
    # `inputs.integer`: all but np.int64(1)
    "integer": set(CATALOGUE) - {"int64"},
    # a batch of any shape (`inputs.reals`, `parameters`)
    "batch": _NOT_NUMBERS,
    # a batch along one axis (`inputs.vector`)
    "vector": set(CATALOGUE) - {"two-element", "list"},
    # an argument of a fixed shape that no catalogue value has: a tuple of
    # four angles, points, a sweep axis, a covariance, ...
    "shaped": set(CATALOGUE),
    # a record of one class (`inputs.record`), which no catalogue value is
    "record": set(CATALOGUE),
}


@dataclasses.dataclass
class Row:
    """call(*args) is valid; inputs maps the index of each catalogued
    argument to its kind and the names its refusal may give."""

    call: object
    args: tuple
    inputs: dict


def _fixtures():
    params = bell.ExperimentParams(0.5, 0.95, 0.3, 1.0)
    state = conditioning.conditional_state(params.output_covariance())
    marginal = bell.rotated_marginal(state, 0.0, 0.0)
    rho, _ = fock.lossy_click_conditioning(0.3, 0.95, 0.3, 16)
    return params, state, marginal, rho


PARAMS, STATE, MARGINAL, RHO = _fixtures()
ANGLES = bell.DEFAULT_ANGLES


def _four(kind):
    """The four parameters of ExperimentParams, x_block and
    output_covariance, as catalogued arguments of kind."""
    return {i: (kind, (name,)) for i, name in enumerate(gaussian.PARAMS)}


ENTRY_POINTS = {
    # bell
    "ExperimentParams": Row(
        bell.ExperimentParams, (0.5, 0.95, 0.3, 1.0, ANGLES),
        {**_four("number"), 4: ("shaped", ("angles",))}),
    "chsh": Row(bell.chsh, (PARAMS,), {0: ("record", ("params",))}),
    "chsh_value": Row(bell.chsh_value, (np.zeros((2, 2)),),
                      {0: ("shaped", ("correlators",))}),
    "optimize_lambda": Row(
        bell.optimize_lambda, (0.95, 0.3, 1.0, ANGLES),
        {0: ("number", ("transmittance",)),
         1: ("number", ("apd_efficiency",)),
         2: ("number", ("homodyne_efficiency",)), 3: ("shaped", ("angles",))}),
    "rotated_marginal": Row(bell.rotated_marginal, (STATE, 0.0, 0.0),
                            {0: ("record", ("state",)),
                             1: ("angle", ("angles",)),
                             2: ("angle", ("angles",))}),
    "sign_correlation": Row(bell.sign_correlation, (MARGINAL,),
                            {0: ("record", ("marginal",))}),
    "sign_correlation_quadrature": Row(bell.sign_correlation_quadrature,
                                       (MARGINAL,),
                                       {0: ("record", ("marginal",))}),
    "sweep": Row(bell.sweep, ("squeezing", [0.3, 0.5], PARAMS),
                 {0: ("shaped", ("sweep axis",)),
                  1: ("vector", ("squeezing",)),
                  2: ("record", ("fixed",))}),
    # conditioning
    "conditional_state": Row(conditioning.conditional_state,
                             (PARAMS.output_covariance(),),
                             {0: ("shaped", ("covariance",))}),
    "wigner_cut": Row(conditioning.wigner_cut,
                      (STATE, np.array([1.0, 0.0, 0.0, 0.0]), [0.0, 0.5]),
                      {0: ("record", ("state",)),
                       1: ("shaped", ("direction",)),
                       2: ("vector", ("offsets",))}),
    "wigner_value": Row(conditioning.wigner_value, (STATE, np.zeros(4)),
                        {0: ("record", ("state",)),
                         1: ("shaped", ("phase-space points",))}),
    # gaussian
    "db_to_squeezing": Row(cvbell.db_to_squeezing, (3.0,),
                           {0: ("number", ("squeezing",))}),
    "output_covariance": Row(cvbell.output_covariance, (0.5, 0.95, 0.3, 1.0),
                             _four("batch")),
    "squeezing_to_db": Row(cvbell.squeezing_to_db, (0.5,),
                           {0: ("number", ("squeezing",))}),
    "x_block": Row(cvbell.x_block, (0.5, 0.95, 0.3, 1.0), _four("batch")),
    # montecarlo
    "ProtocolConfig": Row(
        montecarlo.ProtocolConfig, (PARAMS, 10, 1, 1e6),
        {0: ("record", ("params",)),
         1: ("integer", ("n_target_events",)), 2: ("integer", ("seed",)),
         3: ("number", ("rep_rate",))}),
    "acquisition_time": Row(montecarlo.acquisition_time,
                            (bell.chsh(PARAMS), 1e6, 0.005),
                            {0: ("record", ("bell",)),
                             1: ("number", ("rep_rate",)),
                             2: ("number", ("target_stderr_s",))}),
    "run_protocol": Row(montecarlo.run_protocol,
                        (montecarlo.ProtocolConfig(PARAMS, 10, 1),),
                        {0: ("record", ("config",))}),
    "sample_joint_quadratures": Row(
        montecarlo.sample_joint_quadratures, (MARGINAL, 10, 1),
        {0: ("record", ("marginal",)), 1: ("integer", ("sample count",)),
         2: ("integer", ("seed",))}),
    # fock
    "tmsv_amplitudes": Row(fock.tmsv_amplitudes, (0.5, 40),
                           {0: ("number", ("squeezing",)),
                            1: ("integer", ("truncation",))}),
    "tmsv_state": Row(fock.tmsv_state, (0.3, 40),
                      {0: ("number", ("squeezing",)),
                       1: ("integer", ("truncation",))}),
    "tap_amplitude_table": Row(fock.tap_amplitude_table, (0.95, 16),
                               {0: ("number", ("transmittance",)),
                                1: ("integer", ("truncation",))}),
    "click_weights": Row(fock.click_weights, (0.3, 16),
                         {0: ("number", ("apd_efficiency",)),
                          1: ("integer", ("truncation",))}),
    "lossy_click_conditioning": Row(
        fock.lossy_click_conditioning, (0.3, 0.95, 0.3, 16),
        {0: ("number", ("squeezing",)), 1: ("number", ("transmittance",)),
         2: ("number", ("apd_efficiency",)), 3: ("integer", ("truncation",))}),
    "pair_projected_state": Row(
        fock.pair_projected_state, (0.3, 0.95, 16),
        {0: ("number", ("squeezing",)), 1: ("number", ("transmittance",)),
         2: ("integer", ("truncation",))}),
    "fock_sign_correlation": Row(
        fock.fock_sign_correlation, (RHO, 0.0, 0.0, 0.95),
        {0: ("record", ("rho",)), 1: ("angle", ("angles",)),
         2: ("angle", ("angles",)), 3: ("number", ("homodyne_efficiency",))}),
    "fock_chsh": Row(fock.fock_chsh, (RHO, ANGLES, 0.95),
                     {0: ("record", ("rho",)), 1: ("shaped", ("angles",)),
                      2: ("number", ("homodyne_efficiency",))}),
    "fock_optimal_product": Row(fock.fock_optimal_product, (0.95, 5e-4),
                                {0: ("number", ("transmittance",)),
                                 1: ("number", ("tol",))}),
    "wigner_values": Row(fock.wigner_values, (RHO, np.zeros(4)),
                         {0: ("record", ("rho",)),
                          1: ("shaped", ("phase-space points",))}),
}

#: exported names with no catalogued argument of their own: records the
#: package builds and fills, and the error classes
RECORDS = {"BellResult", "BivariateMixture", "SignedGaussianMixture",
           "MCResult", "ConfigError",
           "CVBellError", "DomainError", "EnvelopeError",
           "InvalidRegimeError", "OptimizationError", "SingularMatrixError",
           "TruncationError"}


def public_names() -> set:
    """Every name `cvbell` exports and every public `fock` function."""
    exported = {name for name, value in vars(cvbell).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    fock_functions = {name for name, value in vars(fock).items()
                      if not name.startswith("_")
                      and inspect.isfunction(value)
                      and value.__module__ == fock.__name__}
    return exported | fock_functions


def test_every_public_name_has_a_row():
    # a new export or fock function fails here until it gets a row
    assert public_names() == set(ENTRY_POINTS) | RECORDS
    assert not set(ENTRY_POINTS) & RECORDS


def _outcome(row: Row, index: int, value):
    """(result, None) of row's call with argument index set to value, or
    (None, the exception)."""
    args = list(row.args)
    args[index] = value
    try:
        return row.call(*args), None
    except Exception as exc:
        return None, exc


def _plain(value):
    """value with every dataclass turned into the tuple of its fields, for
    `np.testing.assert_equal`."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return tuple(_plain(getattr(value, f.name))
                     for f in dataclasses.fields(value))
    if isinstance(value, (list, tuple)):
        return type(value)(_plain(v) for v in value)
    return value


CASES = [(name, index, case) for name, row in ENTRY_POINTS.items()
         for index in row.inputs for case in CATALOGUE]


@pytest.mark.parametrize("name, index, case", CASES,
                         ids=[f"{n}-{i}-{c}" for n, i, c in CASES])
def test_catalogue(name, index, case):
    row = ENTRY_POINTS[name]
    kind, names = row.inputs[index]
    value = CATALOGUE[case]
    result, error = _outcome(row, index, value)
    if case in MUST_REFUSE[kind]:
        assert isinstance(error, DomainError), (result, error)
        assert any(n in str(error) for n in names), error
    elif case in AS_FLOAT:
        plain = int(value) if kind == "integer" else float(value)
        expected, expected_error = _outcome(row, index, plain)
        assert (type(error), str(error)) == \
            (type(expected_error), str(expected_error))
        if error is None:
            np.testing.assert_equal(_plain(result), _plain(expected))
    else:
        # a float or an accepted array: the package's typed errors only
        assert error is None or isinstance(error, CVBellError), error
