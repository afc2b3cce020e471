"""Per-layer spans for the cvbell benchmark, recorded from outside the package.

A `Tracer` swaps the public functions listed in `LAYERS` for timing
wrappers while an op runs, and restores them afterwards.  A function is
replaced under every name a cvbell module binds it to, so calls between
modules (`conditioning` calling `spd_inverse`, which it imported by name)
are caught as well as calls through the module attribute.

Spans are kept in memory as (op, span id, parent id, name, start, end) and
written out at the end.  Self time is a span's duration minus the time of
the wrapped calls it made.  A listed function that a module no longer has
is reported in `absent` and otherwise ignored.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

#: traced functions, by module of the cvbell package
LAYERS = {
    "gaussian": ("output_covariance", "spd_inverse"),
    "conditioning": ("conditional_state", "term_covariances",
                     "normalized_term_weights"),
    "bell": ("chsh", "rotated_marginal", "sign_correlation", "sweep",
             "optimize_lambda"),
    "montecarlo": ("run_protocol", "build_envelope",
                   "sample_joint_quadratures"),
    "fock": ("lossy_click_conditioning", "apply_loss",
             "joint_quadrature_density", "fock_sign_correlation",
             "fock_optimal_product", "pair_projected_state",
             "hermite_functions", "wigner_values", "wigner_pair_table"),
}

TRACED = tuple(f"{module}.{fn}"
               for module, fns in LAYERS.items() for fn in fns)


def _dense_bytes(value) -> int:
    """Bytes of a dense two-mode density (n, n, n, n) passed as an argument."""
    entries = getattr(value, "entries", value)
    if isinstance(entries, np.ndarray) and entries.ndim == 4:
        return entries.nbytes
    return 0


class Tracer:
    """Timing wrappers for the functions in `LAYERS`, on while an op runs."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.accept_rates: list[float] = []
        self.events = 0
        self.density_bytes = 0
        self._op = -1
        self._next_id = 0
        self._stack: list[list] = []
        self._patches: list[tuple] = []

        modules = [mod for key, mod in sys.modules.items()
                   if key == "cvbell" or key.startswith("cvbell.")]
        for name in TRACED:
            module_name, fn_name = name.split(".")
            original = getattr(sys.modules.get(f"cvbell.{module_name}"),
                               fn_name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))

    def _observe(self, name: str, args: tuple, result) -> None:
        """Health values read from the arguments and results of some calls."""
        module = name.split(".")[0]
        if module == "fock":
            self.density_bytes += sum(_dense_bytes(a) for a in args)
        elif name == "montecarlo.build_envelope":
            rate = getattr(result, "accept_rate", None)
            if rate is not None:
                self.accept_rates.append(float(rate))
        elif name == "montecarlo.run_protocol":
            self.events += int(np.sum(getattr(result, "counts", 0)))

    def _span(self, name: str, fn, args: tuple, kwargs: dict):
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += end - start
            self.calls[name] += 1
            self.self_s[name] += end - start - frame[1]
            self.spans.append((self._op, frame[0], parent, name, start, end))

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self._span(name, fn, args, kwargs)
            self._observe(name, args, result)
            return result
        return traced

    def run(self, index: int, fn, *args):
        """Call fn(*args) as op `index`, under a root span named "op"."""
        self._op = index
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            return self._span("op", fn, args, {})
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)

    def write(self, path) -> None:
        """Write the spans as tab-separated lines, times in seconds."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for op, span, parent, name, start, end in self.spans:
                handle.write(f"{op}\t{span}\t{parent}\t{name}\t"
                             f"{start:.9f}\t{end:.9f}\n")
