"""The four seeded workloads of the cvbell benchmark.

Each workload is a closed loop with one caller.  `inputs(seed)` yields the
parameters of one op after another, so a seed fixes the whole op sequence;
the package sees only those parameters.  `execute` makes the timed calls,
through the entry points the CLI subcommands use, and records each call's
wall time under a key.  `verify` then checks the outputs, untimed and
untraced, against the acceptance bands of the package's test suite.

Why these four: `point` and `scan` load the same closed-form layers, one
call at a time and in batches, so a batching gain that costs single calls
shows on one of them.  `mc_campaign` is where the Monte Carlo sampler does
almost all the work, and `fock_referee` is where the photon-number route
does.  No op passes `threads=`, so the benchmark runs unchanged on code
that has dropped the thread pools.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np
from scipy.special import ndtri

from cvbell import bell, conditioning, errors, fock, montecarlo

REALISTIC = dict(squeezing=0.6, transmittance=0.95, apd_efficiency=0.3,
                 homodyne_efficiency=0.95)

TSIRELSON = 2.0 * math.sqrt(2.0)

#: z tests one run may make; a correct program fails a run that makes this
#: many with probability below 1e-4 (two-sided normal tails, union bound)
MAX_Z_TESTS = 1000
Z_BOUND = float(-ndtri(1e-4 / (2 * MAX_Z_TESTS)))

#: direction of the published Wigner-function cut, (x_A, p_A, x_B, p_B)
CUT_DIRECTION = np.array([1.0, 0.0, -1.0, 0.0]) / math.sqrt(2.0)


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the ops: `FULL` for the benchmark, `TINY` for tests."""

    #: points per sweep row; None = the row lengths of `SWEEP_ROWS`
    sweep_points: int | None = None
    mc_events: int = 100_000
    #: quadrature samples per CHSH setting
    mc_samples: int = 50_000
    fock_trunc: int = 40
    wigner_points: int = 41
    #: tolerance passed to `fock.fock_optimal_product`; None = its default
    product_tol: float | None = None


FULL = Sizes()
TINY = Sizes(sweep_points=4, mc_events=8192, mc_samples=5000,
             wigner_points=9, product_tol=5e-3)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile; NaN for no values."""
    return float(np.percentile(values, q)) if len(values) else float("nan")


def timed(timings: dict, key: str, fn, *args, **kwargs):
    """Call fn and add its wall time to timings[key]."""
    start = perf_counter()
    out = fn(*args, **kwargs)
    timings[key] = timings.get(key, 0.0) + perf_counter() - start
    return out


def _track(accuracy: dict, key: str, value: float) -> None:
    accuracy[key] = max(accuracy.get(key, 0.0), float(value))


def _chsh_bounds(result, problems: list) -> None:
    """|E| <= 1, |S| <= 2*sqrt(2) and 0 < P <= 1 for a `bell.chsh` result."""
    if not np.all(np.abs(result.correlators) <= 1.0 + 1e-12):
        problems.append(f"correlator outside [-1, 1]: {result.correlators}")
    if not abs(result.S) <= TSIRELSON + 1e-9:
        problems.append(f"S={result.S} breaks the Tsirelson bound")
    if not 0.0 < result.success_prob <= 1.0:
        problems.append(f"P={result.success_prob} outside (0, 1]")


class Workload:
    """Defaults shared by the workloads below."""

    warmup_ops = 1
    work_units = 1

    def __init__(self, sizes: Sizes = FULL):
        self.sizes = sizes

    def units(self, inp: dict) -> int:
        """Work units one op on inp does in its `work_calls`."""
        return self.work_units

    def refused(self, inp: dict, exc: Exception) -> bool:
        """Whether exc is a refusal the op may meet, rather than a failure."""
        return False


class Point(Workload):
    """One `bell.chsh` per op, on fresh parameters and random angles.

    About one draw in ten comes from the small-P corner, where the package
    refuses some points with InvalidRegimeError; those count as refused.
    Op 0 is the realistic operating point (the acceptance sentinel).
    """

    name = "point"
    headline = "chsh"
    work_calls = ("chsh",)
    warmup_ops = 20

    def inputs(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        for index in itertools.count():
            corner = bool(rng.random() < 0.1)
            if corner:
                lam = 10.0 ** rng.uniform(-4.0, -1.0)
                t = rng.uniform(0.99, 0.9999)
            else:
                lam, t = rng.uniform(0.3, 0.65), rng.uniform(0.9, 0.99)
            params = dict(squeezing=lam, transmittance=t,
                          apd_efficiency=rng.uniform(0.1, 1.0),
                          homodyne_efficiency=rng.uniform(0.85, 1.0),
                          angles=tuple(rng.uniform(-np.pi, np.pi, 4)))
            checked = rng.random() < 1 / 16
            quadrature_pair = int(rng.integers(4)) if checked else None
            sentinel = index == 0
            if sentinel:
                corner, params = False, dict(REALISTIC)
            yield dict(params=params, corner=corner, sentinel=sentinel,
                       quadrature_pair=quadrature_pair)

    def refused(self, inp: dict, exc: Exception) -> bool:
        return inp["corner"] and isinstance(exc, errors.InvalidRegimeError)

    def execute(self, inp: dict, timings: dict):
        params = bell.ExperimentParams(**inp["params"])
        return timed(timings, "chsh", bell.chsh, params)

    def verify(self, inp: dict, result, accuracy: dict) -> list:
        problems = []
        _chsh_bounds(result, problems)
        if inp["sentinel"]:
            if not (2.01 <= result.S <= 2.03
                    and 2.0e-4 <= result.success_prob <= 3.2e-4):
                problems.append(f"realistic point: S={result.S}, "
                                f"P={result.success_prob}")
        pair = inp["quadrature_pair"]
        if pair is not None:
            params = bell.ExperimentParams(**inp["params"])
            state = conditioning.conditional_state(params.output_covariance())
            j, k = divmod(pair, 2)
            marginal = bell.rotated_marginal(state, params.angles[j],
                                             params.angles[2 + k])
            diff = abs(result.correlators[j, k]
                       - bell.sign_correlation_quadrature(marginal))
            if inp["corner"]:
                # the 1e-6 band is stated for the acceptance domain only;
                # here the cancellation at small P is reported, not gated
                _track(accuracy, "bell.quadrature_dE_max_corner", diff)
            else:
                _track(accuracy, "bell.quadrature_dE_max", diff)
                if not diff < 1e-6:
                    problems.append(
                        f"closed form vs quadrature: |dE|={diff:.2e}")
        return problems

    def report(self, calls: dict, work_per_s: float) -> dict:
        chsh = calls.get("chsh", [])
        return {"point.chsh_p50_ms": (1e3 * percentile(chsh, 50), "ms"),
                "point.chsh_p90_ms": (1e3 * percentile(chsh, 90), "ms")}

    def baseline(self) -> list:
        return [("chsh (one point)", 1.47e-3, "chsh", 1.0)]


#: sweep rows the CLI runs, (axis, first, last, points): the `fig2`
#: panels b, c and d (`cli.cmd_fig2`), then the `[sweep]` section of the
#: example configuration in the README, which `cli.cmd_sweep` runs
SWEEP_ROWS = (("squeezing", 0.05, 0.90, 35),
              ("apd_efficiency", 0.05, 1.0, 20),
              ("homodyne_efficiency", 0.80, 1.0, 21),
              ("homodyne_efficiency", 0.85, 1.0, 16))


class Scan(Workload):
    """One `bell.sweep` row plus one `bell.optimize_lambda` per op.

    Each row is one of `SWEEP_ROWS`, the grids of the `fig2` and `sweep`
    subcommands, drawn with equal odds by the seed.  It runs through a
    seeded fixed point at the sweet-spot product lambda*T = 0.57, as
    those subcommands do.  `optimize_lambda` runs at ideal homodyne
    efficiency, the only case for which the acceptance suite states the
    band 0.55 <= lambda*T <= 0.60 (at 90-99% homodyne efficiency the
    optimum moves up to about 0.67).
    """

    name = "scan"
    headline = "optimize_lambda"
    work_calls = ("sweep",)

    def inputs(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        while True:
            t = rng.uniform(0.9, 0.99)
            fixed = dict(squeezing=0.57 / t, transmittance=t,
                         apd_efficiency=rng.uniform(0.1, 1.0),
                         homodyne_efficiency=rng.uniform(0.85, 1.0))
            row = int(rng.integers(len(SWEEP_ROWS)))
            yield dict(row=row, axis=SWEEP_ROWS[row][0], fixed=fixed,
                       spot=int(rng.integers(len(self._grid(row)))),
                       optimize=(rng.uniform(0.9, 0.99),
                                 rng.uniform(0.1, 1.0), 1.0))

    def _grid(self, row: int) -> np.ndarray:
        _, first, last, points = SWEEP_ROWS[row]
        return np.linspace(first, last, self.sizes.sweep_points or points)

    def units(self, inp: dict) -> int:
        return len(self._grid(inp["row"]))

    def execute(self, inp: dict, timings: dict):
        fixed = bell.ExperimentParams(**inp["fixed"])
        grid = self._grid(inp["row"])
        rows = timed(timings, "sweep", bell.sweep, inp["axis"], grid, fixed)
        timings["sweep_point"] = timings["sweep"] / len(grid)
        best = timed(timings, "optimize_lambda", bell.optimize_lambda,
                     *inp["optimize"])
        return rows, best

    def verify(self, inp: dict, out, accuracy: dict) -> list:
        rows, (lam_opt, s_max) = out
        problems = []
        grid = self._grid(inp["row"])
        if [row.value for row in rows] != [float(v) for v in grid]:
            problems.append("sweep rows do not follow the grid")
            return problems
        for row in rows:
            if row.error or not (abs(row.S) <= TSIRELSON + 1e-9
                                 and 0.0 < row.success_prob <= 1.0):
                problems.append(f"sweep point {row}")
        spot = rows[inp["spot"]]
        fixed = bell.ExperimentParams(**inp["fixed"])
        single = bell.chsh(replace(fixed, **{inp["axis"]: spot.value}))
        if not (abs(single.S - spot.S) <= 1e-9 and abs(
                single.success_prob - spot.success_prob)
                <= 1e-9 * single.success_prob):
            problems.append(f"sweep point {spot} differs from chsh {single}")
        product = lam_opt * inp["optimize"][0]
        if not (0.55 <= product <= 0.60 and math.isfinite(s_max)):
            problems.append(f"optimize_lambda: lambda*T={product}, S={s_max}")
        return problems

    def report(self, calls: dict, work_per_s: float) -> dict:
        return {"scan.points_per_s": (work_per_s, "1/s"),
                "scan.optimize_p50_ms": (1e3 * percentile(
                    calls.get("optimize_lambda", []), 50), "ms")}

    def baseline(self) -> list:
        return [("optimize_lambda", 55e-3, "optimize_lambda", 1.0),
                ("100-point sweep", 0.18, "sweep_point", 100.0)]


class MCCampaign(Workload):
    """One `montecarlo.run_protocol` campaign plus four
    `montecarlo.sample_joint_quadratures` draws per op.

    The campaign runs at the realistic operating point.  The draws sample
    the `bell.rotated_marginal` of each of the four CHSH settings, with
    seeded sampler seeds.  The sampler's cost depends on the angles, so
    every op draws at every setting: the fastest op of a run then covers
    all four, and stays comparable between seeds.
    """

    name = "mc_campaign"
    headline = "sample_joint_quadratures"
    work_calls = ("run_protocol",)

    def __init__(self, sizes: Sizes = FULL):
        super().__init__(sizes)
        self.work_units = sizes.mc_events
        self._closed = None

    def inputs(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        while True:
            yield dict(protocol_seed=int(rng.integers(2 ** 63)),
                       sample_seeds=tuple(int(v) for v in
                                          rng.integers(2 ** 63, size=4)))

    def execute(self, inp: dict, timings: dict):
        params = bell.ExperimentParams(**REALISTIC)
        config = montecarlo.ProtocolConfig(
            params=params, n_target_events=self.sizes.mc_events,
            seed=inp["protocol_seed"])
        result = timed(timings, "run_protocol", montecarlo.run_protocol,
                       config)
        state = conditioning.conditional_state(params.output_covariance())
        draws = []
        for setting, sample_seed in enumerate(inp["sample_seeds"]):
            j, k = divmod(setting, 2)
            marginal = bell.rotated_marginal(state, params.angles[j],
                                             params.angles[2 + k])
            draws.append((marginal, timed(
                timings, "sample_joint_quadratures",
                montecarlo.sample_joint_quadratures, marginal,
                self.sizes.mc_samples, sample_seed)))
        return result, draws

    def verify(self, inp: dict, out, accuracy: dict) -> list:
        result, draws = out
        if self._closed is None:
            self._closed = bell.chsh(bell.ExperimentParams(**REALISTIC))
        closed = self._closed
        n = self.sizes.mc_events
        problems = []
        if int(result.counts.sum()) != n or not result.s_available:
            problems.append(
                f"campaign collected {result.counts} for {n} events")
            return problems
        p = closed.success_prob
        z_tests = {
            "S": abs(result.S_hat - closed.S) / result.stderr_S,
            "P": abs(result.P_hat - p) / (p * math.sqrt((1.0 - p) / n)),
        }
        n_samples = self.sizes.mc_samples
        for setting, (marginal, samples) in enumerate(draws):
            if (samples.shape != (n_samples, 2)
                    or not np.all(np.isfinite(samples))):
                problems.append(f"quadrature samples of shape {samples.shape}")
                return problems
            signs = np.where(samples >= 0.0, 1.0, -1.0)
            e_mc = float(np.mean(signs[:, 0] * signs[:, 1]))
            e_closed = bell.sign_correlation(marginal)
            z_tests[f"E{setting}"] = abs(e_mc - e_closed) / math.sqrt(
                max(1.0 - e_closed ** 2, 1e-12) / n_samples)
        for label, z in z_tests.items():
            _track(accuracy, "montecarlo.z_max", z)
            if not z <= Z_BOUND:
                problems.append(f"MC {label} is {z:.2f} standard errors from "
                                f"the closed form (bound {Z_BOUND:.2f})")
        return problems

    def report(self, calls: dict, work_per_s: float) -> dict:
        samples_s = sum(calls["sample_joint_quadratures"])
        count = 4 * len(calls["sample_joint_quadratures"])
        return {"mc.events_per_s": (work_per_s, "1/s"),
                "mc.samples_per_s": (count * self.sizes.mc_samples / samples_s,
                                     "1/s")}

    def baseline(self) -> list:
        return [("run_protocol, 1e5 events", 0.34, "run_protocol",
                 1e5 / self.sizes.mc_events)]


class FockReferee(Workload):
    """One criterion-7 draw per op: `fock.lossy_click_conditioning` at N=40
    and the lossy `fock.fock_sign_correlation`, checked against the closed
    form.  Op 0 also runs the once-per-run referee checks: the ideal
    correlator and a `fock.wigner_values` cut on the same heralded state,
    and `fock.fock_optimal_product` at a seeded transmittance.
    """

    name = "fock_referee"
    headline = "correlator_lossy"
    work_calls = ("lossy_click_conditioning", "correlator_lossy")
    warmup_ops = 0

    def inputs(self, seed: int):
        rng = np.random.default_rng([seed, 4])
        for index in itertools.count():
            yield dict(squeezing=rng.uniform(0.3, 0.65),
                       transmittance=rng.uniform(0.9, 0.99),
                       apd_efficiency=rng.uniform(0.1, 1.0),
                       homodyne_efficiency=rng.uniform(0.85, 1.0),
                       theta=rng.uniform(-np.pi, np.pi),
                       phi=rng.uniform(-np.pi, np.pi),
                       product_transmittance=rng.uniform(0.9, 0.99),
                       extras=index == 0)

    def _cut_points(self) -> np.ndarray:
        offsets = np.linspace(-3.0, 3.0, self.sizes.wigner_points)
        return offsets[:, None] * CUT_DIRECTION[None, :]

    def execute(self, inp: dict, timings: dict):
        rho, p_click = timed(timings, "lossy_click_conditioning",
                             fock.lossy_click_conditioning, inp["squeezing"],
                             inp["transmittance"], inp["apd_efficiency"],
                             self.sizes.fock_trunc)
        out = dict(p_click=p_click, lossy=timed(
            timings, "correlator_lossy", fock.fock_sign_correlation, rho,
            inp["theta"], inp["phi"], inp["homodyne_efficiency"]))
        if inp["extras"]:
            out["ideal"] = timed(timings, "correlator_ideal",
                                 fock.fock_sign_correlation, rho,
                                 inp["theta"], inp["phi"], 1.0)
            out["wigner"] = timed(timings, "wigner_cut", fock.wigner_values,
                                  rho, self._cut_points())
            tol = self.sizes.product_tol
            out["product"] = timed(timings, "optimal_product",
                                   fock.fock_optimal_product,
                                   inp["product_transmittance"],
                                   **({} if tol is None else {"tol": tol}))
        return out

    def _closed_state(self, inp: dict, homodyne_efficiency: float):
        params = bell.ExperimentParams(
            inp["squeezing"], inp["transmittance"], inp["apd_efficiency"],
            homodyne_efficiency)
        return conditioning.conditional_state(params.output_covariance())

    def _correlator_check(self, label, e_fock, state, inp, accuracy, problems):
        marginal = bell.rotated_marginal(state, inp["theta"], inp["phi"])
        diff = abs(e_fock - bell.sign_correlation(marginal))
        _track(accuracy, "fock.closed_form_dE_max", diff)
        if not diff < 1e-4:
            problems.append(f"{label} Fock vs closed form: |dE|={diff:.2e}")

    def verify(self, inp: dict, out, accuracy: dict) -> list:
        problems = []
        state = self._closed_state(inp, inp["homodyne_efficiency"])
        self._correlator_check("lossy", out["lossy"], state, inp, accuracy,
                               problems)
        rel = abs(state.success_prob - out["p_click"]) / out["p_click"]
        if not rel < 1e-3:
            problems.append(f"Fock click rate vs closed-form P: rel {rel:.2e}")
        if inp["extras"]:
            ideal = self._closed_state(inp, 1.0)
            self._correlator_check("ideal", out["ideal"], ideal, inp,
                                   accuracy, problems)
            w_closed = conditioning.wigner_value(ideal, self._cut_points())
            mask = np.abs(w_closed) > 1e-8
            rel_w = float(np.max(np.abs((w_closed[mask] - out["wigner"][mask])
                                        / w_closed[mask])))
            if not rel_w < 1e-6:
                problems.append(f"Wigner cut vs closed form: rel {rel_w:.2e}")
            product, _ = out["product"]
            if not 0.55 <= product <= 0.60:
                problems.append(f"Fock optimal lambda*T={product}")
        return problems

    def report(self, calls: dict, work_per_s: float) -> dict:
        return {"fock.correlator_p50_s":
                    (percentile(calls.get("correlator_lossy", []), 50), "s"),
                "fock.optimal_product_s":
                    (percentile(calls.get("optimal_product", []), 50), "s"),
                "fock.wigner_cut_s":
                    (percentile(calls.get("wigner_cut", []), 50), "s")}

    def baseline(self) -> list:
        return [("lossy_click_conditioning, N=40", 0.17,
                 "lossy_click_conditioning", 1.0),
                ("sign correlator with homodyne loss", 1.1,
                 "correlator_lossy", 1.0),
                ("sign correlator without loss", 0.22, "correlator_ideal",
                 1.0),
                ("fock_optimal_product", 5.4, "optimal_product", 1.0)]


WORKLOADS = {cls.name: cls for cls in (Point, Scan, MCCampaign, FockReferee)}
