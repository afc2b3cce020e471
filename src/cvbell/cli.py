"""Command-line front end.

Subcommands: chsh, fig2, sweep, optimize, mc, validate.  Results are
emitted as CSV or JSON tables with 12 significant digits so repeated
runs are byte-identical and diffable.

Exit codes: 0 success, 2 usage/config error, 3 domain error,
4 validation failure, 5 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bell, conditioning, fock, gaussian, inputs, montecarlo
from .config import RunConfig, load_config
from .errors import CVBellError, ConfigError, DomainError, InvalidRegimeError
from .montecarlo import ProtocolConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_VALIDATION = 4
EXIT_IO = 5

#: λ·T product used for the detector-efficiency panels
SWEET_PRODUCT = 0.57

FIG2_TRANSMITTANCES = (0.9, 0.95, 0.99)

#: direction of the published Wigner-function cut, (x_A, p_A, x_B, p_B)
CUT_DIRECTION = np.array([1.0, 0.0, -1.0, 0.0]) / np.sqrt(2.0)


def fmt(value) -> str:
    """Fixed 12-significant-digit rendering for floats; bools as JSON
    spells them."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _json_value(value):
    if isinstance(value, float):
        return float(fmt(value)) if np.isfinite(value) else None
    return value


def write_table(rows: list[dict], path: str, fmt_name: str):
    """Emit rows as CSV or JSON; empty path writes to stdout."""
    if fmt_name == "json":
        payload = [{k: _json_value(v) for k, v in row.items()} for row in rows]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        if rows:
            header = list(rows[0].keys())
            writer.writerow(header)
            for row in rows:
                writer.writerow([fmt(row[k]) for k in header])
        text = buffer.getvalue()
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}")


def cmd_chsh(cfg: RunConfig) -> int:
    result = bell.chsh(cfg.params())
    row = {
        "lambda": cfg.squeezing, "T": cfg.transmittance,
        "eta": cfg.apd_efficiency, "eta_bhd": cfg.homodyne_efficiency,
        **{f"E{j+1}{k+1}": float(result.correlators[j, k])
           for j in range(2) for k in range(2)},
        "S": result.S, "P": result.success_prob,
    }
    write_table([row], cfg.output_path, cfg.output_format)
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    grid = cfg.sweep_grid()
    axis = inputs.SWEEP_KEYS[cfg.sweep_axis]
    points = bell.sweep(axis, grid, cfg.params())
    rows = [{"axis": cfg.sweep_axis, "value": p.value, "S": p.S,
             "P": p.success_prob, "error": p.error or ""} for p in points]
    write_table(rows, cfg.output_path, cfg.output_format)
    return EXIT_OK


def cmd_optimize(cfg: RunConfig) -> int:
    lam_opt, s_max = bell.optimize_lambda(
        cfg.transmittance, cfg.apd_efficiency, cfg.homodyne_efficiency,
        angles=(cfg.theta1, cfg.theta2, cfg.phi1, cfg.phi2))
    row = {
        "T": cfg.transmittance, "eta": cfg.apd_efficiency,
        "eta_bhd": cfg.homodyne_efficiency,
        "lambda_opt": lam_opt, "S_max": s_max,
        "lambda_T_product": lam_opt * cfg.transmittance,
    }
    write_table([row], cfg.output_path, cfg.output_format)
    return EXIT_OK


def cmd_mc(cfg: RunConfig) -> int:
    protocol = ProtocolConfig(params=cfg.params(),
                              n_target_events=cfg.n_target_events,
                              seed=cfg.seed, rep_rate=cfg.rep_rate)
    result = montecarlo.run_protocol(protocol)
    row = {
        "seed": cfg.seed, "n_events": cfg.n_target_events,
        "rep_rate": cfg.rep_rate,
        "S_hat": result.S_hat, "stderr_S": result.stderr_S,
        "P_hat": result.P_hat, "total_pulses": result.total_pulses,
        "sim_seconds": result.wall_sim_time,
        "s_available": result.s_available,
    }
    for j in range(2):
        for k in range(2):
            n = int(result.counts[j, k])
            row[f"E{j+1}{k+1}"] = (result.product_sums[j, k] / n
                                   if n else float("nan"))
            row[f"N{j+1}{k+1}"] = n
    write_table([row], cfg.output_path, cfg.output_format)
    return EXIT_OK


def _fig2_panel_a() -> list[dict]:
    params = bell.ExperimentParams(squeezing=0.5, transmittance=0.95,
                                   apd_efficiency=0.3, homodyne_efficiency=1.0)
    state = conditioning.conditional_state(params.output_covariance())
    offsets = np.linspace(-3.0, 3.0, 121)
    cut = conditioning.wigner_cut(state, CUT_DIRECTION, offsets)
    return [{"axis": float(offset), "series": "wigner_cut", "value": float(w)}
            for offset, w in cut]


def _fig2_sweep_rows(axis: str, grid, series) -> list[dict]:
    """Rows of a fig2 panel: S along one axis for every (label, fixed
    parameters) series, all series stacked into one closed-form call.  A
    point the closed form refuses holds NaN, as in `bell.sweep`."""
    grid = np.asarray(grid, dtype=float)
    stack = np.concatenate([bell._rows(fixed, axis, grid)
                            for _, fixed in series], axis=1)
    corr, _, _, _ = bell._evaluate(stack, bell.DEFAULT_ANGLES)
    values = iter(bell.chsh_value(corr))
    return [{"axis": float(v), "series": label, "value": float(next(values))}
            for label, _ in series for v in grid]


def cmd_fig2(cfg: RunConfig) -> int:
    out_dir = Path(cfg.output_path or "fig2")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IOError(f"cannot create output directory {out_dir}: {exc}")
    ext = cfg.output_format

    def ideal(transmittance):
        return dict(squeezing=0.5, transmittance=transmittance,
                    apd_efficiency=1.0, homodyne_efficiency=1.0)

    def sweet(transmittance, eta, eta_bhd):
        return dict(squeezing=SWEET_PRODUCT / transmittance,
                    transmittance=transmittance, apd_efficiency=eta,
                    homodyne_efficiency=eta_bhd)

    series = [(f"T={t:.2f}", t) for t in FIG2_TRANSMITTANCES]
    panels = {
        "fig2a": _fig2_panel_a(),
        "fig2b": _fig2_sweep_rows(
            "squeezing", np.linspace(0.05, 0.90, 35),
            [(label, ideal(t)) for label, t in series]),
        "fig2c": _fig2_sweep_rows(
            "apd_efficiency", np.linspace(0.05, 1.0, 20),
            [(label, sweet(t, 0.3, 1.0)) for label, t in series]),
        "fig2d": _fig2_sweep_rows(
            "homodyne_efficiency", np.linspace(0.80, 1.0, 21),
            [(label, sweet(t, 0.3, 1.0)) for label, t in series]),
    }
    for name, rows in panels.items():
        write_table(rows, str(out_dir / f"{name}.{ext}"), cfg.output_format)
    return EXIT_OK


def _validation_checks(cfg: RunConfig) -> list[dict]:
    """Cross-formalism agreement checks between the three computations."""
    rows = []

    def record(name, value, tolerance):
        rows.append({"check": name,
                     "status": "PASS" if value < tolerance else "FAIL",
                     "value": float(value), "tolerance": float(tolerance)})

    params = cfg.params()
    n_trunc = cfg.n_trunc

    # the two-mode squeezed vacuum is the AB block at unit transmittance
    cov = gaussian.from_x_block(
        gaussian.x_block(params.squeezing, 1.0, 1.0, 1.0))[:4, :4]
    moments = fock.second_moments(fock.tmsv_state(params.squeezing,
                                                  max(n_trunc, 60)))
    err = float(np.max(np.abs(cov - moments)))
    record("tmsv_covariance_vs_fock_moments", err, 1e-8)

    state = conditioning.conditional_state(params.output_covariance())
    rho, p_click = fock.lossy_click_conditioning(
        params.squeezing, params.transmittance, params.apd_efficiency, n_trunc)
    rel = abs(state.success_prob - p_click) / p_click
    record("success_prob_vs_fock_click_rate", rel, 1e-3)

    theta, phi = params.angles[0], params.angles[2]
    marginal = bell.rotated_marginal(state, theta, phi)
    e_closed = bell.sign_correlation(marginal)
    e_quad = bell.sign_correlation_quadrature(marginal)
    record("closed_form_vs_quadrature_E", abs(e_closed - e_quad), 1e-6)

    e_fock = fock.fock_sign_correlation(rho, theta, phi,
                                        params.homodyne_efficiency)
    record("closed_form_vs_fock_E", abs(e_closed - e_fock), 1e-4)

    # the Fock heralded state carries no homodyne loss, so compare against
    # the Gaussian pipeline with ideal homodynes
    ideal_params = replace(params, homodyne_efficiency=1.0)
    ideal_state = conditioning.conditional_state(ideal_params.output_covariance())
    offsets = np.linspace(-3.0, 3.0, 41)
    points = offsets[:, None] * CUT_DIRECTION[None, :]
    w_gauss = conditioning.wigner_value(ideal_state, points)
    w_fock = fock.wigner_values(rho, points)
    mask = np.abs(w_gauss) > 1e-8
    rel_w = float(np.max(np.abs((w_gauss[mask] - w_fock[mask])
                                / w_gauss[mask])))
    record("wigner_gaussian_vs_fock", rel_w, 1e-6)

    n_mc = min(cfg.n_target_events, 200_000)
    samples = montecarlo.sample_joint_quadratures(marginal, n_mc, cfg.seed)
    signs = np.where(samples >= 0.0, 1.0, -1.0)
    e_mc = float(np.mean(signs[:, 0] * signs[:, 1]))
    stderr = float(np.sqrt(max(1.0 - e_mc ** 2, 1e-12) / n_mc))
    record("mc_E_within_3_stderr", abs(e_mc - e_closed), 3 * stderr)
    return rows


def cmd_validate(cfg: RunConfig) -> int:
    rows = _validation_checks(cfg)
    write_table(rows, cfg.output_path, cfg.output_format)
    if any(row["status"] == "FAIL" for row in rows):
        return EXIT_VALIDATION
    return EXIT_OK


COMMANDS = {
    "chsh": cmd_chsh,
    "fig2": cmd_fig2,
    "sweep": cmd_sweep,
    "optimize": cmd_optimize,
    "mc": cmd_mc,
    "validate": cmd_validate,
}

#: subcommands that can run without a config file (all-default parameters)
_DEFAULTABLE = ("fig2", "validate", "optimize")

_DEFAULT_CONFIG = RunConfig(squeezing=0.6, transmittance=0.95,
                            apd_efficiency=0.3, homodyne_efficiency=0.95)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvbell",
        description="Bell-CHSH statistics of photon-subtracted two-mode "
                    "squeezed vacuum with homodyne detection")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="path to an INI run configuration")
        cmd.add_argument("--out", help="output file (fig2: output directory)")
        cmd.add_argument("--format", choices=("csv", "json"),
                         help="output format override")
        cmd.add_argument("--seed", type=int, help="random seed override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            cfg = load_config(args.config)
        elif args.command in _DEFAULTABLE:
            cfg = _DEFAULT_CONFIG
        else:
            raise ConfigError(f"subcommand {args.command!r} requires --config")
        overrides = {}
        if args.out is not None:
            overrides["output_path"] = args.out
        if args.format is not None:
            overrides["output_format"] = args.format
        if args.seed is not None:
            overrides["seed"] = args.seed
        if overrides:
            cfg = replace(cfg, **overrides)
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, InvalidRegimeError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except CVBellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except IOError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
