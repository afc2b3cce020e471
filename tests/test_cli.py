import csv
import json

import numpy as np
import pytest

from cvbell import cli
from cvbell.config import (RunConfig, load_config, parse_config,
                           serialize_config)
from cvbell.errors import ConfigError

BASE_CONFIG = """\
[params]
lambda = 0.6
T = 0.95
eta = 0.3
eta_bhd = 0.95
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


class TestConfig:
    def test_round_trip_identity(self):
        # a seed above 2^53 survives: integer text is parsed exactly
        cfg = parse_config(BASE_CONFIG + "\n[sweep]\naxis = eta_bhd\n"
                           "min = 0.85\nmax = 1.0\nsteps = 7\n"
                           "\n[mc]\nseed = 9007199254740993\n")
        assert cfg.seed == 9007199254740993
        assert parse_config(serialize_config(cfg)) == cfg

    def test_round_trip_preserves_defaults(self):
        cfg = parse_config(BASE_CONFIG)
        again = parse_config(serialize_config(cfg))
        assert again == cfg
        assert again.seed == 12345 and again.output_format == "csv"

    def test_missing_field_names_it(self):
        with pytest.raises(ConfigError, match="eta_bhd"):
            parse_config("[params]\nlambda = 0.5\nT = 0.95\neta = 0.3\n")

    def test_bad_number_reported(self):
        with pytest.raises(ConfigError, match="lambda"):
            parse_config(BASE_CONFIG.replace("0.6", "squeezy"))

    def test_sweep_validation(self):
        with pytest.raises(ConfigError):
            parse_config(BASE_CONFIG + "\n[sweep]\naxis = eta\n"
                         "min = 0.9\nmax = 0.5\nsteps = 5\n")
        with pytest.raises(ConfigError):
            parse_config(BASE_CONFIG + "\n[sweep]\naxis = T\n"
                         "min = 0.1\nmax = 0.5\nsteps = 5\n")

    @pytest.mark.parametrize("extra, field", [
        ("theta1 = nan\n", "theta1"),
        ("\n[mc]\nn_target_events = inf\n", "n_target_events"),
        ("\n[mc]\nseed = 1.7\n", "seed"),
        ("\n[mc]\nrep_rate = nan\n", "rep_rate"),
        ("\n[fock]\nn_trunc = 40.9\n", "n_trunc"),
        ("\n[sweep]\naxis = eta\nmin = 0.1\nmax = 0.5\nsteps = 2.9\n",
         "steps"),
        ("\n[sweep]\naxis = eta\nmin = 0.1\nmax = inf\nsteps = 5\n", "max"),
    ], ids=["theta1", "n_target_events", "seed", "rep_rate", "n_trunc",
            "steps", "max"])
    def test_non_finite_or_fractional_number_exits_usage(self, tmp_path,
                                                         capsys, extra,
                                                         field):
        cfg = write_config(tmp_path, BASE_CONFIG + extra)
        with pytest.raises(ConfigError, match=repr(field)):
            parse_config(BASE_CONFIG + extra)
        assert cli.main(["chsh", "--config", cfg]) == cli.EXIT_USAGE
        assert repr(field) in capsys.readouterr().err

    @pytest.mark.parametrize("extra, message", [
        ("\n[mc]\nsed = 5\n", "unknown field 'sed' in [mc]"),
        ("\n[monte_carlo]\nseed = 5\n", "unknown section [monte_carlo]"),
        ("\n[DEFAULT]\nseed = 5\n", "unknown section [DEFAULT]"),
    ], ids=["field", "section", "default"])
    def test_unknown_name_exits_usage(self, tmp_path, capsys, extra,
                                      message):
        cfg = write_config(tmp_path, BASE_CONFIG + extra)
        with pytest.raises(ConfigError) as info:
            parse_config(BASE_CONFIG + extra)
        assert str(info.value) == message
        assert cli.main(["chsh", "--config", cfg]) == cli.EXIT_USAGE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        (BASE_CONFIG + "\n[sweep]\naxis = eta\nmin = 0.1\nmax = 0.5\n"
         "steps = 1\n", "sweep requires steps >= 2"),
        (BASE_CONFIG + "\n[fock]\nn_trunc = 8\n", "n_trunc must be >= 16"),
        ("[params\nlambda = 0.6\n", "malformed config: "),
        ("[mc]\nseed = 5\n", "missing required section [params]"),
        (BASE_CONFIG + "\n[sweep]\naxis =\nmin = 0.1\nmax = 0.5\n"
         "steps = 5\n", "missing required field 'axis' in [sweep]"),
        (None, "cannot read config file "),
    ], ids=["steps", "n_trunc", "malformed", "no-params", "empty-axis",
            "unreadable"])
    def test_refusal_exits_usage(self, tmp_path, capsys, text, message):
        # None stands for a path that names a directory, not a file
        cfg = str(tmp_path) if text is None else write_config(tmp_path, text)
        with pytest.raises(ConfigError) as info:
            load_config(cfg)
        assert str(info.value).startswith(message)
        assert cli.main(["chsh", "--config", cfg]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"config error: {info.value}\n"

    def test_integral_float_is_an_integer(self):
        cfg = parse_config(BASE_CONFIG + "\n[mc]\nseed = 7.0\n"
                           "n_target_events = 1e3\n")
        assert (cfg.seed, cfg.n_target_events) == (7, 1000)
        assert isinstance(cfg.seed, int)

    def test_bad_format_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(squeezing=0.5, transmittance=0.95, apd_efficiency=0.3,
                      homodyne_efficiency=1.0, output_format="xml")


class TestChshCommand:
    def test_quoted_values_in_row(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "chsh.csv"
        assert cli.main(["chsh", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["S"]) == pytest.approx(2.02, abs=0.01)
        assert float(rows[0]["P"]) == pytest.approx(2.6e-4, rel=0.2)

    def test_vacuum_input_exits_domain_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG.replace("0.6", "0.0"))
        assert cli.main(["chsh", "--config", cfg]) == cli.EXIT_DOMAIN
        assert "invalid-regime" in capsys.readouterr().err

    def test_missing_field_exits_usage(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[params]\nlambda = 0.5\nT = 0.95\n"
                           "eta = 0.3\n")
        assert cli.main(["chsh", "--config", cfg]) == cli.EXIT_USAGE
        assert "eta_bhd" in capsys.readouterr().err

    def test_unwritable_output_exits_io(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        missing = tmp_path / "no_such_dir" / "x.csv"
        assert cli.main(["chsh", "--config", cfg, "--out", str(missing)]) == \
            cli.EXIT_IO

    def test_csv_to_stdout_without_a_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "chsh.csv"
        assert cli.main(["chsh", "--config", cfg, "--out", str(out)]) == 0
        assert cli.main(["chsh", "--config", cfg]) == 0
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")

    def test_without_config_exits_usage(self, capsys):
        assert cli.main(["chsh"]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            "config error: subcommand 'chsh' requires --config\n")

    def test_json_format(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "chsh.json"
        assert cli.main(["chsh", "--config", cfg, "--out", str(out),
                         "--format", "json"]) == 0
        rows = json.loads(out.read_text())
        assert rows[0]["S"] == pytest.approx(2.011, abs=0.005)

    def test_json_sweep_with_failed_point_stays_valid(self, tmp_path):
        text = BASE_CONFIG + "\n[sweep]\naxis = lambda\nmin = 0.0\n" \
            "max = 0.5\nsteps = 2\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "sweep.json"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out),
                         "--format", "json"]) == 0
        rows = json.loads(out.read_text())  # must parse as strict JSON
        assert rows[0]["S"] is None and "invalid-regime" in rows[0]["error"]
        assert rows[1]["S"] is not None


class TestSweepCommand:
    def test_rows_ordered_and_threading_stable(self, tmp_path):
        text = BASE_CONFIG + "\n[sweep]\naxis = eta_bhd\nmin = 0.85\n" \
            "max = 1.0\nsteps = 7\n"
        cfg = write_config(tmp_path, text)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        values = [float(r["value"]) for r in read_csv(out1)]
        assert values == sorted(values)

    def test_requires_sweep_section(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert cli.main(["sweep", "--config", cfg]) == cli.EXIT_USAGE

    def test_per_point_errors_survive_csv_round_trip(self, tmp_path):
        # endpoint failures are recorded in-row; messages may contain commas
        text = BASE_CONFIG + "\n[sweep]\naxis = lambda\nmin = 0.0\n" \
            "max = 1.0\nsteps = 3\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 3
        assert "invalid-regime" in rows[0]["error"]
        assert rows[1]["error"] == "" and float(rows[1]["S"]) > 0
        assert "squeezing" in rows[2]["error"]


class TestMcCommand:
    def test_reruns_identical(self, tmp_path):
        text = BASE_CONFIG + "\n[mc]\nn_target_events = 5000\nseed = 11\n"
        cfg = write_config(tmp_path, text)
        out1 = tmp_path / "mc1.csv"
        out2 = tmp_path / "mc2.csv"
        assert cli.main(["mc", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["mc", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("events, available", [(100_000, True),
                                                    (1, False)])
    def test_json_s_available_is_a_boolean(self, tmp_path, events,
                                           available):
        # 100,000 events is the README point; one event leaves three of
        # the four setting cells empty
        text = BASE_CONFIG + f"\n[mc]\nn_target_events = {events}\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "mc.json"
        assert cli.main(["mc", "--config", cfg, "--out", str(out),
                         "--format", "json"]) == 0
        assert json.loads(out.read_text())[0]["s_available"] is available

    def test_seed_flag_changes_stream(self, tmp_path):
        text = BASE_CONFIG + "\n[mc]\nn_target_events = 5000\nseed = 11\n"
        cfg = write_config(tmp_path, text)
        out1 = tmp_path / "mc1.csv"
        out2 = tmp_path / "mc2.csv"
        assert cli.main(["mc", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["mc", "--config", cfg, "--out", str(out2),
                         "--seed", "12"]) == 0
        assert out1.read_bytes() != out2.read_bytes()


@pytest.fixture(scope="module")
def fig_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig2")
    assert cli.main(["fig2", "--out", str(out)]) == 0
    return out


class TestFig2Command:
    def test_all_panels_written(self, fig_dir):
        for name in ("fig2a", "fig2b", "fig2c", "fig2d"):
            assert (fig_dir / f"{name}.csv").exists()

    def test_interior_maximum_per_series(self, fig_dir):
        rows = read_csv(fig_dir / "fig2b.csv")
        for label in ("T=0.90", "T=0.95", "T=0.99"):
            series = [(float(r["axis"]), float(r["value"]))
                      for r in rows if r["series"] == label]
            values = [v for _, v in series]
            peak = int(np.argmax(values))
            assert 0 < peak < len(values) - 1

    def test_detector_efficiency_panel_is_flat(self, fig_dir):
        rows = read_csv(fig_dir / "fig2c.csv")
        for label in ("T=0.90", "T=0.95", "T=0.99"):
            values = [float(r["value"]) for r in rows if r["series"] == label]
            assert max(values) - min(values) < 0.02

    def test_wigner_cut_goes_negative(self, fig_dir):
        rows = read_csv(fig_dir / "fig2a.csv")
        assert min(float(r["value"]) for r in rows) < 0.0

    def test_output_under_a_file_exits_io(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert cli.main(["fig2", "--out", str(blocker / "fig2")]) == \
            cli.EXIT_IO
        assert "cannot create output directory" in capsys.readouterr().err

    def test_rerun_byte_identical(self, fig_dir, tmp_path):
        again = tmp_path / "fig2_again"
        assert cli.main(["fig2", "--out", str(again)]) == 0
        for name in ("fig2a", "fig2b", "fig2c", "fig2d"):
            assert (again / f"{name}.csv").read_bytes() == \
                (fig_dir / f"{name}.csv").read_bytes()


class TestOptimizeCommand:
    def test_ideal_detectors_product(self, tmp_path):
        text = "[params]\nlambda = 0.5\nT = 0.99\neta = 1.0\neta_bhd = 1.0\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "opt.csv"
        assert cli.main(["optimize", "--config", cfg, "--out", str(out)]) == 0
        row = read_csv(out)[0]
        assert 0.55 <= float(row["lambda_T_product"]) <= 0.60
        assert float(row["S_max"]) == pytest.approx(2.046, abs=0.005)


    def test_out_of_domain_transmittance_exits_domain_error(self, tmp_path,
                                                            capsys):
        cfg = write_config(tmp_path, BASE_CONFIG.replace("0.95\neta ",
                                                         "1.5\neta "))
        assert cli.main(["optimize", "--config", cfg]) == cli.EXIT_DOMAIN
        assert capsys.readouterr().err == (
            "domain error: transmittance must lie in (0, 1], got 1.5\n")

    def test_nothing_heralds_exits_domain_error(self, tmp_path, capsys):
        # at T = 1 no photon reaches the taps, so every pre-scan row has P = 0
        cfg = write_config(tmp_path, BASE_CONFIG.replace("0.95\neta ",
                                                         "1.0\neta "))
        assert cli.main(["optimize", "--config", cfg]) == cli.EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("domain error: invalid-regime: heralding "
                              "probability 0.000e+00 is not usable")


class TestValidateCommand:
    def test_default_point_passes(self, tmp_path):
        out = tmp_path / "validate.csv"
        assert cli.main(["validate", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows and all(r["status"] == "PASS" for r in rows)

    def test_failed_check_exits_validation(self, tmp_path, monkeypatch):
        failed = [{"check": "forced", "status": "FAIL", "value": 1.0,
                   "tolerance": 0.5}]
        monkeypatch.setattr(cli, "_validation_checks", lambda cfg: failed)
        out = tmp_path / "validate.csv"
        assert cli.main(["validate", "--out", str(out)]) == \
            cli.EXIT_VALIDATION
        assert read_csv(out)[0]["status"] == "FAIL"

    def test_short_truncation_exits_with_domain_code(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG + "\n[fock]\nn_trunc = 16\n")
        out = tmp_path / "validate.csv"
        assert cli.main(["validate", "--config", cfg,
                         "--out", str(out)]) == cli.EXIT_DOMAIN
        assert not out.exists()


class TestFormatting:
    def test_twelve_significant_digits(self):
        assert cli.fmt(np.pi) == "3.14159265359"
        assert cli.fmt(2.6e-4) == "0.00026"

    def test_booleans_as_json_spells_them(self):
        assert (cli.fmt(True), cli.fmt(False)) == ("true", "false")

    def test_lf_line_endings(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "chsh.csv"
        cli.main(["chsh", "--config", cfg, "--out", str(out)])
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
