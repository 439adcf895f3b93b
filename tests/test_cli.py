"""CLI tests: config parsing, CSV schemas, determinism across --jobs
values, validity flags, and error reporting."""

import ast
import gc
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from helpers import run_cli
from noma_effrate.channel import ParameterError
from noma_effrate.cli import (
    CONFIG_KEYS,
    DVP_HEADER,
    ConfigError,
    SweepConfig,
    cmd_approx,
    cmd_dvp,
    cmd_er,
    cmd_power,
    keyed,
    load_config,
    main,
    parse_values,
)

ER_CONFIG = """
[channel]
alpha = 2
mu = 1
omega_s = 1.0
omega_w = 0.31622776601683794

[system]
a_s = 0.24
rho_db = 0:20:10
theta = 0.5, 1
"""


def write_config(tmp_path, text, name="sweep.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParsing:
    def test_range(self):
        assert parse_values("10:40:10") == [10.0, 20.0, 30.0, 40.0]
        assert parse_values("0:1:0.6") == [0.0, 0.6]  # the next point lies past stop

    def test_list(self):
        assert parse_values("0.1, 0.5,2") == [0.1, 0.5, 2.0]

    def test_single(self):
        assert parse_values("7") == [7.0]

    def test_bad_range(self):
        with pytest.raises(ValueError):
            parse_values("10:1:5")

    def test_unknown_section(self, tmp_path):
        path = write_config(tmp_path, "[nope]\nx = 1\n")
        with pytest.raises(ConfigError, match="unknown config sections"):
            load_config(path)

    def test_empty_theta_rejected(self, tmp_path):
        path = write_config(tmp_path, "[system]\ntheta =\n")
        with pytest.raises(ConfigError, match="theta"):
            load_config(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/sweep.ini")

    def test_field_diagnostics(self, tmp_path):
        path = write_config(tmp_path, "[channel]\nalpha = fast\n")
        with pytest.raises(ConfigError, match=r"\[channel\] alpha"):
            load_config(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[channel]\nalpha = 2\nalpha = 3\n", "option 'alpha' in section 'channel' already exists"),
            ("[channel]\nalpha = 2\n[channel]\nmu = 1\n", "section 'channel' already exists"),
            ("alpha = 2\n[channel]\nmu = 1\n", "no section headers"),
            ("[sim]\nslots = -5\n", r"\[sim\] slots: must be nonnegative, got -5"),
            ("[system]\ntheta = 5%\n", r"\[system\] theta: cannot parse '5%'"),
            ("[output]\nformat = tsv\n", r"^\[output\] format: must be csv or svg, got 'tsv'$"),
            ("[system]\nrho_db = 1:2\n",
             r"^\[system\] rho_db: cannot parse '1:2' \(range must be start:stop:step, got '1:2'\)$"),
        ],
        ids=["repeated-key", "repeated-section", "no-section-header", "negative-slots", "percent-sign",
             "unknown-format", "two-part-range"],
    )
    def test_syntax_errors_are_one_line(self, tmp_path, capsys, text, message):
        # a repeated key or section, a missing section header, a negative slot
        # count, a '%' (values are literal, not interpolated), an unknown output
        # format and a range without a step each give one error line and exit 2,
        # on every subcommand
        path = write_config(tmp_path, text)
        with pytest.raises(ConfigError, match=message):
            load_config(path)
        for command in ("er", "dvp", "approx", "power"):
            assert main([command, "--config", path, "--out", str(tmp_path / "o.csv")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "o.csv").exists()

    def test_bad_channel_reported(self, tmp_path):
        path = write_config(tmp_path, "[channel]\nomega_w = 2.0\n")
        with pytest.raises(ConfigError, match="weaker"):
            load_config(path)

    def test_readme_example_config_loads(self, tmp_path):
        # the README's example config sets only accepted keys, and names every key
        # (a_s_grid in a comment)
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Config format", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = load_config(write_config(tmp_path, block))
        assert cfg.lambdas == [170.0] and cfg.slots == 1_000_000 and cfg.out_path == "out.csv"
        words = set(re.findall(r"\w+", block))
        assert {key for keys in CONFIG_KEYS.values() for key in keys} <= words


class TestErCommand:
    def test_schema_and_grid(self, tmp_path):
        cfg = load_config(write_config(tmp_path, ER_CONFIG))
        header, rows = cmd_er(cfg)
        assert header.split(",")[:6] == ["alpha", "mu", "omega_w", "a_s", "theta", "rho_db"]
        assert len(rows) == 2 * 3  # theta x rho grid
        for row in rows:
            r_s, r_w, r_sum, r_oma, gap = row[6:11]
            assert r_sum == pytest.approx(r_s + r_w)
            assert gap == pytest.approx(r_sum - r_oma)

    def test_gap_decreases_with_weak_link_quality(self, tmp_path):
        gaps = []
        for omega_w2 in (0.1, 0.3, 0.6):
            text = ER_CONFIG.replace(
                "omega_w = 0.31622776601683794", f"omega_w = {math.sqrt(omega_w2)}"
            ).replace("rho_db = 0:20:10", "rho_db = 20").replace("theta = 0.5, 1", "theta = 1")
            cfg = load_config(write_config(tmp_path, text, f"er{omega_w2}.ini"))
            _, rows = cmd_er(cfg)
            gaps.append(rows[0][10])
        assert gaps[0] > gaps[1] > gaps[2]

    @pytest.mark.parametrize("text, column", [("2.5", "2.5"), ("0.7", "0.7"), ("2", "2"), ("+2", "2"),
                                              ("2.0", "2"), ("1e0", "1")])
    def test_real_alpha_gives_rows(self, tmp_path, capsys, text, column):
        # alpha parses as a real; written as an integer it stays an int, so it prints as written
        path = write_config(tmp_path, ER_CONFIG.replace("alpha = 2", f"alpha = {text}"))
        assert type(load_config(path).alpha) is (int if text.lstrip("+").isdigit() else float)
        assert main(["er", "--config", path]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 6 and all(row[0] == column for row in rows)
        assert all(0 < float(row[7]) < float(row[6]) for row in rows)  # 0 < R_w < R_s

    @pytest.mark.parametrize("alpha, mu", [(2, 1), (2, 3), (4, 3), (6, 2)])
    def test_high_snr_rows_match_closed_form(self, tmp_path, alpha, mu):
        # the kernel's knee sits far below the gain law's scale at these SNRs; the
        # quadrature rows come within seconds and agree with the contour route
        text = ER_CONFIG.replace("alpha = 2", f"alpha = {alpha}").replace("mu = 1", f"mu = {mu}")
        text = text.replace("0:20:10", "80, 100, 120").replace("theta = 0.5, 1", "theta = 0.5, 1, 2")
        rows = {}
        for strategy in ("quadrature", "closed-form"):
            path = write_config(tmp_path, f"{text}strategy = {strategy}\n", f"{strategy}.ini")
            code, out, err = run_cli(["er", "--config", path])
            assert code == 0 and err == "", (strategy, code, err)
            rows[strategy] = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows["quadrature"]) == 9
        for quad, closed in zip(rows["quadrature"], rows["closed-form"]):
            assert quad[:6] == closed[:6]
            for q, c in zip(quad[6:11], closed[6:11]):  # R_s, R_w, R_sum, R_sum_oma, gap
                assert math.isclose(float(q), float(c), rel_tol=1e-9), (quad, closed)

    @pytest.mark.parametrize(
        "text",
        ["[channel]\nalpha = 1\nomega_s = 1e20\nomega_w = 1e19\n[system]\n",
         "[channel]\nalpha = 1\nmu = 1\nomega_s = 1e76\nomega_w = 1e75\n[system]\na_s = 0.24\ntheta = 0.5\n"
         "rho_db = 10\n",
         *(f"[channel]\nmu = {mu}\nomega_s = 1\nomega_w = 0.31622776601683794\n[system]\na_s = 0.24\n"
           f"rho_db = {rho_db}\ntheta = {theta}\n"
           for mu, rho_db, theta in [(1, 80, 2), (1, 100, 2), (1, 120, 1), (1, 120, 2), (3, 120, 2)]),
         "[channel]\nmu = 3\n[system]\nrho_db = 120\ntheta = 1\n",
         "[system]\ntheta = 33.6\n",
         "[system]\nrho_db = 150\ntheta = 33.6\n",
         "[system]\ntheta = 119\n",
         "[channel]\nmu = 40\n[system]\nrho_db = 120\ntheta = 28\n",
         "[channel]\nalpha = 3\nomega_s = 1e76\nomega_w = 1e75\n[system]\n"],
        ids=["alpha1-omega_s-1e20", "alpha1-omega_s-1e76", "rayleigh-80dB-theta2", "rayleigh-100dB-theta2",
             "rayleigh-120dB-theta1", "rayleigh-120dB-theta2", "nakagami3-120dB-theta2",
             "nakagami3-120dB-theta1", "default-theta-33.6", "default-150dB-theta-33.6", "default-theta-119",
             "mu40-120dB-theta28", "closed-form-argument-overflows"],
    )
    def test_closed_form_rows_match_quadrature(self, tmp_path, text):
        # inputs where a weak-user Fox-H line off its saddle cancels to no digits (`line
        # quadrature did not reach`, `double contour quadrature did not reach`, or a mean
        # above 1) or finds no admissible contour pair (nu = 48.5), and at their saddles give
        # the quadrature rows; and inputs whose residue coefficients z2^(x-k) (nu = 48.5 at
        # 150 dB) or 1/k! (nu = 171.7) leave the doubles, which the contour engines carry as
        # logs; and mu = 40, whose 40 mixture components share one Fox-H value per exponent
        # and finish within run_cli's 5 s; and alpha = 3 at omega_s = 1e76, where a Meijer-G
        # form's argument mu^2 / (4 c^3 omega^6) underflowed to 0 while the gain line's c*gscale
        # is about 1e153.  Each text ends in its [system] section
        rows = {}
        for strategy in ("quadrature", "closed-form"):
            path = write_config(tmp_path, text + f"strategy = {strategy}\n")  # into [system]
            code, out, err = run_cli(["er", "--config", path])
            assert code == 0 and err == "", (strategy, err)
            rows[strategy] = [row.split(",")[:11] for row in out.splitlines()[1:]]
        assert rows["closed-form"] == rows["quadrature"] and rows["quadrature"]

    def test_low_snr_strong_type_rows_match_quadrature(self, tmp_path):
        # at -100 dB 1 - E[(1 + SINR)^-w] is about 2e-11, below the contour tolerance: the
        # strong-type forms measure it directly, so R_s and R_sum_oma print quadrature's digits
        # (the weak NOMA R_w, a Fox-H value, does not yet)
        rows = {}
        for strategy in ("quadrature", "closed-form"):
            path = write_config(tmp_path, f"[system]\nrho_db = -100\nstrategy = {strategy}\n")
            code, out, err = run_cli(["er", "--config", path])
            assert code == 0 and err == "", (strategy, err)
            header, row = out.splitlines()
            rows[strategy] = dict(zip(header.split(","), row.split(",")))
        assert rows["quadrature"]["R_s"] == rows["closed-form"]["R_s"] == "3.4624681e-11"
        assert rows["quadrature"]["R_sum_oma"] == rows["closed-form"]["R_sum_oma"] == "7.93482272e-11"


class TestDvpCommand:
    DVP = """
[channel]
alpha = 2
mu = 1

[system]
a_s = 0.24
rho_db = 10
theta = 0.5

[snc]
symbols_per_slot = 168
lambda = 120
vartheta_max = 8

[sim]
seed = 42
slots = 100000
"""

    @pytest.mark.filterwarnings("ignore:unstable queue")
    def test_rows_and_bound_vs_empirical(self, tmp_path):
        cfg = load_config(write_config(tmp_path, self.DVP))
        header, rows = cmd_dvp(cfg, lambda_scale=1.0)
        assert header.startswith("user,vartheta,bound")
        assert len(rows) == 2 * 9
        zero_rows = [r for r in rows if r[1] == 0]
        assert len(zero_rows) == 2
        for r in zero_rows:
            assert r[2] <= 1.0
        for r in rows:
            user, d, bound, s_star, feasible, p, lo, hi = r
            if p is not None and feasible:
                assert lo <= bound + 1e-12

    @pytest.mark.filterwarnings("ignore:unstable queue")
    def test_lambda_scale(self, tmp_path):
        cfg = load_config(write_config(tmp_path, self.DVP))
        _, base = cmd_dvp(cfg, lambda_scale=1.0)
        _, scaled = cmd_dvp(cfg, lambda_scale=1.5)
        # higher effective arrival rate cannot lower the bound
        assert scaled[5][2] >= base[5][2]

    def test_short_trace_fails_before_any_bound(self, tmp_path, monkeypatch, capsys):
        # 950,001 bound rows per user would take a minute: the simulations run first
        from noma_effrate import cli

        def no_curve(*args):
            raise AssertionError("bounds computed for a trace too short to use")

        monkeypatch.setattr(cli, "dvp_curve", no_curve)
        text = self.DVP.replace("vartheta_max = 8", "vartheta_max = 950000")
        path = write_config(tmp_path, text.replace("slots = 100000", "slots = 1000000"))
        assert main(["dvp", "--config", path]) == 2
        assert "trace too short" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:unstable queue")
    def test_least_slot_count_gives_rows(self, tmp_path):
        # the slot count the too-short error asks for is enough
        text = self.DVP.replace("vartheta_max = 8", "vartheta_max = 30")
        cfg = load_config(write_config(tmp_path, text.replace("slots = 100000", "slots = 34")))
        _, rows = cmd_dvp(cfg, lambda_scale=1.0)
        assert len(rows) == 2 * 31 and all(r[5] is not None for r in rows)

    def test_quiet_when_laguerre_overflows(self, tmp_path):
        # Nakagami-3 at 20 dB under a large arrival rate: the delay bound's
        # Mellin exponents reach the thousands, and its gain quadrature must
        # still give rows without a numpy warning on stderr
        text = self.DVP.replace("mu = 1", "mu = 3").replace("a_s = 0.24", "a_s = 0.2")
        text = text.replace("rho_db = 10", "rho_db = 20").replace("lambda = 120", "lambda = 300")
        path = write_config(tmp_path, text.split("[sim]")[0])
        proc = subprocess.run(
            [sys.executable, "-m", "noma_effrate.cli", "dvp", "--config", path,
             "--out", str(tmp_path / "dvp.csv")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_huge_arrival_rate_is_quietly_infeasible(self, tmp_path):
        # lam*s overflows at the stability scan's largest exponents: that is
        # unstable, not a numpy warning
        path = write_config(tmp_path, "[snc]\nlambda = 1e308\nvartheta_max = 3\n")
        code, out, err = run_cli(["dvp", "--config", path])
        assert code == 0 and err == ""
        assert out.splitlines()[1:] == [f"{user},{d},1,,false,,," for user in ("strong", "weak")
                                        for d in range(4)]

    def test_requires_single_lambda(self, tmp_path):
        text = self.DVP.replace("lambda = 120", "lambda = 120, 160")
        cfg = load_config(write_config(tmp_path, text))
        with pytest.raises(ConfigError, match="lambda"):
            cmd_dvp(cfg, lambda_scale=1.0)

    def test_rejects_closed_form_strategy(self, tmp_path, capsys):
        # the bounds come from quadrature only, so another route is refused
        text = self.DVP.replace("theta = 0.5", "theta = 0.5\nstrategy = closed-form")
        path = write_config(tmp_path, text.replace("slots = 100000", "slots = 0"))
        assert main(["dvp", "--config", path]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error:") and out.err.strip().count("\n") == 0
        assert "strategy = quadrature" in out.err

    def test_explicit_quadrature_strategy_gives_rows(self, tmp_path):
        text = self.DVP.replace("theta = 0.5", "theta = 0.5\nstrategy = quadrature")
        cfg = load_config(write_config(tmp_path, text.replace("slots = 100000", "slots = 0")))
        header, rows = cmd_dvp(cfg, lambda_scale=1.0)
        assert header.startswith("user,vartheta,bound") and len(rows) == 2 * 9

    def test_decay_steepens_with_alpha(self, tmp_path):
        # one run per non-linearity value, fixed arrival rate across runs
        import numpy as np

        slopes = {}
        for alpha in (2, 3, 4):
            text = self.DVP.replace("alpha = 2", f"alpha = {alpha}").replace(
                "lambda = 120", "lambda = 60"
            ).replace("slots = 100000", "slots = 0").replace(
                "vartheta_max = 8", "vartheta_max = 20"
            )
            cfg = load_config(write_config(tmp_path, text, f"dvp{alpha}.ini"))
            _, rows = cmd_dvp(cfg, lambda_scale=1.0)
            strong = [r for r in rows if r[0] == "strong" and 10 <= r[1] <= 20]
            log_bounds = np.log([r[2] for r in strong])
            slopes[alpha] = np.polyfit([r[1] for r in strong], log_bounds, 1)[0]
        assert slopes[2] > slopes[3] > slopes[4]  # steeper (more negative) decay


class TestApproxCommand:
    APPROX = """
[channel]
alpha = 2
mu = 2

[system]
a_s = 0.24
rho_db = -30, 40
theta = 0.5
"""

    def test_columns(self, tmp_path):
        cfg = load_config(write_config(tmp_path, self.APPROX))
        header, rows = cmd_approx(cfg)
        cols = header.split(",")
        assert cols[0] == "rho_db" and "rate_loss" in cols
        by_rho = {row[0]: row for row in rows}
        low = by_rho[-30.0]
        assert low[3] == pytest.approx(low[1], rel=0.01)  # low-SNR vs exact
        high = by_rho[40.0]
        assert abs(high[2] - high[1]) < 0.05  # high-SNR vs exact
        for row in rows:
            assert row[5] >= 0  # rate loss

    def test_high_snr_column_suppressed_when_invalid(self, tmp_path):
        text = self.APPROX.replace("alpha = 2", "alpha = 1").replace(
            "mu = 2", "mu = 1"
        ).replace("theta = 0.5", "theta = 1")
        cfg = load_config(write_config(tmp_path, text))
        _, rows = cmd_approx(cfg)
        assert all(row[2] is None for row in rows)

    def test_high_snr_column_at_large_mu(self, tmp_path):
        # Gamma(mu) overflows a double from mu = 172: the strong high-SNR form takes the log-gamma
        # difference, log2(a_s rho) - 2 log2(sqrt(mu)/omega_s) - log2(Gamma(mu - nu) / Gamma(mu)) / nu
        text = self.APPROX.replace("mu = 2", "mu = 180").replace("rho_db = -30, 40", "rho_db = 40")
        code, out, err = run_cli(["approx", "--config", write_config(tmp_path, text)])
        assert code == 0 and err == "", err
        header, row = out.splitlines()
        got = float(dict(zip(header.split(","), row.split(",")))["high_snr_sum"])
        with mp.workdps(30):
            mu, nu, a_s = mp.mpf(180), mp.mpf(0.5) / mp.log(2), mp.mpf(0.24)
            strong = mp.log(a_s * mp.mpf(10) ** 4, 2) - 2 * mp.log(mp.sqrt(mu), 2) - mp.log(
                mp.gamma(mu - nu) / mp.gamma(mu), 2) / nu
            want = float(strong + mp.log(1 + (1 - a_s) / a_s, 2))
        assert got == pytest.approx(want, rel=1e-8)

    def test_theta_zero_fills_every_column(self, tmp_path):
        cfg = load_config(write_config(tmp_path, self.APPROX.replace("theta = 0.5", "theta = 0")))
        _, rows = cmd_approx(cfg)
        high = {row[0]: row for row in rows}[40.0]
        assert all(v is not None for row in rows for v in row)
        assert abs(high[2] - high[1]) < 0.05  # high-SNR vs exact
        assert high[5] == 0.0  # no rate loss without a delay constraint


class TestPowerCommand:
    POWER = """
[channel]
alpha = 2
mu = 2

[system]
a_s_grid = 0.06:0.24:0.06
rho_db = 10, 20
theta = 0.5
"""

    def test_matches_er_sum(self, tmp_path):
        cfg = load_config(write_config(tmp_path, self.POWER))
        _, rows = cmd_power(cfg)
        assert [r[0] for r in rows] == [10.0, 20.0]
        best_a = rows[0][1]
        er_cfg = load_config(write_config(tmp_path, self.POWER, "er.ini"), a_s_values=[best_a], rho_db=[10.0])
        _, er_rows = cmd_er(er_cfg)
        assert rows[0][2] == pytest.approx(er_rows[0][8], rel=1e-12)

    def test_singleton_grid_echo(self, tmp_path):
        text = self.POWER.replace("a_s_grid = 0.06:0.24:0.06", "a_s = 0.1")
        cfg = load_config(write_config(tmp_path, text))
        _, rows = cmd_power(cfg)
        assert all(r[1] == 0.1 for r in rows)


class TestMainEntry:
    def test_deterministic_bytes_across_jobs(self, tmp_path):
        path = write_config(tmp_path, ER_CONFIG)
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["er", "--config", path, "--out", out1, "--jobs", "1"]) == 0
        assert main(["er", "--config", path, "--out", out2, "--jobs", "8"]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_jobs_start_no_process_pool(self, tmp_path):
        path = write_config(tmp_path, ER_CONFIG)
        code = (
            "import sys; from noma_effrate.cli import main; "
            f"rc = main(['er', '--config', {path!r}, '--out', {str(tmp_path / 'a.csv')!r}, "
            "'--jobs', '2']); print(rc, 'concurrent.futures.process' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.stdout.split() == ["0", "False"]

    @pytest.mark.parametrize("filters", [None, "error", "ignore"], ids=["unset", "error", "ignore"])
    def test_unstable_queue_is_one_warning_line(self, tmp_path, filters):
        # the README example: the weak user's arrival rate exceeds its mean service; the
        # line neither turns into a traceback nor drops out under the interpreter's filters
        text = TestDvpCommand.DVP.replace("lambda = 120", "lambda = 170").replace(
            "slots = 100000", "slots = 20000"
        )
        path = write_config(tmp_path, text)
        out = tmp_path / "dvp.csv"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        if filters is not None:
            env["PYTHONWARNINGS"] = filters
        proc = subprocess.run(
            [sys.executable, "-m", "noma_effrate.cli", "dvp", "--config", path,
             "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("warning: unstable queue: arrival rate 170.0 >= mean service")
        assert lines[0].endswith("of the weak user")
        assert len(out.read_text().splitlines()) == 1 + 2 * 9

    def test_repeat_run_identical(self, tmp_path):
        path = write_config(tmp_path, ER_CONFIG)
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["er", "--config", path, "--out", out1])
        main(["er", "--config", path, "--out", out2])
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_nine_significant_digits(self, tmp_path):
        path = write_config(tmp_path, ER_CONFIG)
        out = str(tmp_path / "a.csv")
        main(["er", "--config", path, "--out", out])
        rows = open(out).read().splitlines()[1:]
        value = rows[0].split(",")[6]
        assert len(value.replace(".", "").replace("-", "").lstrip("0")) <= 9

    def test_error_exit_code_and_single_line(self, tmp_path, capsys):
        path = write_config(tmp_path, "[system]\ntheta =\n")
        rc = main(["er", "--config", path])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.strip().count("\n") == 0

    def test_svg_output(self, tmp_path):
        path = write_config(tmp_path, ER_CONFIG)
        out = str(tmp_path / "chart.svg")
        assert main(["er", "--config", path, "--out", out, "--format", "svg"]) == 0
        body = open(out).read()
        assert body.startswith("<svg") and "polyline" in body

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "noma_effrate.cli", "er", "--config", "/missing.ini"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")

    def test_engine_error_is_one_line(self, tmp_path):
        # theta*T*B = ln 2 makes nu = 1, an integer Fox-H binomial power
        path = write_config(tmp_path, ER_CONFIG.replace(
            "theta = 0.5, 1", "theta = 0.6931471805599453\nstrategy = closed-form"
        ).replace("0:20:10", "10"))
        proc = subprocess.run(
            [sys.executable, "-m", "noma_effrate.cli", "er", "--config", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:")
        assert proc.stderr.strip().count("\n") == 0

    def test_integer_nu_error_names_theta(self, tmp_path, capsys):
        path = write_config(tmp_path, ER_CONFIG.replace(
            "theta = 0.5, 1", "theta = 0.6931471805599453\nstrategy = closed-form"
        ).replace("0:20:10", "10"))
        assert main(["er", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.strip().count("\n") == 0
        assert "theta = 0.6931471806" in err and "nu = 1" in err
        assert "strategy = quadrature" in err

    def test_import_skips_scipy_stats(self):
        code = "import sys, noma_effrate.cli; print('scipy.stats' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout.strip() == "False"

    def test_quadrature_routes_skip_scipy(self, tmp_path):
        er = write_config(tmp_path, ER_CONFIG, "er.ini")
        dvp = write_config(
            tmp_path, TestDvpCommand.DVP.replace("slots = 100000", "slots = 0"), "dvp.ini"
        )
        code = (
            "import io, sys, contextlib, noma_effrate.cli as c\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert c.main(['er', '--config', {er!r}]) == 0\n"
            f"    assert c.main(['dvp', '--config', {dvp!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout.strip() == "[]", proc.stderr

    def test_simulating_dvp_skips_scipy(self, tmp_path):
        dvp = write_config(tmp_path, TestDvpCommand.DVP)
        code = (
            "import io, sys, contextlib, noma_effrate.cli as c\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert c.main(['dvp', '--config', {dvp!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout.strip() == "[]", proc.stderr

    def test_contour_routes_skip_scipy(self, tmp_path):
        # the Meijer-G and Fox-H engines take their log-gamma from numpy too;
        # dvp computes its bounds by quadrature only, so the closed-form
        # Mellin transforms of its system are called directly
        er = write_config(tmp_path, ER_CONFIG.replace(
            "theta = 0.5, 1", "theta = 0.5\nstrategy = closed-form"
        ).replace("0:20:10", "10"), "er.ini")
        dvp = write_config(tmp_path, TestDvpCommand.DVP.replace(
            "theta = 0.5", "theta = 0.5\nstrategy = quadrature"
        ).replace("slots = 100000", "slots = 0"), "dvp.ini")
        code = (
            "import io, sys, contextlib, noma_effrate.cli as c\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            f"    assert c.main(['er', '--config', {er!r}]) == 0\n"
            f"    assert c.main(['dvp', '--config', {dvp!r}]) == 0\n"
            "assert ',closed-form,' in out.getvalue().splitlines()[1]\n"
            "from noma_effrate import snc\n"
            f"cfg = c.load_config({dvp!r})\n"
            "system = cfg.snc[0]  # lambda = 120\n"
            "for mellin in (snc.mellin_strong, snc.mellin_weak):\n"
            "    assert 0 < mellin(system, 0.03, 'closed-form').value < 1\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout.strip() == "[]", proc.stderr

    def test_package_source_imports_no_scipy(self):
        # scipy is a test-only dependency: no module of the package names it
        package = Path(__file__).resolve().parents[1] / "src" / "noma_effrate"
        modules = sorted(package.glob("*.py"))
        assert len(modules) >= 8
        for path in modules:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert not any(n.split(".")[0] == "scipy" for n in names), (path.name, names)

    def test_moments_have_one_entry_point(self):
        # rates and delay bounds reach the gain engine and the closed forms through
        # effrate.log_moment only; specfun and closedform compose their own functions
        package = Path(__file__).resolve().parents[1] / "src" / "noma_effrate"
        engine = {"laguerre_log_expectation", "laguerre_expectation"}
        callers = set()
        for path in sorted(package.glob("*.py")):
            if path.stem in ("specfun", "closedform"):
                continue
            for top in ast.parse(path.read_text()).body:
                for node in ast.walk(top):
                    if isinstance(node, ast.Call):
                        name = getattr(node.func, "id", getattr(node.func, "attr", ""))
                        if name in engine or name.endswith("_analytic"):
                            callers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
        assert callers == {"effrate.log_moment"}

    def test_contour_names_bound_in_fresh_interpreter(self):
        # nothing imports closedform first: the package's own import binds it
        code = (
            "import noma_effrate\n"
            "print(noma_effrate.closedform.fox_h2 is noma_effrate.specfun.fox_h2,"
            " noma_effrate.closedform.meijer_g is noma_effrate.specfun.meijer_g)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout.strip() == "True True", proc.stderr

    def test_import_sets_one_blas_thread(self):
        code = "import os, noma_effrate; print(os.environ['OPENBLAS_NUM_THREADS'])"
        for preset, want in ((None, "1"), ("2", "2")):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            if preset is not None:
                env["OPENBLAS_NUM_THREADS"] = preset
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0 and proc.stdout.strip() == want

    def test_lambda_scale_is_dvp_only(self):
        with pytest.raises(SystemExit) as exc:
            main(["er", "--lambda-scale", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command, text, names",
        [
            ("er", "[system]\nrho_db = 4000\n", "[system] rho_db"),
            ("er", "[system]\ntheta = nan\n", "[system] theta: must be finite and nonnegative, got nan"),
            ("er", "[system]\ntheta = 0.5, inf\n", "[system] theta: must be finite and nonnegative, got inf"),
            ("er", "[system]\ntb = inf\n", "[system] tb: must be finite and positive, got inf"),
            ("er", "[channel]\nomega_s = inf\n", "[channel] omega_s: must be finite and positive, got inf"),
            ("dvp", "[snc]\nlambda = 170\nvartheta_max = -1\n", "[snc] vartheta_max"),
            ("dvp", "[snc]\nlambda = 170\nvartheta_max = 0\n[sim]\nslots = 1000\n", "[snc] vartheta_max"),
            ("dvp", "[snc]\nlambda = inf\n", "[snc] lambda"),
            ("dvp", "[snc]\nlambda = nan\n", "[snc] lambda"),
            ("er", "[sim]\nseed = -1\n", "[sim] seed: must be nonnegative, got -1"),
            ("dvp", "[sim]\nseed = -1\nslots = 1000\n", "[sim] seed: must be nonnegative, got -1"),
            ("dvp --seed -1", "[sim]\nslots = 1000\n", "--seed: must be nonnegative, got -1"),
            ("er", "[channel]\nmu = 101\n[system]\nstrategy = closed-form\n", "[channel] mu"),
            ("er", "[channel]\nalpha = 700\n", "[channel] omega"),
            ("er", "[channel]\nomega_s = 1e200\n", "[channel] omega"),
            ("er", "[channel]\nomega_w = 1e-170\n", "[channel] omega"),
            ("dvp", "[snc]\nlambda = 170\ns_min = 1e-6\n", "[snc] unknown key: s_min"),
            ("dvp", "[snc]\nlambda = 170\ns_max = 5\n", "[snc] unknown key: s_max"),
            ("dvp", "[snc]\nlambda = 170\n[sim]\nslots = 1000\nbatches = 5\n", "[sim] batches"),
            ("dvp", "[snc]\nlambda = 170\nvartheta_max = 30\n[sim]\nslots = 33\n",
             "[sim] slots: trace too short for delays up to 30 after the 10% warm-up; "
             "need at least 34 slots, got 33"),
            ("er", "[channel]\nalpha = 4\nomega_s = 1e-77\nomega_w = 0.9495e-77\n", "[channel] omega_w: omega_tilde"),
            ("dvp", "[snc]\nlambda = 170\nsymbols_per_slot = 0\n",
             "[snc] symbols_per_slot: must be a positive integer, got 0"),
            ("er", "[system]\na_s = 0.5\n", "[system] a_s: must lie in (0, 1/2), got 0.5"),
            ("er", "[system]\ntb = 0\n", "[system] tb: must be finite and positive, got 0.0"),
            ("er", "[system]\ntheta = -1\n", "[system] theta: must be finite and nonnegative, got -1.0"),
            # found by TestCliContract or by hand: tracebacks, or lines that named no key
            ("er", "[system]\na_s = 0.1\na_s_grid = 0.1:0.2:0.1\n", "[system] a_s_grid: give either a_s or"),
            ("er", "[channel]\nalpha = 1\nomega_s = 1e300\nomega_w = 1e299\n",
             "[channel] omega_s: omega^(+-alpha) or omega^(+-4) overflows at alpha = 1, got 1e+300"),
            ("approx", "[channel]\nalpha = 1\nomega_s = 1e100\nomega_w = 1e99\n", "[channel] omega_s: omega^"),
            ("approx", "[channel]\nomega_w = 0.9e-154\n", "[channel] omega_w: omega^"),
            ("dvp", "[system]\nrho_db = 650\n[snc]\nlambda = 120\n",
             "[system] rho_db: the delay bound needs a mean SNR scale rho*omega_s^2 of at most 1e60 (600 dB), "
             "got 1e+65"),
            ("er", "[channel]\nomega_s = 1e-77\nomega_w = 0.99e-77\n",
             "[channel] omega_w: omega_tilde = 1/(omega_s^-alpha + omega_w^-alpha) = 4.949750012625624e-155 gives a "
             "minimum-gain mixture component out of range (omega: omega^(+-alpha) or omega^(+-4) overflows at "
             "alpha = 2, got 7.035445979201051e-78)"),
            ("approx", "[channel]\nomega_s = 1e-77\nomega_w = 0.99e-77\n",
             "[channel] omega_w: omega_tilde = 1/(omega_s^-alpha + omega_w^-alpha) = 4.9"),
            ("er", "[system]\na_s_grid = 0:0.5:0.25\n", "[system] a_s_grid: must lie in (0, 1/2), got 0.0"),
            ("approx", "[system]\na_s_grid = 0.1:0.2:0.1\n", "[system] a_s_grid: approx needs a single value, got 2"),
            ("power", "[system]\na_s = 0.3\n",
             "[system] a_s: a_s = 0.3 is outside the feasible range (0, 0.25) for target rate 2.0"),
            ("dvp", "[channel]\nmu = 1000\n[snc]\nlambda = 120\n",
             "the weak user's delay bound at alpha = 2, mu = 1000: gain expectation did not reach relative "
             "tolerance 1e-09 by size 5121"),
            ("dvp", "[channel]\nmu = 1000\n[snc]\nlambda = 120\n[sim]\nslots = 20000\n",
             "the weak user's delay bound at alpha = 2, mu = 1000: gain expectation"),
            ("er", "[channel]\nalpha = 0.03\n",
             "the strong user's NOMA rate at alpha = 0.03, mu = 1: gain expectation did not reach"),
            ("er", "[channel]\nalpha = 0.01\n", "[channel] alpha: moment 2 of the gain, omega^4 Gamma(mu + "
             "4/alpha) / (mu^(4/alpha) Gamma(mu)), overflows at mu = 1 and omega = 1.0, got 0.01"),
            ("approx", "[channel]\nalpha = 0.02\nmu = 2\n", "[channel] alpha: moment 2 of the gain"),
            ("er", "[channel]\nalpha = 0\n", "[channel] alpha: must be finite and positive, got 0"),
            ("er", "[channel]\nalpha = nan\n", "[channel] alpha: must be finite and positive, got nan"),
        ],
        ids=["rho_db", "theta-nan", "theta-inf", "tb", "omega", "vartheta_max", "vartheta_max-zero-with-slots",
             "lambda-inf", "lambda-nan", "seed-er", "seed-dvp", "seed-flag", "mu-closed-form",
             "alpha-overflows-omega", "omega_s-overflows", "omega_w-overflows", "s_min-unknown-key",
             "s_max-unknown-key", "batches-with-slots", "slots-too-short", "omega_tilde-underflows",
             "symbols_per_slot-zero", "a_s-half", "tb-zero", "theta-negative",
             "a_s-and-a_s_grid", "omega_s-gain-overflows", "omega_s-second-moment-overflows",
             "omega_w-second-moment-underflows", "dvp-snr-above-600-dB",
             "er-mixture-component-underflows", "approx-mixture-component-underflows", "a_s_grid-half", "a_s_grid-approx-single",
             "power-a_s-infeasible", "dvp-mu-1000-weak-quadrature", "dvp-mu-1000-error-after-unstable-queue",
             "er-alpha-quadrature-budget",
             "alpha-second-moment-overflows", "approx-alpha-second-moment-overflows", "alpha-zero", "alpha-nan"],
    )
    def test_hostile_config_is_one_error_line(self, tmp_path, capsys, command, text, names):
        path = write_config(tmp_path, text)
        assert main([*command.split(), "--config", path]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and names in lines[0]
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["er", "approx", "power"])
    @pytest.mark.parametrize("rho_db", ["10, 650", "650, 10"])
    def test_snr_limit_is_the_delay_bounds_only(self, tmp_path, capsys, command, rho_db):
        # the 600 dB limit of dvp_curve leaves the rate commands alone, whatever the grid order
        path = write_config(tmp_path, f"[system]\nrho_db = {rho_db}\n[snc]\nlambda = 120\n")
        assert main([command, "--config", path]) == 0
        captured = capsys.readouterr()
        header, *rows = captured.out.splitlines()
        col = header.split(",").index("rho_db")
        assert captured.err == "" and [row.split(",")[col] for row in rows] == rho_db.split(", ")

    def test_unmapped_parameter_keeps_library_message(self):
        with pytest.raises(ConfigError, match="^user: must be 'strong' or 'weak', got 'x'$"):
            with keyed():
                raise ParameterError("user", "must be 'strong' or 'weak', got 'x'")

    @pytest.mark.parametrize("scale", ["-1", "0", "inf", "nan"])
    def test_bad_lambda_scale_is_one_error_line(self, tmp_path, capsys, scale):
        path = write_config(tmp_path, "[snc]\nlambda = 170\n")
        assert main(["dvp", "--config", path, "--lambda-scale", scale]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "--lambda-scale" in lines[0] and "[snc] lambda" in lines[0]
        assert captured.out == ""

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, "[sim]\ndraws = 1000\n")
        assert main(["er", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "draws" in err
        assert err.strip().count("\n") == 0


# The CLI contract, generated: a subcommand and a config drawn from CONFIG_KEYS.
# Each key's values are config-file text, typical first, then edges and extremes
# of value; counts stay small enough that every run takes seconds.
DOMAINS = {
    "channel": {
        "alpha": ["2", "1", "3", "4", "6", "0", "-1", "700", "2.5", "0.5", "1.5", "0.05"],
        "mu": ["1", "2", "3", "100", "101", "150", "172", "1000", "0", "-1"],
        "omega_s": ["1.0", "0.31622776601683794", "1e76", "1e-77", "1e-154", "1e200", "0", "-1", "inf", "nan"],
        "omega_w": ["0.31622776601683794", "0.1", "1.0", "1e-76", "0.99e-77", "0.9e-154", "1e-170", "0", "inf",
                    "nan"],
    },
    "system": {
        "a_s": ["0.24", "0.05", "0.1, 0.2", "0.49", "0.5", "0", "-0.1", "1", "nan"],
        "a_s_grid": ["0.06:0.24:0.06", "0.3", "0.01:0.49:0.12", "0:0.5:0.25", "0.2:0.1:0.05"],
        "rho_db": ["10", "0:20:10", "-10", "120", "700", "-4000", "4000", "inf", "-inf", "nan"],
        "theta": ["0.5", "0", "0.5, 1", "0.6931471805599453", "28", "-1", "inf", "nan"],
        "tb": ["1.0", "0.5", "0", "-1", "inf", "nan"],
        "strategy": ["quadrature", "closed-form", "monte-carlo", ""],
    },
    "snc": {
        "symbols_per_slot": ["168", "1", "0", "-1", "1000000"],
        "lambda": ["120", "170", "120, 160", "1e-300", "1e308", "0", "-1", "inf", "nan", ""],
        "vartheta_max": ["8", "30", "1", "0", "-1"],
    },
    "sim": {
        "seed": ["42", "0", "-1", "18446744073709551616"],
        "slots": ["0", "20000", "34", "33", "1", "-5"],
        "batches": ["10", "100", "9", "0", "-1"],
    },
    "output": {"path": ["out.csv"], "format": ["csv", "svg", "tsv"]},
}
FLAGS = {"--seed": ["7", "-1"], "--lambda-scale": ["1.5", "0", "-1", "inf", "nan"]}
# every subcommand runs in seconds on this base; a drawn key overrides its value
BASE = {"channel": {"alpha": "2", "mu": "1"}, "system": {"a_s": "0.24", "rho_db": "10", "theta": "0.5"},
        "snc": {"lambda": "120", "vartheta_max": "8"}}
NAMES = [f"[{section}] {key}" for section, keys in CONFIG_KEYS.items() for key in keys]
HEADERS = {"er": "alpha,mu,", "dvp": DVP_HEADER, "approx": "rho_db,exact_sum,", "power": "rho_db,best_a_s,"}


@st.composite
def cli_runs(draw):
    command = draw(st.sampled_from(sorted(HEADERS)))
    pairs = [(section, key) for section, keys in DOMAINS.items() for key in keys]
    config = {section: dict(keys) for section, keys in BASE.items()}
    for section, key in draw(st.lists(st.sampled_from(pairs), max_size=4, unique=True)):
        config.setdefault(section, {})[key] = draw(st.sampled_from(DOMAINS[section][key]))
    flags = [flag for flag in FLAGS if command == "dvp" or flag == "--seed"]
    argv = []
    for flag in draw(st.lists(st.sampled_from(flags), max_size=1)):
        argv += [flag, draw(st.sampled_from(FLAGS[flag]))]
    return command, config, argv


def check_contract(command, config, argv):
    """Rows (exit 0), or one `error:` line naming a key or flag (exit 2); never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        if "path" in config.get("output", {}):
            config["output"]["path"] = os.path.join(tmp, config["output"]["path"])
        text = "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                       for section, keys in config.items())
        path = os.path.join(tmp, "run.ini")
        Path(path).write_text(text)
        code, out, err = run_cli([command, "--config", path, *argv])
        if code == 0 and "path" in config.get("output", {}):
            out = Path(config["output"]["path"]).read_text()
    run = f"{command} {argv} with\n{text}"
    assert code in (0, 2), f"exit {code} on {run}: {err}"
    assert "Traceback" not in err, run
    lines = err.splitlines()
    if code == 2:
        assert out == "" and len(lines) == 1 and lines[0].startswith("error: "), (run, err)
        assert any(name in lines[0] for name in NAMES + list(FLAGS)) or any(
            re.search(rf"\b{key} = ", lines[0]) for keys in CONFIG_KEYS.values() for key in keys
        ), (run, err)
    else:
        assert all(line.startswith("warning: unstable queue") for line in lines), (run, err)
        if config.get("output", {}).get("format", "csv") == "svg":
            assert out.startswith("<svg"), run
        else:
            header, *rows = out.splitlines()
            assert header.startswith(HEADERS[command]) and rows, run
            assert all(row.count(",") == header.count(",") for row in rows), run


class TestCliContract:
    @seed(20261020)
    @settings(max_examples=50, deadline=None)
    @given(cli_runs())
    def test_every_input_gives_rows_or_one_keyed_error(self, run):
        check_contract(*run)

    @pytest.mark.slow
    @seed(20261020)
    @settings(max_examples=200, deadline=None)
    @given(cli_runs())
    def test_every_input_gives_rows_or_one_keyed_error_at_length(self, run):
        check_contract(*run)


def imported_modules(args, cwd):
    """Run ``python -X importtime <args>`` in a fresh interpreter: the names of the modules it
    imported, its exit code, stdout and the stderr lines that are not import timings."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, text=True, cwd=cwd
    )
    timings, rest = [], []
    for line in proc.stderr.splitlines():
        (timings if line.startswith("import time:") else rest).append(line)
    names = {line.rsplit("|", 1)[1].strip() for line in timings[1:]}  # [0]: the column heading
    return names, proc.returncode, proc.stdout, "\n".join(rest)


class TestStartup:
    """The package's import freezes its objects out of the cyclic collector, and each
    subcommand loads only the modules it needs beyond `import noma_effrate.cli`."""

    def test_import_freezes_import_time_objects(self):
        code = (
            "import gc, noma_effrate\n"
            "fox_h2 = noma_effrate.fox_h2\n"
            "print(gc.get_freeze_count() > 0, any(o is fox_h2 for o in gc.get_objects()))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout.split() == ["True", "False"], proc.stderr

    def test_cycle_made_after_import_is_collected(self):
        code = (
            "import gc, weakref, noma_effrate\n"
            "class Node: pass\n"
            "a, b = Node(), Node()\n"
            "a.other, b.other = b, a\n"
            "ref = weakref.ref(a)\n"
            "del a, b\n"
            "print(gc.collect() >= 2, ref() is None)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout.split() == ["True", "True"], proc.stderr

    def test_main_freezes_nothing(self, tmp_path):
        # the freeze happens once, at import: runs in one process leave pending garbage collectable
        path = write_config(tmp_path, ER_CONFIG)
        frozen = gc.get_freeze_count()
        for _ in range(3):
            assert main(["er", "--config", path, "--out", str(tmp_path / "a.csv")]) == 0
        assert frozen > 0 and gc.get_freeze_count() <= frozen  # a freed frozen object leaves it

    @pytest.mark.parametrize("command, text, baseline", [
        ("er", ER_CONFIG, "noma_effrate.cli"),
        ("er", ER_CONFIG.replace("0:20:10", "10").replace(
            "theta = 0.5, 1", "theta = 0.5\nstrategy = closed-form"), "noma_effrate.cli"),
        ("approx", TestApproxCommand.APPROX, "noma_effrate.cli"),
        ("power", TestPowerCommand.POWER, "noma_effrate.cli"),
        ("dvp", TestDvpCommand.DVP.replace("lambda = 120", "lambda = 60").replace(
            "slots = 100000", "slots = 1000"), "noma_effrate.cli, numpy.random"),
    ], ids=["er", "er-closed-form", "approx", "power", "dvp"])
    def test_subcommand_loads_only_what_it_needs(self, tmp_path, command, text, baseline):
        # beyond the baseline: runpy for -m and locale from argparse's messages; the
        # simulating dvp's baseline adds numpy.random with what it imports on this numpy
        path = write_config(tmp_path, text)
        base, code, _, err = imported_modules(["-c", f"import {baseline}"], tmp_path)
        assert code == 0, err
        names, code, out, err = imported_modules(
            ["-m", "noma_effrate.cli", command, "--config", path], tmp_path
        )
        assert code == 0 and err == "", err
        assert out.startswith(HEADERS[command]) and out.count("\n") > 1
        assert names - base <= {"runpy", "locale", "_locale"}
