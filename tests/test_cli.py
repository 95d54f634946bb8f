import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from noisyqfi import builtin, cli, mstate, protocols, series
from noisyqfi.bloch import ChannelFamily
from noisyqfi.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    RunConfig,
    main,
    parse_grid,
    parse_int_list,
    parse_vec3,
    run_bounds,
    run_escher,
    run_fit_orders,
    run_measure,
    run_qfi,
)
from noisyqfi.config import ConfigError, family_from_config, parse_config_text
from noisyqfi.protocols import (
    correlated,
    measurement_cfi_lowest_order_general,
    protocol_qfi,
)
from noisyqfi.series import canonical_directions, default_fit_purities, fit_qfi_orders


class TestParsing:
    def test_grid_forms(self):
        assert parse_grid("0.1:0.9:9") == pytest.approx(list(np.linspace(0.1, 0.9, 9)))
        assert parse_grid("0.25") == [0.25]
        assert parse_grid("0.1,0.2,0.4") == [0.1, 0.2, 0.4]
        with pytest.raises(ConfigError):
            parse_grid("0.1:0.9")
        with pytest.raises(ConfigError):
            parse_grid("0.1:0.9:0")

    def test_int_list(self):
        assert parse_int_list("2,3,6") == [2, 3, 6]

    def test_vec3(self):
        np.testing.assert_allclose(parse_vec3("0,0,2"), [0, 0, 1])
        with pytest.raises(ConfigError):
            parse_vec3("1,2")
        with pytest.raises(ConfigError):
            parse_vec3("0,0,0")

    def test_vec3_rejects_nonfinite_components(self):
        for text in ("nan,0,1", "0,inf,1", "0,0,-inf"):
            with pytest.raises(ConfigError, match="finite"):
                parse_vec3(text)


class TestConfigFile:
    def test_sections_and_comments(self):
        text = """
        # comment
        [channel]
        name = gad            # inline comment
        [params]
        p = 0.8
        [run]
        command = qfi
        lambda = 0.1:0.5:3
        """
        sections = parse_config_text(text)
        assert sections["channel"]["name"] == "gad"
        assert sections["params"]["p"] == "0.8"
        assert sections["run"]["lambda"] == "0.1:0.5:3"

    def test_malformed_lines(self):
        with pytest.raises(ConfigError):
            parse_config_text("[channel]\nnonsense line\n")
        with pytest.raises(ConfigError):
            parse_config_text("key = value\n")

    def test_family_from_config_builtin(self):
        fam = family_from_config({"name": "gad"}, {"p": "0.7"})
        assert fam.params == {"p": 0.7}

    def test_family_from_config_custom_diag(self):
        fam = family_from_config(
            {"name": "custom_diag", "lambda_domain": "[0, 0.5]"},
            {"mx": "0", "my": "0", "mz": "1-2*l"})
        assert fam.domain == (0.0, 0.5)
        ch = fam.eval(0.25)
        np.testing.assert_allclose(ch.M, np.diag([0.0, 0.0, 0.5]), atol=1e-12)

    def test_family_errors(self):
        with pytest.raises(ConfigError):
            family_from_config({"name": "not_a_channel"}, {})
        with pytest.raises(ConfigError):
            family_from_config({"name": "gad"}, {"p": "high"})
        with pytest.raises(ConfigError):
            family_from_config({}, {})
        with pytest.raises(ConfigError):
            family_from_config({"name": "custom_diag"}, {"mx": "0", "my": "0"})


def _qfi_config(**over):
    base = dict(command="qfi", channel={"name": "phase_flip", "params": {}},
                lams=[0.2], purities=[0.3], ns=[1])
    base.update(over)
    return RunConfig(**base)


class TestRunQfi:
    def test_known_value(self):
        header, rows = run_qfi(_qfi_config())
        assert header[:5] == ["lambda", "r", "n", "exact", "series"]
        assert rows[0][3] == pytest.approx(0.37205, rel=1e-4)

    def test_zero_purity_row(self):
        _, rows = run_qfi(_qfi_config(purities=[0.0]))
        assert rows[0][3] == pytest.approx(0.0, abs=1e-14)
        assert rows[0][4] == pytest.approx(0.0, abs=1e-14)

    def test_gad_zero_purity(self):
        cfg = _qfi_config(channel={"name": "gad", "params": {"p": "1.0"}},
                          lams=[0.4], purities=[0.0])
        _, rows = run_qfi(cfg)
        assert rows[0][3] == pytest.approx(1.0 / 0.84, rel=1e-6)

    def test_lambda_major_ordering(self):
        cfg = _qfi_config(lams=[0.2, 0.4], purities=[0.1, 0.2], ns=[1, 2])
        _, rows = run_qfi(cfg)
        cells = [(row[0], row[1], row[2]) for row in rows]
        want = [(lam, r, n) for lam in (0.2, 0.4) for r in (0.1, 0.2) for n in (1, 2)]
        assert cells == want

    def test_jobs_do_not_change_output(self):
        cfg1 = _qfi_config(lams=[0.2, 0.3, 0.4], ns=[1, 2])
        cfg2 = _qfi_config(lams=[0.2, 0.3, 0.4], ns=[1, 2], jobs=2)
        h1, rows1 = run_qfi(cfg1)
        h2, rows2 = run_qfi(cfg2)
        assert h1 == h2
        assert cli.format_csv(h1, rows1) == cli.format_csv(h2, rows2)


class TestRunBounds:
    def test_phase_flip_table(self):
        cfg = RunConfig(command="bounds",
                        channel={"name": "phase_flip", "params": {}},
                        lams=[0.3], ns=[4])
        header, rows = run_bounds(cfg)
        n, lam, lower, canon, gmax, upper, status = rows[0]
        assert (lower, canon, gmax, upper) == pytest.approx((16.0,) * 4)
        assert status == "pass"

    def test_rank_one_table(self):
        cfg = RunConfig(command="bounds",
                        channel={"name": "custom_diag",
                                 "params": {"mx": "0", "my": "0", "mz": "1-2*l"}},
                        lams=[0.3], ns=[4])
        _, rows = run_bounds(cfg)
        _, _, lower, canon, gmax, upper, status = rows[0]
        assert lower == pytest.approx(12.0, rel=1e-6)
        assert canon == pytest.approx(12.0, rel=1e-6)
        assert upper == pytest.approx(16.0, rel=1e-6)
        assert lower - 1e-9 <= canon <= gmax <= upper + 1e-9
        assert status == "pass"

    def test_depolarizing_pair(self):
        cfg = RunConfig(command="bounds",
                        channel={"name": "depolarizing", "params": {}},
                        lams=[0.6], ns=[2])
        _, rows = run_bounds(cfg)
        assert rows[0][2:6] == pytest.approx((2.0, 2.0, 2.0, 2.0))


class TestRunEscher:
    def test_default_grid_shape(self):
        header, rows = run_escher(RunConfig(command="escher",
                                            channel={"name": "phase_flip", "params": {}}))
        assert header == ["lambda", "r", "escher_bound", "exact_qfi", "slack"]
        assert len(rows) == 19 * 9
        assert min(row[4] for row in rows) > 0.0


class TestRunFitOrders:
    def test_depolarizing_three_qubits(self):
        cfg = RunConfig(command="fit-orders",
                        channel={"name": "depolarizing", "params": {}},
                        lams=[0.5], ns=[3])
        header, rows = run_fit_orders(cfg)
        by_order = {row[2]: row for row in rows}
        assert set(by_order) == {2, 3, 4}
        assert by_order[2][3] == pytest.approx(3.0, rel=1e-6)
        assert abs(by_order[3][3]) < 1e-5
        # fitted fourth order agrees with the solver's closed value
        assert by_order[4][3] == pytest.approx(by_order[4][4], rel=5e-3)
        assert by_order[4][5] < 5e-3

    def test_vanishing_order_error_is_relative_to_the_series_scale(self, capsys):
        # order 3 vanishes analytically for n >= 3; its fitted value there is
        # fit noise, which once read as rel_error 1.27 at n = 5
        code = main(["fit-orders", "--channel", "phase_flip", "--lambda", "0.3",
                     "--n", "2,3,5", "--c", "0.3,0.5,0.8"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        third = [row for row in rows if row["order"] == "3"]
        assert len(third) == 3
        assert all(float(row["rel_error"]) < 1e-4 for row in third)

    def test_too_few_samples(self):
        cfg = RunConfig(command="fit-orders",
                        channel={"name": "depolarizing", "params": {}},
                        lams=[0.5], ns=[2], purities=[1e-3, 2e-3])
        with pytest.raises(ConfigError):
            run_fit_orders(cfg)

    def test_degenerate_samples_are_a_numeric_failure(self, capsys):
        code = main(["fit-orders", "--channel", "depolarizing", "--lambda", "0.5",
                     "--n", "2", "--purity", ",".join(["1e-3"] * 6)])
        assert code == EXIT_NUMERIC
        assert "condition number" in capsys.readouterr().err

    def test_max_order_below_two_is_config_error(self, capsys):
        # K = 1 leaves no order 2..K to fit; it once printed a bare header
        code = main(["fit-orders", "--channel", "depolarizing", "--n", "2",
                     "--max-order", "1"])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err and "--max-order" in captured.err

    def test_jobs_do_not_change_output(self):
        cfg = RunConfig(command="fit-orders",
                        channel={"name": "depolarizing", "params": {}},
                        lams=[0.25, 0.5], ns=[2, 3, 4])
        h1, rows1 = run_fit_orders(cfg)
        h2, rows2 = run_fit_orders(cfg._replace(jobs=2))
        assert h1 == h2
        assert cli.format_csv(h1, rows1) == cli.format_csv(h2, rows2)


class TestRunMeasure:
    def test_quarter_turn_is_optimal_at_finite_purity(self):
        # at lambda = pi/2 the phase_shift measurement reaches the QFI at
        # every purity, not only at lowest order
        cfg = RunConfig(command="measure", channel={"name": "phase_shift", "params": {}},
                        lams=[math.pi / 2], purities=[0.05, 0.5, 0.9], ns=[2, 3, 6])
        _, rows = run_measure(cfg)
        assert [(row[0], row[2]) for row in rows] == \
            [(n, r) for r in (0.05, 0.5, 0.9) for n in (2, 3, 6)]
        assert all(abs(row[-1] - 1.0) <= 1e-13 for row in rows)

    def test_jobs_do_not_change_output(self):
        cfg = RunConfig(command="measure", channel={"name": "phase_flip", "params": {}},
                        lams=[0.2, 0.3, 0.4], purities=[1e-3, 0.1], ns=[2, 3])
        h1, rows1 = run_measure(cfg)
        h2, rows2 = run_measure(cfg._replace(jobs=2))
        assert h1 == h2
        assert cli.format_csv(h1, rows1) == cli.format_csv(h2, rows2)


class TestMainExitCodes:
    def test_ok(self, capsys, tmp_path):
        out = tmp_path / "out.csv"
        code = main(["qfi", "--channel", "phase_flip", "--lambda", "0.2",
                     "--purity", "0.3", "--n", "1", "--out", str(out)])
        assert code == EXIT_OK
        text = out.read_text()
        assert text.startswith("lambda,r,n,exact,series")
        assert text.endswith("\n")

    def test_stdout_csv_header(self, capsys):
        code = main(["qfi", "--channel", "phase_flip", "--lambda", "0.2",
                     "--purity", "0.3", "--n", "1"])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "lambda,r,n,exact,series,h0,h1,h2,h3,h4"

    def test_unknown_channel_is_config_error(self, capsys):
        assert main(["qfi", "--channel", "warp_drive"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_lambda_outside_domain_is_config_error(self, capsys):
        assert main(["qfi", "--channel", "phase_flip", "--lambda", "1.4"]) == EXIT_CONFIG

    def test_bounds_nonunital_is_config_error(self, capsys):
        code = main(["bounds", "--channel", "gad", "--param", "p=0.9",
                     "--lambda", "0.3", "--n", "2"])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        # the class is that of the channel at lambda, which the message names
        assert captured.err == ("config error: bounds need a unital channel; 'gad' is "
                                "nonunital_param_shift at lambda=0.3 (use the single-qubit "
                                "closed forms instead)\n")

    @pytest.mark.parametrize("command, domain, param, message", [
        ("qfi", None, "fd_step=x", "parameter 'fd_step' must be a number, got 'x'"),
        ("qfi", None, "fd_step=-1", "fd_step must be positive and finite, got -1.0"),
        ("qfi", None, "fd_step=nan", "fd_step must be positive and finite, got nan"),
        ("qfi", "[0, x]", None, "lambda_domain must be two numbers, got '[0, x]'"),
        ("validate-channel", "[0, inf]", None,
         "domain must be finite with lo < hi, got [0.0, inf]"),
    ])
    def test_malformed_custom_diag_setting_is_config_error(self, command, domain, param,
                                                           message, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("[channel]\nname = custom_diag\n"
                           + (f"lambda_domain = {domain}\n" if domain else "")
                           + "[params]\nmx = 1-l\nmy = 1-l\nmz = 1\n")
        argv = [command, "--config", str(cfgfile)]
        code = main(argv + (["--param", param] if param else []))
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ") and message in captured.err

    def test_numeric_failure_names_cell(self, capsys):
        # a Bloch matrix of 3 I maps the state outside the Bloch ball, so the
        # measured outcome distribution has a negative entry
        code = main(["measure", "--channel", "custom_diag", "--param", "mx=3",
                     "--param", "my=3", "--param", "mz=3", "--lambda", "0.5",
                     "--purity", "0.5", "--n", "2"])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numeric failure" in err and "lambda=0.5" in err

    @pytest.mark.parametrize("command", ["bounds", "validate-channel"])
    def test_expression_failing_to_evaluate_names_lambda(self, command, capsys):
        # sqrt(-l) raised an uncaught ValueError here: a traceback and exit 1
        code = main([command, "--channel", "custom_diag", "--param", "mx=sqrt(-l)",
                     "--param", "my=0", "--param", "mz=1", "--lambda", "0.5"])
        assert code == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numeric failure" in captured.err and "lambda=0.5" in captured.err
        assert "math domain error" in captured.err

    @pytest.mark.parametrize("command", ["bounds", "validate-channel", "qfi"])
    def test_complex_expression_value_names_lambda(self, command, capsys):
        # (-l)^0.5 is complex; its real part once passed every check
        code = main([command, "--channel", "custom_diag", "--param", "mx=(-l)^0.5",
                     "--param", "my=0", "--param", "mz=1", "--lambda", "0.5"])
        assert code == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "lambda=0.5" in captured.err and "complex entry" in captured.err

    def test_bounds_fail_row_is_numeric_failure(self, capsys):
        # exp(500) squares to inf: the row once printed inf,nan,nan,inf,fail
        # with exit 0
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["bounds", "--channel", "custom_diag", "--param", "mx=exp(1000*l)",
                         "--param", "my=0", "--param", "mz=1", "--lambda", "0.5"])
        assert code == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1].endswith(",fail")
        assert "lambda=0.5, n=2" in captured.err

    def test_bounds_nonfinite_channel_is_numeric_failure(self, capsys):
        # a product of floats overflows to inf without an exception: the
        # entry is about 0.03 at lambda = 0.4 and inf at 0.5; the row before
        # the failing lambda is still printed
        with np.errstate(invalid="ignore"):
            code = main(["bounds", "--channel", "custom_diag",
                         "--param", "mx=exp(800*l)*exp(800*l)*1e-280",
                         "--param", "my=0", "--param", "mz=1", "--lambda", "0.4,0.5"])
        assert code == EXIT_NUMERIC
        captured = capsys.readouterr()
        rows = captured.out.splitlines()
        assert rows[0].startswith("n,lambda") and len(rows) == 2
        assert rows[1].startswith("2,0.4") and rows[1].endswith(",pass")
        assert "non-finite M, dM at lambda=0.5" in captured.err

    @pytest.mark.parametrize("command", ["qfi", "measure", "fit-orders"])
    def test_nonfinite_channel_with_given_directions(self, command, capsys):
        # --c and --r0 given: no canonical pair is formed, so the frame of c
        # is what names the non-finite channel
        with np.errstate(invalid="ignore"):
            code = main([command, "--channel", "custom_diag",
                         "--param", "mx=exp(800*l)*exp(800*l)*1e-280",
                         "--param", "my=0", "--param", "mz=1", "--lambda", "0.5",
                         "--n", "3", "--c", "0,0,1", "--r0", "1,0,0"])
        assert code == EXIT_NUMERIC
        assert "non-finite M, dM at lambda=0.5" in capsys.readouterr().err

    def test_validate_channel_reports_a_bloch_matrix_that_stretches(self, capsys):
        # M = 2 I maps the Bloch ball outside itself; it once passed every row
        code = main(["validate-channel", "--channel", "custom_diag", "--param", "mx=2",
                     "--param", "my=2", "--param", "mz=2"])
        assert code == EXIT_NUMERIC
        captured = capsys.readouterr()
        rows = captured.out.splitlines()[1:]
        assert len(rows) == 101
        assert all(",fail,largest singular value of M <= 1" in row for row in rows)
        assert "failed validation" in captured.err

    def test_measure_at_domain_end(self, capsys):
        # the outcome derivative is exact, so the domain end lambda = 1 works
        code = main(["measure", "--channel", "phase_flip", "--lambda", "1.0",
                     "--purity", "0.001", "--n", "2"])
        assert code == EXIT_OK
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert abs(float(row[-1]) - 1.0) <= 1e-12

    def test_measure_beyond_dense_cap(self, capsys):
        # the exact QFI comes from spin blocks, so only the Pauli cap applies
        lam, r, n = 0.3, 1e-3, 11
        code = main(["measure", "--channel", "phase_flip", "--lambda", str(lam),
                     "--purity", str(r), "--n", str(n)])
        assert code == EXIT_OK
        row = dict(zip(*(line.split(",") for line in capsys.readouterr().out.splitlines())))
        cfi, qfi = float(row["cfi"]), float(row["qfi"])
        assert abs(cfi / qfi - 1.0) <= 1e-12
        ch = builtin("phase_flip").eval(lam)
        want = measurement_cfi_lowest_order_general(ch, n, *canonical_directions(ch)) * r ** 2
        assert cfi == pytest.approx(want, rel=1e-4)

    @pytest.mark.parametrize("channel", ["phase_flip", "depolarizing"])
    def test_measure_vanishing_qfi_is_numeric_failure(self, channel, capsys):
        # at r = 0 a unital channel leaves I/2^n: the QFI is 0 for phase_flip
        # and 3.7e-32 of rounding noise for depolarizing, so CFI/QFI has no value
        code = main(["measure", "--channel", channel, "--lambda", "0.3", "--purity", "0",
                     "--n", "3", "--c", "0,0,1", "--r0", "1,0,0"])
        assert code == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert "cell lambda=0.3, r=0, n=3" in captured.err
        assert "CFI/QFI is undefined" in captured.err
        assert "nan" not in captured.out

    def test_series_commands_keep_dense_cap(self, capsys):
        # a qubit count past a solver's range is an input it cannot take
        for argv in (["qfi", "--purity", "1e-3"], ["fit-orders"]):
            code = main(argv + ["--channel", "phase_flip", "--lambda", "0.3", "--n", "11"])
            assert code == EXIT_CONFIG
            assert "n=11: qubit count 11 outside supported range 1..10 for dense-matrix " \
                "operations\n" in capsys.readouterr().err

    def test_only_series_commands_warn_about_validity(self, capsys):
        args = ["--channel", "phase_flip", "--purity", "1", "--n", "3"]
        assert main(["measure", *args]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert main(["qfi", *args]) == EXIT_OK
        assert "series columns are outside their validity regime" in capsys.readouterr().err

    def test_bad_param_syntax(self, capsys):
        assert main(["qfi", "--channel", "gad", "--param", "p:1"]) == EXIT_CONFIG

    def test_json_output(self, capsys):
        code = main(["qfi", "--channel", "depolarizing", "--lambda", "0.5",
                     "--purity", "0.001", "--n", "2", "--format", "json"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "qfi"
        assert doc["columns"][0] == "lambda"
        assert doc["rows"][0]["n"] == 2

    def test_validate_channel_ok(self, capsys):
        assert main(["validate-channel", "--channel", "gad", "--param", "p=1.0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "lambda,status,violations"
        assert "fail" not in out


_SUBCOMMANDS = ("qfi", "bounds", "measure", "escher", "fit-orders", "validate-channel")
_CHANNEL_COMMANDS = ("qfi", "measure", "fit-orders", "bounds", "validate-channel")

# malformed option text -> (extra argv or None, [run] lines or None, option named)
_MALFORMED = {
    "n": (["--n", "2,x"], None, "--n"),
    "lambda": (["--lambda", "abc"], None, "--lambda"),
    "lambda-steps": (["--lambda", "0.1:0.2:x"], None, "--lambda"),
    "c": (["--c", "1,x,0"], None, "--c"),
    "eps": (["--eps", "nan"], None, "--eps"),
    "run-jobs": (None, "jobs = x", "--jobs"),
    "run-max-order": (None, "max_order = 2.5", "--max-order"),
    "run-channel": (None, "channel = gad", "'channel'"),
}


# Inputs a channel command cannot take, each with its lambda given and by
# default: (case, command, flags, the message after "config error: ", or None
# where the command succeeds).  A message from inside a grid cell names the
# cell.  "edge.cfg" is the custom_diag family 1 - l, 1 - l, 1 on [0, 0.5],
# whose default lambda 0.5 puts the central difference past the domain's end.
_CUSTOM_DIAG = ["--channel", "custom_diag", "--param", "mx=1-l", "--param", "my=1-l",
                "--param", "mz=1"]
_STENCIL = "central difference at {} with h=1e-06 leaves domain [0.0, {}]"
_NOT_UNITAL = ("{} need a unital channel; 'gad' is nonunital_param_shift at lambda={} "
               "(use the single-qubit closed forms instead)")
_CAP = "qubit count {0} outside supported range 1..{1} for {2} operations"
_QUBIT_RANGE = {  # command: past its cap (n, message), below its range (n, message)
    "qfi": (("11", _CAP.format(11, 10, "dense-matrix")),
            ("0", "qubit counts must be >= 1, got [0]")),
    "measure": (("15", _CAP.format(15, 14, "Pauli-coefficient")),
                ("1", "measure needs correlated protocols (n >= 2), got n=1")),
    "fit-orders": (("11", _CAP.format(11, 10, "dense-matrix")),
                   ("0", "qubit counts must be >= 1, got [0]")),
    "bounds": (None, ("1", "bounds needs correlated protocols (n >= 2), got n=1")),
}


def _in_cell(command: str, lam: str, n, message: str) -> str:
    r = "" if command == "fit-orders" else "r=0.001, "
    return f"cell lambda={lam}, {r}n={n}: {message}"


_UNTAKEN = [
    *[("stencil-edge", command, _CUSTOM_DIAG + ["--lambda", "0"], _STENCIL.format("0.0", "1.0"))
      for command in _CHANNEL_COMMANDS],
    *[("stencil-edge", command, ["--config", "edge.cfg"], message)
      for command, message in [
          ("qfi", _in_cell("qfi", "0.5", 1, _STENCIL.format("0.5", "0.5"))),
          ("measure", _in_cell("measure", "0.5", 2, _STENCIL.format("0.5", "0.5"))),
          ("fit-orders", _in_cell("fit-orders", "0.5", 1, _STENCIL.format("0.5", "0.5"))),
          ("bounds", _STENCIL.format("0.5", "0.5")),
          ("validate-channel", None)]],  # its default grid keeps clear of the stencil
    *[("not-unital", command, ["--channel", "gad", "--param", "p=0.8", *given], message)
      for given, lam in (([], "0.5"), (["--lambda", "0.4"], "0.4"))
      for command, message in [
          ("fit-orders", _in_cell("fit-orders", lam, 1, _NOT_UNITAL.format("fit-orders", lam))),
          ("bounds", _NOT_UNITAL.format("bounds", lam))]],
    *[("past-cap", command, ["--channel", "phase_flip", *given, "--n", n],
       _in_cell(command, lam, n, message))
      for given, lam in (([], "0.5"), (["--lambda", "0.3"], "0.3"))
      for command, (past, _) in _QUBIT_RANGE.items() if past is not None
      for n, message in [past]],
    *[("below-range", command, ["--channel", "phase_flip", *given, "--n", n], message)
      for given in ([], ["--lambda", "0.3"])
      for command, (_, (n, message)) in _QUBIT_RANGE.items()],
]


class TestExitCodeContract:
    """Malformed option text is exit 2 naming the option, for every subcommand;
    an input a channel command cannot take is exit 2 too, from every command."""

    def test_subcommands_are_the_runners(self):
        assert set(_SUBCOMMANDS) == set(cli._RUNNERS)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("command, flags, message", [
        pytest.param(command, flags, message, id="-".join(
            [case, command, "given" if "--lambda" in flags else "default"]))
        for case, command, flags, message in _UNTAKEN])
    def test_input_a_command_cannot_take_is_config_error(self, command, flags, message, jobs,
                                                         tmp_path, monkeypatch, capsys):
        # the stencil edge and a qubit count past a cap once failed their
        # cells with exit 3, and so did fit-orders on a channel that is not
        # unital; a cell's error crosses the process pool in its class
        (tmp_path / "edge.cfg").write_text(
            "[channel]\nname = custom_diag\nlambda_domain = [0, 0.5]\n"
            "[params]\nmx = 1-l\nmy = 1-l\nmz = 1\n")
        monkeypatch.chdir(tmp_path)
        code = main([command, *flags, "--jobs", jobs])
        captured = capsys.readouterr()
        if message is None:
            assert (code, captured.err) == (EXIT_OK, "")
        else:
            assert (code, captured.out, captured.err) == \
                (EXIT_CONFIG, "", f"config error: {message}\n")

    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    @pytest.mark.parametrize("command", _SUBCOMMANDS)
    def test_malformed_text_is_config_error(self, command, case, tmp_path, capsys):
        flags, run_lines, option = _MALFORMED[case]
        argv = [command, "--channel", "phase_flip"]
        if flags is not None:
            argv += flags
        else:
            cfgfile = tmp_path / "run.cfg"
            cfgfile.write_text(f"[run]\n{run_lines}\n")
            argv += ["--config", str(cfgfile)]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err and option in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("eps", ["nan", "inf", "-inf", "0"])
    def test_eps_must_be_positive_and_finite(self, eps, capsys):
        # nan and inf once passed and printed exact = 0 with exit 0
        code = main(["qfi", "--channel", "phase_flip", "--lambda", "0.3",
                     "--purity", "0.1", "--n", "2", f"--eps={eps}"])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and "--eps must be positive and finite" in captured.err

    @pytest.mark.parametrize("purity", ["1.5", "-0.1", "nan", "0.1,1.01"])
    def test_purity_outside_unit_interval(self, purity, capsys):
        # these once failed every cell with exit 3 after a validity warning
        code = main(["qfi", "--channel", "phase_flip", "--lambda", "0.3",
                     "--purity", purity, "--n", "2"])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and "--purity values must lie in [0, 1]" in captured.err

    @pytest.mark.parametrize("flag", ["--c", "--r0"])
    def test_nonfinite_direction(self, flag, capsys):
        # a nan component once reached the solver and exited 3
        code = main(["measure", "--channel", "phase_flip", "--lambda", "0.3",
                     "--purity", "0.1", "--n", "2", flag, "nan,0,1"])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and f"{flag}: direction components must be finite" \
            in captured.err

    @pytest.mark.parametrize("flag, value", [("--c", "-0.6,0,-0.8"),
                                             ("--r0", "-0.6,0,-0.8"),
                                             ("--lambda", "-1:1:3")])
    def test_negative_values_take_the_equals_form(self, flag, value, tmp_path, capsys):
        # argparse reads a separate value that starts with "-" as an option
        base = ["qfi", "--channel", "phase_shift", "--purity", "0.1", "--n", "1,2"]
        with pytest.raises(SystemExit) as exc:
            main(base + [flag, value])
        assert exc.value.code == EXIT_CONFIG
        assert f"argument {flag}: expected one argument" in capsys.readouterr().err
        # --flag=value reaches the option's parser: the rows of the [run] key
        assert main(base + [f"{flag}={value}"]) == EXIT_OK
        out = capsys.readouterr().out
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"[run]\n{flag[2:]} = {value}\n")
        assert main(base + ["--config", str(cfgfile)]) == EXIT_OK
        assert capsys.readouterr().out == out
        if flag == "--lambda":
            assert [row.split(",")[0] for row in out.splitlines()[1::2]] == ["-1", "0", "1"]

    def test_escher_outside_its_domain(self, capsys):
        for args in (["--lambda", "1.5"], ["--purity", "1"]):
            assert main(["escher", *args]) == EXIT_CONFIG
            assert "config error" in capsys.readouterr().err

    def test_run_keys_take_dashes_or_underscores(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        base = ["qfi", "--channel", "phase_flip", "--lambda", "0.3", "--purity", "1e-3",
                "--n", "2", "--config", str(cfgfile)]
        for key in ("max_order", "max-order"):
            cfgfile.write_text(f"[run]\n{key} = 5\n")
            assert main(base) == EXIT_OK
            assert capsys.readouterr().out.splitlines()[0].endswith(",h4,h5")
        # the flag overrides the file
        assert main(base + ["--max-order", "3"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0].endswith(",h2,h3")


class TestMeasureQubitCounts:
    """The n rule of the correlated-only commands; subclasses rerun it per command."""

    COMMAND = "measure"

    @property
    def ARGS(self):
        return [self.COMMAND, "--channel", "phase_flip", "--lambda", "0.3", "--purity", "1e-3"]

    def test_single_qubit_is_config_error(self, capsys):
        assert main(self.ARGS + ["--n", "1"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "n=1" in err

    def test_single_qubit_in_list_is_config_error(self, capsys):
        assert main(self.ARGS + ["--n", "1,3"]) == EXIT_CONFIG
        assert "n=1" in capsys.readouterr().err

    def test_default_is_two_qubits(self, capsys):
        assert main(self.ARGS) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["2"]

    def test_config_file_n(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"[run]\ncommand = {self.COMMAND}\nn = 3\n")
        assert main(self.ARGS + ["--config", str(cfgfile)]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["3"]
        cfgfile.write_text(f"[run]\ncommand = {self.COMMAND}\nn = 1\n")
        assert main(self.ARGS + ["--config", str(cfgfile)]) == EXIT_CONFIG


class TestBoundsQubitCounts(TestMeasureQubitCounts):
    COMMAND = "bounds"


def _count_calls(monkeypatch, module, name) -> list:
    """Wrap module.name; the returned list gets each call's positional arguments."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestWorkPerCell:
    def test_fit_orders_solves_one_series_per_cell(self, monkeypatch, capsys):
        sld = _count_calls(monkeypatch, series, "sld_orders")
        prep = _count_calls(monkeypatch, protocols, "prep_conjugate")
        evals = _count_calls(monkeypatch, ChannelFamily, "eval")
        svds = _count_calls(monkeypatch, series, "svd3")
        sweeps = _count_calls(monkeypatch, cli, "exact_qfis")
        code = main(["fit-orders", "--channel", "depolarizing", "--lambda", "0.25,0.5",
                     "--n", "2,3"])
        assert code == EXIT_OK
        # one SLD solve per cell, to K // 2 for the default K = 4
        assert [call[1] for call in sld] == [2] * 4
        # per cell: one preparation, for the purity orders; the exact QFI
        # needs none
        assert len(prep) == 4
        # per cell: one eval, which the class check, the spec's canonical pair
        # (one svd3) and the frame of c share; the purity orders and the
        # block solve for all purities read that frame
        assert len(evals) == 4
        assert len(svds) == 4
        purities = [float(x) for x in default_fit_purities()]
        assert [list(call[1]) for call in sweeps] == [purities] * 4

    @pytest.mark.parametrize("max_order", [None, 5])
    def test_qfi_solves_sld_to_half_the_order(self, max_order, monkeypatch, capsys):
        sld = _count_calls(monkeypatch, series, "sld_orders")
        evals = _count_calls(monkeypatch, ChannelFamily, "eval")
        args = ["qfi", "--channel", "gad", "--param", "p=0.8", "--lambda", "0.3",
                "--purity", "1e-3,1e-2", "--n", "1,2,3"]
        if max_order is not None:
            args += ["--max-order", str(max_order)]
        assert main(args) == EXIT_OK
        K = 4 if max_order is None else max_order
        assert [call[1] for call in sld] == [K // 2] * 6
        # per cell: one eval, which the canonical pair and the frame of c
        # share; the series and the exact QFI read that frame
        assert len(evals) == 6

    def test_qfi_makes_each_order_dense_once(self, monkeypatch, capsys):
        dense = _count_calls(monkeypatch, series, "to_dense")
        assert main(["qfi", "--channel", "gad", "--param", "p=0.8", "--lambda", "0.3",
                     "--purity", "1e-3", "--n", "1,2,3,6"]) == EXIT_OK
        # two transforms to XOR lines per cell, one for the output orders and
        # one for their derivatives, each of the input orders 0..min(n, K)
        # of the default K = 4 in one pass
        assert [(call[0].n, len(call[0].orders)) for call in dense] == [
            (n, min(n, 4) + 1) for n in (1, 2, 3, 6) for _ in range(2)]

    @pytest.mark.parametrize("command", ["qfi", "fit-orders"])
    def test_cell_makes_one_pass_a_state(self, command, monkeypatch, capsys):
        # the channel and its derivative each make one pass over the strings
        # of all input orders 0..min(n, K), for the default K = 4, where one
        # pass an order would make 2(min(n, K) + 1)
        passes = _count_calls(monkeypatch, mstate, "_channel_pass")
        adopted = []
        adopt = mstate.PauliStrings._adopt.__func__
        monkeypatch.setattr(mstate.PauliStrings, "_adopt", classmethod(
            lambda cls, *args: adopted.append(cls) or adopt(cls, *args)))
        preps, prep = [], protocols.prep_conjugate

        def counted(state):
            before = len(adopted)
            out = prep(state)
            preps.append((state.max_order + 1, adopted[before:]))
            return out

        monkeypatch.setattr(protocols, "prep_conjugate", counted)
        args = [command, "--channel", "depolarizing", "--lambda", "0.3", "--n", "1,2,3,6"]
        assert main(args + (["--purity", "1e-3"] if command == "qfi" else [])) == EXIT_OK
        assert [(call[0].n, call[0].max_order + 1) for call in passes] == [
            (n, min(n, 4) + 1) for n in (1, 2, 3, 6) for _ in range(2)]
        # the preparation decodes the strings of all orders in one pass, into
        # one state: no order is split off as a state of its own
        assert preps == [(min(n, 4) + 1, [mstate.OrderedState]) for n in (2, 3, 6)]

    def test_k4_cell_makes_two_line_products(self, monkeypatch, capsys):
        # L^(1) rho^(1), formed in the SLD solve and reused by the traces, and
        # L^(1) rho^(2); every other product is a 2x2 contraction on qubit 0.
        # Both are formed from the XOR lines of their factors at every n: at
        # the canonical directions L^(1) fills the n lines of weight-1 flips
        # and rho^(j) those of weight j
        products = []
        original = series._product

        def counted(A, B):
            products.append((A.n, len(A.flips), len(B.flips)))
            return original(A, B)

        monkeypatch.setattr(series, "_product", counted)
        assert main(["qfi", "--channel", "phase_flip", "--lambda", "0.3",
                     "--purity", "1e-3", "--n", "2,3,5,7,9"]) == EXIT_OK
        assert products == [(n, n, math.comb(n, j)) for n in (2, 3, 5, 7, 9) for j in (1, 2)]

    def test_qfi_cell_holds_no_dense_matrix(self, capsys):
        # the purity series runs on XOR lines: an n = 9 cell peaked at
        # 65.1 MiB when the orders were dense 2^9 x 2^9 matrices (4 MiB
        # each) and peaks at 5.0 MiB on lines (tracemalloc, after a warm-up
        # cell that fills the Hadamard matrix cache)
        argv = ["qfi", "--channel", "phase_flip", "--lambda", "0.3",
                "--purity", "1e-3", "--n", "9"]
        assert main(argv) == EXIT_OK
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_measure_cell_holds_no_4n_array(self, capsys):
        # the CZ images and the grouped outcomes come from the strings: an
        # n = 12 cell peaked at 336 MiB with the 4^n gather table and outcome
        # contraction, at 36.5 MiB with the 4^(n-1) tail mask of the channel
        # pass and its rank array, and at 0.7 MiB with the tails sorted
        # (tracemalloc, no warm-up cell)
        argv = ["measure", "--channel", "phase_flip", "--lambda", "0.3",
                "--purity", "1e-3", "--n", "12"]
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_measure_solves_no_series(self, monkeypatch, capsys):
        sld = _count_calls(monkeypatch, series, "sld_orders")
        prep = _count_calls(monkeypatch, protocols, "prep_conjugate")
        evals = _count_calls(monkeypatch, ChannelFamily, "eval")
        code = main(["measure", "--channel", "phase_flip", "--lambda", "0.3",
                     "--purity", "1e-3", "--n", "2,3"])
        assert code == EXIT_OK
        assert len(sld) == 0
        assert len(prep) == 3 * 2
        # per cell: one eval, which the canonical pair and the frame of c
        # share; the exact QFI and the measured state read that frame
        assert len(evals) == 2

    @pytest.mark.parametrize("command", ["qfi", "measure"])
    def test_given_directions_need_one_evaluation(self, command, monkeypatch, capsys):
        # with --c and --r0 both given the cell needs no canonical pair: the
        # frame of c, which every view shares, is its only evaluation
        evals = _count_calls(monkeypatch, ChannelFamily, "eval")
        assert main([command, "--channel", "gad", "--param", "p=0.8", "--lambda", "0.3",
                     "--purity", "1e-3", "--n", "3",
                     "--c", "0.3,0.5,0.8", "--r0=-0.6,0,0.8"]) == EXIT_OK
        assert len(evals) == 1

    def test_fit_rows_equal_one_protocol_qfi_per_purity(self):
        lam, n, K = 0.5, 3, 4
        cfg = RunConfig(command="fit-orders",
                        channel={"name": "depolarizing", "params": {}},
                        lams=[lam], ns=[n], max_order=K)
        _, rows = run_fit_orders(cfg)

        family = builtin("depolarizing")
        c, r0 = canonical_directions(family.eval(lam))
        rs = [float(x) for x in default_fit_purities()]
        results = [protocol_qfi(correlated(family, lam, n, r, c, r0), K=K) for r in rs]
        fit = fit_qfi_orders(np.asarray(rs), np.asarray([q.exact for q in results]),
                             orders=tuple(range(2, K + 2)))
        series = results[-1].series
        scale = max(max(abs(float(h)) for h in series.orders), 1e-12)
        want = []
        for j in range(2, K + 1):
            closed = float(series.orders[j])
            fitted = fit.coeffs[j]
            denom = abs(closed) if abs(closed) > 1e-6 * scale else scale
            want.append([n, lam, j, fitted, closed, abs(fitted - closed) / denom])
        assert rows == want


class TestDeterminism:
    def test_bit_identical_files(self, tmp_path):
        args = ["qfi", "--channel", "phase_flip", "--lambda", "0.1:0.9:5",
                "--purity", "0.001,0.01", "--n", "1,2,3"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_seventeen_digit_floats(self, tmp_path):
        out = tmp_path / "c.csv"
        main(["qfi", "--channel", "phase_flip", "--lambda", "0.2", "--purity",
              "0.3", "--n", "1", "--out", str(out)])
        row = out.read_text().splitlines()[1].split(",")
        assert row[0] == "0.20000000000000001"
        assert float(row[3]) == pytest.approx(0.37205456800330694)


class TestParserReuse:
    """main builds its parser once per process; each call still parses alone."""

    ARGVS = [
        ["qfi", "--channel", "gad", "--param", "p=0.8", "--param", "p=0.6",
         "--lambda", "0.3", "--n", "1,2"],
        ["qfi", "--channel", "custom_diag", "--param", "mx=1-l", "--param", "my=1-l",
         "--param", "mz=1-2*l", "--lambda", "0.3", "--n", "2"],
    ]

    def test_calls_in_one_process_match_separate_runs(self, capsys):
        # a --param list shared between calls would hand the second call the
        # first one's p, which custom_diag refuses
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        alone = [subprocess.run([sys.executable, "-m", "noisyqfi.cli", *argv], env=env,
                                capture_output=True, text=True, check=True).stdout
                 for argv in self.ARGVS]
        for argv, want in zip(self.ARGVS + self.ARGVS, alone + alone):
            assert main(argv) == EXIT_OK
            assert capsys.readouterr().out == want
        assert cli._build_parser() is cli._build_parser()


_GLIBC = sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"


class TestAllocatorSetting:
    """main lets glibc keep freed blocks of up to 32 MiB for reuse."""

    ARGV = ["qfi", "--channel", "gad", "--param", "p=0.8", "--lambda", "0.3",
            "--purity", "1e-3", "--n", "9"]

    @pytest.mark.skipif(not _GLIBC, reason="the setting is glibc's mallopt")
    def test_second_cell_faults_no_memory_in(self, capsys):
        # the second identical cell reuses the freed line arrays: 1,500 to
        # 2,000 minor faults a call without the setting, 1 with it
        import resource  # Unix only

        assert main(self.ARGV) == EXIT_OK
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert main(self.ARGV) == EXIT_OK
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= 50
        assert capsys.readouterr().out.count("\n") == 4

    @pytest.mark.skipif(not _GLIBC, reason="the setting is glibc's mallopt")
    def test_grid_in_a_fresh_process_faults_less(self):
        # one command-line call of two cells: the second cell reuses the
        # first one's freed line arrays (about 2,100 minor faults against
        # 4,660 without the setting; a single cell makes 1,950 against 2,770)
        code = (
            "import contextlib, io, resource, sys\n"
            "from noisyqfi import cli\n"
            "if sys.argv[1] == 'off':\n"
            "    cli._keep_freed_memory = lambda: None\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(sys.argv[2:]) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        argv = [*self.ARGV[:-3], "1e-3,0.1", "--n", "9"]
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        faults = {setting: int(subprocess.run(
            [sys.executable, "-c", code, setting, *argv], env=env,
            capture_output=True, text=True, check=True).stdout) for setting in ("on", "off")}
        assert faults["on"] <= 0.6 * faults["off"], faults

    @pytest.mark.parametrize("library", ["missing", "no mallopt", "not glibc"])
    def test_runs_without_mallopt(self, library, monkeypatch, capsys):
        class NotGlibc:
            def mallopt(self, *args):
                raise AssertionError("glibc's parameters set on another C library")

        def cdll(name, *args, **kwargs):
            if library == "missing":
                raise OSError("no C library")
            return object() if library == "no mallopt" else NotGlibc()

        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        assert main(["qfi", "--channel", "gad", "--param", "p=0.8", "--lambda", "0.3",
                     "--purity", "1e-3", "--n", "2"]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_import_sets_nothing(self):
        # a library user's allocator is left alone: only main sets it
        code = (
            "import ctypes, numpy\n"
            "calls = []\n"
            "class C:\n"
            "    def __init__(self, name, *args, **kwargs):\n"
            "        self.gnu_get_libc_version = lambda: b'2.36'\n"
            "        self.mallopt = lambda *a: calls.append(a)\n"
            "ctypes.CDLL = C\n"
            "import noisyqfi, noisyqfi.cli\n"
            "assert not calls, calls\n"
            "noisyqfi.cli.main(['validate-channel', '--channel', 'phase_flip'])\n"
            "assert calls == [(-3, 32 << 20), (-1, 256 << 20)], calls\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                       check=True)


class TestSeriesAtTheCap:
    def test_parallel_directions_at_ten_qubits(self, capsys):
        # c = r0 = z: the purity orders hold only I/Z strings
        code = main(["qfi", "--channel", "depolarizing", "--c", "0,0,1", "--r0", "0,0,1",
                     "--n", "10"])
        assert code == EXIT_OK
        row = dict(zip(*(line.split(",") for line in capsys.readouterr().out.splitlines())))
        assert np.isfinite(float(row["exact"])) and np.isfinite(float(row["series"]))


class TestConfigFileDriven:
    def test_file_plus_flag_override(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "[channel]\n"
            "name = gad\n"
            "[params]\n"
            "p = 1.0\n"
            "[run]\n"
            "command = qfi\n"
            "lambda = 0.4\n"
            "purity = 0.0\n"
            "n = 1\n"
        )
        assert main(["qfi", "--config", str(cfgfile)]) == EXIT_OK
        out = capsys.readouterr().out
        exact = float(out.splitlines()[1].split(",")[3])
        assert exact == pytest.approx(1.0 / 0.84, rel=1e-6)
        # flag overrides the file's purity
        assert main(["qfi", "--config", str(cfgfile), "--purity", "0.2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert float(out.splitlines()[1].split(",")[1]) == 0.2

    def test_command_mismatch(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("[run]\ncommand = bounds\n")
        assert main(["qfi", "--config", str(cfgfile),
                     "--channel", "phase_flip"]) == EXIT_CONFIG

    def test_missing_file(self, capsys):
        assert main(["qfi", "--config", "/nonexistent.cfg",
                     "--channel", "phase_flip"]) == EXIT_CONFIG
