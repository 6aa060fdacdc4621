"""CLI: subcommands, config precedence, exit codes, byte-stable output."""

import contextlib
import dataclasses
import errno
import importlib
import io
import json
import math
import os
import pkgutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim import ballprotocol as bp
from bellsim import cli
from bellsim import montecarlo as mc
from bellsim.cli import main, parse_angle, parse_sweep
from bellsim.spinmodel import correlation_sweep, require_sweep


def run_cli(capsys, *args):
    """main(args) as (exit code, stdout, stderr); argparse's own exits give their code."""
    try:
        code = main(list(args))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run_cli(capsys, *args, "--format", "json", "--no-timestamp")
    return code, (json.loads(out) if out else None), err


class TestAngleParsing:
    def test_degrees_and_radians(self):
        assert parse_angle("60deg") == pytest.approx(math.pi / 3)
        assert parse_angle("1.5rad") == 1.5
        assert parse_angle("-90deg") == pytest.approx(-math.pi / 2)

    def test_suffix_required(self):
        from bellsim.cli import UsageError

        with pytest.raises(UsageError):
            parse_angle("60")

    def test_sweep(self):
        start, step, count = require_sweep(parse_sweep("0:180:5deg"), "sweep")
        assert count == 37
        (cells,) = correlation_sweep(start, step, count)
        angles = cells[::2]
        assert angles[0] == 0.0
        assert angles[-1] == pytest.approx(math.pi)

    def test_sweep_validation(self):
        from bellsim.cli import UsageError

        with pytest.raises(UsageError):
            parse_sweep("0:180:5")
        with pytest.raises(UsageError):
            parse_sweep("10:0:5deg")
        with pytest.raises(UsageError, match="^sweep must be "):
            parse_sweep("0:1e300:1e-300rad")
        assert require_sweep(parse_sweep("0:200000:1rad"), "sweep")[2] == 200_001
        with pytest.raises(UsageError, match="^sweep must be .* at most 200,001 points"):
            parse_sweep("0:200001:1rad")


class TestSpinCorrelation:
    def test_single_angle(self, capsys):
        code, report, _ = run_json(capsys, "spin-correlation", "--phi", "60deg")
        assert code == 0
        entry = report["results"]["angles"][0]
        assert entry["quantum_correlation"] == pytest.approx(-0.5, abs=1e-12)
        assert abs(entry["subquantum_correlation"]["plus"]) <= 1e-12
        assert abs(entry["subquantum_correlation"]["minus"]) <= 1e-12

    def test_ninety_degrees(self, capsys):
        code, report, _ = run_json(capsys, "spin-correlation", "--phi", "90deg")
        assert code == 0
        assert report["results"]["angles"][0]["quantum_correlation"] == pytest.approx(
            0.0, abs=1e-12
        )

    def test_sweep_file(self, capsys, tmp_path):
        out = tmp_path / "sweep.dat"
        code, report, _ = run_json(
            capsys, "spin-correlation", "--sweep", "0:180:5deg", "--sweep-out", str(out)
        )
        assert code == 0
        rows = [line.split() for line in out.read_text().splitlines()]
        assert len(rows) == 37
        assert float(rows[0][1]) == pytest.approx(-1.0, abs=1e-12)
        assert float(rows[-1][1]) == pytest.approx(1.0, abs=1e-12)
        assert report["results"]["sweep"]["row_count"] == 37

    def test_sweep_rows_are_python_floats(self, capsys, tmp_path):
        # repr of a numpy float is np.float64(...), which would corrupt both outputs.
        out = tmp_path / "sweep.dat"
        code, text, _ = run_cli(capsys, "spin-correlation", "--sweep", "0:360:7deg",
                                "--sweep-out", str(out), "--no-timestamp")
        assert code == 0
        assert "np.float64(" not in text and "np.float64(" not in out.read_text()
        _, report, _ = run_json(capsys, "spin-correlation", "--sweep", "0:360:7deg")
        rows = report["results"]["sweep"]["rows"]
        assert [(phi, corr) for phi, corr in rows] == [
            tuple(map(float, line.split())) for line in out.read_text().splitlines()]

    def test_integer_sweep_in_a_config_file_writes_float_angles(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {"start": 0, "stop": 2, "step": 1}}))
        outputs = {}
        for name, source in (("flag", ["--sweep", "0:2:1rad"]), ("config", ["--config", str(cfg)])):
            out = tmp_path / f"{name}.dat"
            code, report, _ = run_json(capsys, "spin-correlation", *source,
                                       "--sweep-out", str(out))
            assert code == 0
            outputs[name] = report["results"]["sweep"]["rows"], out.read_bytes()
        assert outputs["config"] == outputs["flag"]
        assert outputs["flag"][1].startswith(b"0.0 -1.0\n1.0 ")
        assert report["manifest"]["config"]["sweep"] == {"start": 0, "stop": 2, "step": 1}

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_a_sweep_holds_its_table_text_and_little_more(self, tmp_path, fmt):
        """Beyond the table's text, a sweep's traced peak does not grow with its length."""
        import tracemalloc

        def peak_beyond_text(last):
            argv = ["spin-correlation", "--sweep", f"0:{last}:1rad", "--format", fmt,
                    "--out", str(tmp_path / "report"), "--sweep-out", str(tmp_path / "sweep.dat")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - (tmp_path / "sweep.dat").stat().st_size  # the table text, in ASCII

        peak_beyond_text(10)  # imports and first-call caches are not the sweep's
        assert abs(peak_beyond_text(200_000) - peak_beyond_text(20_000)) < 2**20

    def test_sweep_over_the_cap_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "spin-correlation", "--sweep", "0:200001:1rad")
        assert code == 2 and out == ""
        assert err.startswith("error: sweep must be ") and "Traceback" not in err

    def test_a_sweep_whose_last_point_overflows_exits_2(self, capsys):
        # 1e308 + 7.97693134942085e307 is beyond the float range.
        code, out, err = run_cli(capsys, "spin-correlation", "--sweep",
                                 "1e308:1.7976931348623157e308:7.97693134942085e+307rad")
        assert (code, out) == (2, "")
        assert err.startswith("error: sweep must be ") and err.count("\n") == 1
        assert "a finite last point" in err

    def test_requires_phi_or_sweep(self, capsys):
        code, _, err = run_cli(capsys, "spin-correlation")
        assert code == 2 and "phi" in err

    def test_malformed_angle(self, capsys):
        code, _, err = run_cli(capsys, "spin-correlation", "--phi", "60")
        assert code == 2 and "suffix" in err


class TestMcRun:
    def test_pass_at_pinned_seed(self, capsys):
        code, report, _ = run_json(
            capsys, "mc-run", "--phi", "60deg", "--trials", "100000", "--seed", "7"
        )
        assert code == 0
        assert report["passed"] is True
        assert report["results"]["analytic"] == pytest.approx(-0.5, abs=1e-12)
        assert report["manifest"]["config"]["theta2"] == pytest.approx(math.pi / 3)

    def test_zero_trials_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "mc-run", "--phi", "10deg", "--trials", "0")
        assert code == 2 and "trials" in err

    def test_description_both_adds_equivalence_block(self, capsys):
        code, report, _ = run_json(
            capsys, "mc-run", "--phi", "45deg", "--trials", "50000", "--seed", "3",
            "--description", "both",
        )
        assert code == 0
        block = report["results"]["equivalence"]
        assert block["passed"] is True
        assert len(report["checks"]) == 3

    @pytest.mark.parametrize("tolerance, verdicts", [
        ("default", [True, True, True]),
        ("apart", [True, True, False]),  # each near analytic, on opposite sides of it
        ("mixed", [False, True, False]),
        ("zero", [False, False, False]),
    ])
    def test_equivalence_passes_when_its_three_checks_do(self, capsys, monkeypatch, tolerance,
                                                         verdicts):
        """The library's verdict and the CLI's checks agree, also when a check fails."""
        args = ("mc-run", "--phi", "45deg", "--trials", "20000", "--seed", "0",
                "--description", "both")
        if tolerance != "default":
            _, report, _ = run_json(capsys, *args)
            block = report["results"]["equivalence"]
            errors = [abs(block[name]["covariance"] - block["analytic"])
                      for name in ("alice", "bob")]
            tol = {"apart": max(errors), "mixed": sum(errors) / 2, "zero": 0.0}[tolerance]
            monkeypatch.setattr(mc, "covariance_tolerance", lambda analytic, trials: tol)
        code, report, _ = run_json(capsys, *args)
        checks = report["checks"]
        assert [c["name"] for c in checks] == ["alice covariance matches analytic",
                                               "bob covariance matches analytic",
                                               "descriptions agree with each other"]
        assert [c["passed"] for c in checks] == verdicts
        assert report["results"]["equivalence"]["passed"] is report["passed"] is all(verdicts)
        assert code == (0 if all(verdicts) else 1)

    @pytest.mark.parametrize("description", ["alice", "bob"])
    def test_each_description_matches_its_side_of_both(self, capsys, description):
        """One description's run is its side of the comparison: the same stream, so the same
        counts, target and band, under the mc-run-both golden's flags."""
        args = ("mc-run", "--phi", "45deg", "--trials", "20000", "--seed", "1", "--description")
        _, single, _ = run_json(capsys, *args, description)
        _, both, _ = run_json(capsys, *args, "both")
        side, results = both["results"]["equivalence"], single["results"]
        assert results["stats"] == side[description]
        assert (results["analytic"], results["tolerance"]) == (side["analytic"], side["tolerance"])
        assert [c["name"] for c in single["checks"]] == [
            f"{description}: empirical covariance matches analytic"]

    def test_csv_out(self, capsys, tmp_path):
        path = tmp_path / "trials.csv"
        code, report, _ = run_json(
            capsys, "mc-run", "--phi", "30deg", "--trials", "100", "--seed", "1",
            "--csv-out", str(path),
        )
        assert code == 0
        assert report["manifest"]["outputs"]["trials_csv"] == str(path)
        assert len(path.read_text().splitlines()) == 101

    def test_csv_with_both_descriptions_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "mc-run", "--phi", "30deg", "--trials", "100",
            "--description", "both", "--csv-out", "x.csv",
        )
        assert code == 2

    def test_config_round_trip(self, capsys, tmp_path):
        code, out1, _ = run_cli(
            capsys, "mc-run", "--phi", "60deg", "--trials", "20000", "--seed", "123",
            "--format", "json", "--no-timestamp",
        )
        assert code == 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(json.loads(out1)["manifest"]["config"]))
        code, out2, _ = run_cli(
            capsys, "mc-run", "--config", str(cfg_path), "--format", "json", "--no-timestamp"
        )
        assert code == 0
        assert out1 == out2

    def test_flags_override_config_file(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"theta2": 0.1, "trials": 1000, "seed": 5}))
        code, report, _ = run_json(
            capsys, "mc-run", "--config", str(cfg_path), "--theta2", "90deg"
        )
        assert code == 0
        assert report["manifest"]["config"]["theta2"] == pytest.approx(math.pi / 2)
        assert report["manifest"]["config"]["trials"] == 1000


class TestBallProtocol:
    def test_single_stage_defaults(self, capsys):
        code, report, _ = run_json(
            capsys, "ball-protocol", "--stage", "1", "--trials", "200000", "--seed", "9"
        )
        assert code == 0
        stage = report["results"]["stages"][0]
        assert abs(stage["correlation"] - (-0.7)) < 0.01
        assert report["passed"] is True

    def test_all_stages_inequality_block(self, capsys):
        code, report, _ = run_json(
            capsys, "ball-protocol", "--all-stages", "--trials", "200000", "--seed", "9"
        )
        assert code == 0
        ineq = report["results"]["inequality"]
        assert abs(ineq["lhs"] - 0.075) < 0.005
        assert abs(ineq["rhs"] - 0.04) < 0.005
        assert ineq["violated"] is True
        assert len(report["results"]["decomposition"]) == 3

    def test_analytic_mode(self, capsys):
        code, report, _ = run_json(
            capsys, "ball-protocol", "--all-stages", "--mode", "analytic"
        )
        assert code == 0
        ineq = report["results"]["inequality"]
        assert ineq["lhs"] == pytest.approx(0.075, abs=1e-15)
        assert ineq["rhs"] == pytest.approx(0.04, abs=1e-15)

    def test_empty_registered_set_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "ball-protocol", "--stage", "1", "--alice-filter", "c",
            "--bob-filter", "c", "--trials", "1000",
        )
        assert code == 1
        assert "registered no joint trials" in err

    def test_stage_required(self, capsys):
        code, _, err = run_cli(capsys, "ball-protocol")
        assert code == 2

    def test_csv_out(self, capsys, tmp_path):
        path = tmp_path / "stage.csv"
        code, _, _ = run_json(
            capsys, "ball-protocol", "--stage", "1", "--trials", "100", "--seed", "2",
            "--csv-out", str(path),
        )
        assert code == 0
        assert len(path.read_text().splitlines()) == 101


def test_both_ball_subcommands_build_one_stage(capsys, monkeypatch):
    """The CLI passes each config key that names a StageConfig field under that name, so a
    renamed field would lose its value without a word: every field but the stage is a
    ball-protocol key, and both ball subcommands evaluate the same stage."""
    fields = {f.name for f in dataclasses.fields(bp.StageConfig)}
    assert fields - {"stage"} <= {f.key for f in cli.BALL}
    evaluated = []
    report = bp.analytic_stage_report
    monkeypatch.setattr(bp, "analytic_stage_report",
                        lambda config: evaluated.append(config) or report(config))
    for stage in (1, 2, 3):
        evaluated.clear()
        for args in (("ball-protocol", "--mode", "analytic"), ("common-cause", "--builtin", "ball")):
            assert run_cli(capsys, *args, "--stage", str(stage))[0] == 0
        assert len(evaluated) == 2 and evaluated[0] == evaluated[1]
        assert evaluated[0].stage == stage


class TestCommonCause:
    def test_builtin_ball_certified(self, capsys):
        code, report, _ = run_json(capsys, "common-cause", "--builtin", "ball")
        assert code == 0
        assert report["results"]["report"]["certified"] is True
        names = [c["name"] for c in report["checks"]]
        assert any("certified" in n for n in names)

    def test_builtin_spin_factorization(self, capsys):
        code, report, _ = run_json(
            capsys, "common-cause", "--builtin", "spin", "--phi", "45deg"
        )
        assert code == 0
        conditions = {c["name"]: c for c in report["results"]["report"]["conditions"]}
        assert conditions["factorization_given_z"]["holds"] is True
        assert conditions["factorization_given_not_z"]["holds"] is True

    def test_model_file(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "p_z": 0.5,
            "joint_given_z": [[0.15, 0.85], [0.0, 0.0]],
            "joint_given_not_z": [[0.0, 0.0], [0.85, 0.15]],
        }))
        code, report, _ = run_json(capsys, "common-cause", "--model", str(path))
        assert code == 0
        assert report["results"]["report"]["certified"] is True

    def test_unnormalized_model_names_table(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "p_z": 0.5,
            "joint_given_z": [[0.5, 0.5], [0.5, 0.5]],
            "joint_given_not_z": [[0.25, 0.25], [0.25, 0.25]],
        }))
        code, _, err = run_cli(capsys, "common-cause", "--model", str(path))
        assert code == 2
        assert "joint_given_z" in err

    def test_uncertified_model_fails_checks(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "p_z": 0.5,
            "joint_given_z": [[0.45, 0.05], [0.05, 0.45]],
            "joint_given_not_z": [[0.25, 0.25], [0.25, 0.25]],
        }))
        code, report, _ = run_json(capsys, "common-cause", "--model", str(path))
        assert code == 1
        assert report["passed"] is False

    def test_empirical_algorithm_that_registers_nothing_exits_1(self, capsys):
        # One trial runs one of the two algorithms, so the other's conditional
        # table is undefined: a data-level failure, not a configuration error.
        code, out, err = run_cli(
            capsys, "common-cause", "--builtin", "ball", "--empirical", "--trials", "1"
        )
        assert code == 1 and out == ""
        assert err == "error: stage 1: algorithm A1 registered no joint trials in 1 emissions\n"

    @pytest.mark.parametrize("args, p_z, tol", [
        (("--builtin", "ball", "--empirical", "--trials", "16"), "0.375", "1.0"),
        (("--builtin", "spin", "--tolerance", "0.5"), "0.5", "0.5"),
    ], ids=["ball-16-trials", "spin-tolerance-0.5"])
    def test_cause_within_the_tolerance_of_0_or_1_exits_2(self, capsys, args, p_z, tol):
        code, out, err = run_cli(capsys, "common-cause", *args)
        assert (code, out) == (2, "")
        assert err == ("error: cause relevance needs tolerance < p_z < 1 - tolerance, "
                       f"got p_z = {p_z} with tolerance {tol}\n")

    def test_needs_exactly_one_source(self, capsys):
        code, _, _ = run_cli(capsys, "common-cause")
        assert code == 2
        code, _, _ = run_cli(
            capsys, "common-cause", "--builtin", "ball", "--model", "x.json"
        )
        assert code == 2


class TestChsh:
    def test_analytic_default_angles(self, capsys):
        code, report, _ = run_json(capsys, "chsh")
        assert code == 0
        block = report["results"]["chsh"]
        assert abs(block["value"] + 2.0 * math.sqrt(2.0)) <= 1e-12
        assert "derived demonstration" in block["note"]

    def test_custom_angles(self, capsys):
        code, report, _ = run_json(
            capsys, "chsh", "--angles", "0deg,0deg,0deg,0deg"
        )
        assert code == 0
        assert report["results"]["chsh"]["value"] == pytest.approx(-2.0, abs=1e-12)

    def test_a_whole_turn_reports_the_same_axis(self, capsys):
        # -360deg is the axis 0deg: the results, not the manifest, read the same text.
        results = [run_json(capsys, "chsh", f"--angles={a},90deg,45deg,135deg")[1]["results"]
                   for a in ("-360deg", "0deg")]
        assert json.dumps(results[0]) == json.dumps(results[1])
        assert '"theta1": 0.0' in json.dumps(results[0])

    def test_empirical_mode(self, capsys):
        code, report, _ = run_json(
            capsys, "chsh", "--mode", "empirical", "--trials", "100000", "--seed", "5"
        )
        assert code == 0
        assert report["passed"] is True
        assert abs(report["results"]["chsh"]["value"]) > 2.0

    def test_wrong_angle_count(self, capsys):
        code, _, err = run_cli(capsys, "chsh", "--angles", "0deg,90deg")
        assert code == 2 and "four angles" in err


SUBCOMMAND_ARGS = {
    "spin-correlation": ("spin-correlation", "--phi", "60deg"),
    "mc-run": ("mc-run", "--phi", "60deg", "--trials", "20000", "--seed", "44"),
    "ball-protocol": ("ball-protocol", "--stage", "1", "--trials", "20000", "--seed", "44"),
    "common-cause": ("common-cause", "--builtin", "ball"),
    "chsh": ("chsh", "--mode", "empirical", "--trials", "20000", "--seed", "44"),
}


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(SUBCOMMAND_ARGS))
    def test_manifest_config_reproduces_report(self, capsys, tmp_path, name):
        args = SUBCOMMAND_ARGS[name]
        code, out1, _ = run_cli(capsys, *args, "--format", "json", "--no-timestamp")
        assert code == 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(json.loads(out1)["manifest"]["config"]))
        code, out2, _ = run_cli(capsys, name, "--config", str(cfg_path),
                                "--format", "json", "--no-timestamp")
        assert code == 0
        assert out1 == out2


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(SUBCOMMAND_ARGS))
    def test_repeated_runs_byte_identical(self, capsys, name):
        args = (*SUBCOMMAND_ARGS[name], "--format", "json", "--no-timestamp")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("workers", ["2", "8"])
    def test_worker_counts_byte_identical(self, capsys, workers):
        base = ("mc-run", "--phi", "60deg", "--trials", "30000", "--seed", "44",
                "--format", "json", "--no-timestamp")
        _, out1, _ = run_cli(capsys, *base)
        _, out2, _ = run_cli(capsys, *base, "--workers", workers)
        assert out1 == out2

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        args = ("spin-correlation", "--phi", "60deg", "--format", "json", "--no-timestamp")
        _, stdout, _ = run_cli(capsys, *args)
        path = tmp_path / "report.json"
        run_cli(capsys, *args, "--out", str(path))
        assert path.read_text() == stdout

    def test_timestamp_confined_to_manifest_and_excludable(self, capsys):
        code, out, _ = run_cli(capsys, "spin-correlation", "--phi", "60deg",
                               "--format", "json")
        report = json.loads(out)
        stamp = report["manifest"]["timestamp"]
        assert stamp not in json.dumps(report["results"])
        code, out, _ = run_cli(capsys, "spin-correlation", "--phi", "60deg",
                               "--format", "json", "--no-timestamp")
        assert "timestamp" not in json.loads(out)["manifest"]


# ---------------------------------------------------------------------------
# One parser per process: every in-process call shares build_parser()'s
# parser, so no call may leave anything on it that a later call would see.


def shared_then_fresh(capsys, *calls):
    """Each call's outcome, run in turn on one shared parser.

    Each outcome must equal, byte for byte, the same call run alone on a
    newly built parser.
    """
    cli.build_parser.cache_clear()
    shared = [run_cli(capsys, *args) for args in calls]
    for args, outcome in zip(calls, shared):
        cli.build_parser.cache_clear()
        assert run_cli(capsys, *args) == outcome, args
    return shared


JSON_FLAGS = ("--format", "json", "--no-timestamp")


class TestSharedParser:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_usage_errors_then_a_valid_call(self, capsys):
        unknown, unitless, valid = shared_then_fresh(
            capsys,
            ("mc-run", "--phi", "60deg", "--bogus"),  # argparse exits
            ("spin-correlation", "--phi", "60"),  # parse_angle raises mid-parse
            ("spin-correlation", "--phi", "60deg", *JSON_FLAGS),
        )
        assert unknown[0] == unitless[0] == 2 and valid[0] == 0

    def test_repeated_flag_leaves_no_list_behind(self, capsys):
        _, (code, out, _) = shared_then_fresh(
            capsys,
            ("spin-correlation", "--phi", "10deg", "--phi", "20deg", *JSON_FLAGS),
            ("spin-correlation", "--phi", "30deg", *JSON_FLAGS),
        )
        angles = json.loads(out)["results"]["angles"]
        assert code == 0 and [a["phi_degrees"] for a in angles] == pytest.approx([30.0])

    def test_phi_shorthand_leaves_no_axes_behind(self, capsys):
        # --phi assigns ns.theta1 and ns.theta2 after parsing.
        _, (_, out, _) = shared_then_fresh(
            capsys,
            ("mc-run", "--phi", "60deg", "--trials", "1000", *JSON_FLAGS),
            ("mc-run", "--theta2", "30deg", "--trials", "1000", *JSON_FLAGS),
        )
        config = json.loads(out)["manifest"]["config"]
        assert config["theta1"] == 0.0 and config["theta2"] == pytest.approx(math.pi / 6)

    def test_help(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # help wraps at the terminal width
        top, sub = shared_then_fresh(capsys, ("--help",), ("mc-run", "--help"))
        assert top[0] == sub[0] == 0
        assert "mc-run" in top[1] and "--csv-out" in sub[1]


@pytest.mark.parametrize("args", [
    ("spin-correlation", "--phi", "60deg", "--out", "{missing}"),
    ("spin-correlation", "--sweep", "0:180:5deg", "--sweep-out", "{missing}"),
    ("mc-run", "--phi", "60deg", "--trials", "100", "--csv-out", "{missing}"),
    ("ball-protocol", "--stage", "1", "--trials", "100", "--csv-out", "{missing}"),
    # Names open() refuses: one holds a NUL byte, the other a lone surrogate, which the
    # file system encoding cannot encode.
    ("spin-correlation", "--phi", "60deg", "--out", "{missing}\0"),
    ("spin-correlation", "--sweep", "0:180:5deg", "--sweep-out", "{missing}\0"),
    ("mc-run", "--phi", "60deg", "--trials", "100", "--csv-out", "{missing}\0"),
    ("spin-correlation", "--phi", "60deg", "--out", "{missing}\ud800"),
    ("spin-correlation", "--sweep", "0:180:5deg", "--sweep-out", "{missing}\ud800"),
    ("mc-run", "--phi", "60deg", "--trials", "100", "--csv-out", "{missing}\ud800"),
    ("ball-protocol", "--stage", "1", "--trials", "100", "--csv-out", "{missing}\ud800"),
])
def test_unwritable_output_is_a_usage_error(capsys, tmp_path, args):
    missing = str(tmp_path / "no-such-dir" / "out")
    code, _, err = run_cli(capsys, *(a.format(missing=missing) for a in args))
    assert code == 2
    assert err.startswith("error: cannot write") and missing in err and err.count("\n") == 1
    assert "Traceback" not in err


EXPORTS = [("mc-run", "--phi", "60deg", "--trials", "10", "--csv-out"),
           ("ball-protocol", "--stage", "1", "--trials", "10", "--csv-out"),
           ("spin-correlation", "--sweep", "0:10:1deg", "--sweep-out")]


@pytest.mark.parametrize("args", EXPORTS, ids=lambda args: args[0])
@pytest.mark.parametrize("other", ["{path}", "{tmp}/./{name}", "{tmp}/link"],
                         ids=["same", "dot", "symlink"])
def test_out_may_not_overwrite_the_export(capsys, tmp_path, monkeypatch, args, other):
    """Refused before the run, and nothing is written: the report would replace the export."""
    import bellsim.rng

    path = tmp_path / "data.txt"
    (tmp_path / "link").symlink_to(path)
    monkeypatch.setattr(bellsim.rng, "_count", None)  # nothing may be simulated
    out = other.format(path=path, tmp=tmp_path, name=path.name)
    code, stdout, err = run_cli(capsys, *args, str(path), "--out", out)
    assert (code, stdout) == (2, "")
    assert err == f"error: --out and {args[-1]} name the same file {str(path)!r}\n"
    assert not path.exists()


@pytest.mark.parametrize("args", EXPORTS, ids=lambda args: args[0])
@pytest.mark.parametrize("out, reason", [("{tmp}/no-such-dir/r.json", errno.ENOENT),
                                         ("{tmp}", errno.EISDIR),
                                         ("{tmp}/old.json/r.json", errno.ENOTDIR),
                                         ("{tmp}/r.json", errno.EACCES),
                                         ("{tmp}/old.json", errno.EACCES)],
                         ids=["missing-dir", "directory", "file-as-dir", "dir-denied",
                              "file-denied"])
def test_an_unwritable_out_is_refused_before_the_run(capsys, tmp_path, monkeypatch, args, out,
                                                     reason):
    """Nothing is simulated or exported, and --out is neither created nor truncated."""
    import bellsim.rng

    monkeypatch.setattr(bellsim.rng, "_count", None)  # nothing may be simulated
    if reason == errno.EACCES:  # what a user without write permission sees, even as root
        monkeypatch.setattr(cli.os, "access", lambda *args, **kwargs: False)
    (tmp_path / "old.json").write_text("kept")
    export, out = tmp_path / "data.txt", out.format(tmp=tmp_path)
    code, stdout, err = run_cli(capsys, *args, str(export), "--out", out)
    assert (code, stdout) == (2, "")
    assert err == f"error: cannot write {out!r}: {os.strerror(reason)}\n"
    assert not export.exists() and not os.path.exists(tmp_path / "r.json")
    assert (tmp_path / "old.json").read_text() == "kept"


@pytest.mark.parametrize("args", EXPORTS, ids=lambda args: args[0])
@pytest.mark.parametrize("export, reason", [("{tmp}/no-such-dir/data.txt", errno.ENOENT),
                                            ("{tmp}", errno.EISDIR)],
                         ids=["missing-dir", "directory"])
def test_an_unwritable_export_is_refused_before_the_run(capsys, tmp_path, monkeypatch, args,
                                                        export, reason):
    """Nothing is simulated or computed: the error is the one the export's open would raise."""
    import bellsim.rng

    def refuse(*_):
        raise AssertionError("the sweep was computed")

    monkeypatch.setattr(bellsim.rng, "_count", None)  # nothing may be simulated
    monkeypatch.setattr(cli, "correlation_sweep", refuse)
    export = export.format(tmp=tmp_path)
    code, stdout, err = run_cli(capsys, *args, export)
    assert (code, stdout) == (2, "")
    assert err == f"error: cannot write {export!r}: {os.strerror(reason)}\n"


@pytest.mark.parametrize("args", EXPORTS, ids=lambda args: args[0])
def test_out_and_the_export_may_share_a_device(capsys, args):
    code, out, err = run_cli(capsys, *args, os.devnull, "--out", os.devnull)
    assert (code, out, err) == (0, "", "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("args", [*EXPORTS, ("chsh", "--out")], ids=lambda args: args[0])
def test_a_full_device_is_named_in_the_write_error(capsys, args):
    """A write that fails, rather than its open, raises an OSError that names no file."""
    code, out, err = run_cli(capsys, *args, "/dev/full")
    assert (code, out) == (2, "")
    assert err == f"error: cannot write '/dev/full': {os.strerror(errno.ENOSPC)}\n"


class FullStdout:
    """A stdout on a full device: every write raises ENOSPC, as a real write's error."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    writelines = write


def fail_the_report(monkeypatch, report):
    """The flags that send the report to a full device: --out /dev/full, or a full stdout."""
    if report == "stdout":
        monkeypatch.setattr(cli.sys, "stdout", FullStdout())
        return (), "output"
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full device")
    return ("--out", "/dev/full"), "'/dev/full'"


@pytest.mark.parametrize("args", EXPORTS, ids=lambda args: args[0])
@pytest.mark.parametrize("report", ["out", "stdout"])
def test_a_report_that_cannot_be_written_takes_its_export_with_it(capsys, tmp_path, monkeypatch,
                                                                  args, report):
    export = tmp_path / "data.txt"
    out, name = fail_the_report(monkeypatch, report)
    code, _, err = run_cli(capsys, *args, str(export), *out)
    assert code == 2
    assert err == f"error: cannot write {name}: {os.strerror(errno.ENOSPC)}\n"
    assert not export.exists()


@pytest.mark.parametrize("args", EXPORTS, ids=lambda args: args[0])
@pytest.mark.parametrize("report", ["out", "stdout"])
def test_a_device_export_or_a_failed_removal_leaves_the_write_error(capsys, tmp_path, monkeypatch,
                                                                    args, report):
    """A device export is not removed; an export that cannot be removed stays, unreported."""
    def refuse(path):
        assert path != os.devnull, "a device export was removed"
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

    monkeypatch.setattr(cli.os, "remove", refuse)
    out, name = fail_the_report(monkeypatch, report)
    export = tmp_path / "data.txt"
    for path in (os.devnull, str(export)):
        code, _, err = run_cli(capsys, *args, path, *out)
        assert code == 2
        assert err == f"error: cannot write {name}: {os.strerror(errno.ENOSPC)}\n"
    assert export.stat().st_size > 0


@pytest.mark.parametrize("args", [
    ("mc-run", "--phi", "60deg", "--trials", "1000", "--csv-out="),
    ("mc-run", "--phi", "60deg", "--trials", "1000", "--description", "both", "--csv-out="),
    ("ball-protocol", "--stage", "1", "--mode", "analytic", "--csv-out="),
    ("ball-protocol", "--all-stages", "--csv-out="),
    ("spin-correlation", "--sweep", "0:10:5deg", "--sweep-out="),
    ("spin-correlation", "--phi", "60deg", "--sweep-out="),
    ("mc-run", "--phi", "60deg", "--trials", "1000", "--out="),
    ("chsh", "--out="),
], ids=["mc-run-csv", "mc-run-both-csv", "ball-analytic-csv", "ball-all-stages-csv", "sweep-out",
        "sweep-out-without-sweep", "mc-run-out", "chsh-out"])
def test_an_empty_output_path_is_an_output_path(capsys, args):
    """An empty path is given, not absent: it is refused as any unwritable path is, before
    the rules of the run (such as ``--sweep-out needs --sweep``) are checked."""
    code, out, err = run_cli(capsys, *args)
    assert (code, out, err) == (2, "", "error: cannot write '': No such file or directory\n")


@pytest.mark.parametrize("args, message", [
    (("chsh", "--out="), "cannot write ''"),
    (("spin-correlation", "--sweep", "0:10:5deg", "--sweep-out="), "cannot write ''"),
    (("mc-run", "--phi", "60deg", "--trials", "1000", "--csv-out="), "cannot write ''"),
    (("chsh", "--config="), "cannot read config file ''"),
    (("common-cause", "--model="), "cannot read model file ''"),
], ids=["out", "sweep-out", "csv-out", "config", "model"])
def test_an_empty_path_is_named_as_given(capsys, args, message):
    code, out, err = run_cli(capsys, *args)
    assert (code, out, err) == (2, "", f"error: {message}: No such file or directory\n")


READ_FAILS = pytest.mark.skipif(not os.path.exists("/proc/self/mem"),
                                reason="no /proc/self/mem, which opens but fails at read")


@pytest.mark.parametrize("args, message", [
    (("mc-run", "--phi", "xdeg"), "malformed angle 'xdeg'"),
    (("spin-correlation", "--sweep", "0:x:1deg"), "malformed sweep '0:x:1deg'"),
    (("spin-correlation", "--sweep", "0:180deg"),
     "sweep '0:180deg' must be start:stop:step with a unit suffix"),
    pytest.param(("chsh", "--config", "/proc/self/mem"),
                 f"cannot read config file '/proc/self/mem': {os.strerror(errno.EIO)}",
                 marks=READ_FAILS),
    pytest.param(("common-cause", "--model", "/proc/self/mem"),
                 f"cannot read model file '/proc/self/mem': {os.strerror(errno.EIO)}",
                 marks=READ_FAILS),
], ids=["angle", "sweep", "sweep-parts", "config-read", "model-read"])
def test_an_unparsable_flag_or_unreadable_file_is_named(capsys, args, message):
    code, out, err = run_cli(capsys, *args)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("what", ["model", "config"])
def test_a_path_that_open_refuses_is_named_as_unreadable(capsys, tmp_path, what):
    # open() raises ValueError, not OSError, for a name holding a null byte.
    if what == "model":
        (tmp_path / "cfg.json").write_text(json.dumps({"model_file": "m\u0000.json"}))
        args = ("common-cause", "--config", str(tmp_path / "cfg.json"))
    else:
        args = ("chsh", "--config", "m\0.json")
    code, out, err = run_cli(capsys, *args)
    assert (code, out, err) == (2, "", f"error: cannot read {what} file 'm\\x00.json': "
                                       "embedded null byte\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_phi_beyond_the_degree_range_is_a_usage_error(capsys, tmp_path, source, fmt):
    # 1e308 rad is inf in degrees, which the report's phi_degrees cannot hold.
    if source == "flag":
        args = ("--phi", "1e308rad")
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({"phi": [0.5, 1.7e308]}))
        args = ("--config", str(tmp_path / "cfg.json"))
    code, out, err = run_cli(capsys, "spin-correlation", *args, "--format", fmt)
    assert (code, out) == (2, "")
    assert err.startswith("error: phi must be ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_an_empty_phi_list_is_a_usage_error(capsys, tmp_path, fmt):
    # An empty list would run no angle and pass 0/0 checks; --phi cannot give one.
    (tmp_path / "cfg.json").write_text('{"phi": []}')
    code, out, err = run_cli(capsys, "spin-correlation", "--config", str(tmp_path / "cfg.json"),
                             "--format", fmt)
    assert (code, out, err) == (2, "", f"error: phi must be {cli.ANGLES.meaning}, got []\n")


@pytest.mark.parametrize("name", sorted(SUBCOMMAND_ARGS))
def test_zero_workers_is_a_usage_error(capsys, name):
    code, out, err = run_cli(capsys, *SUBCOMMAND_ARGS[name], "--workers", "0")
    assert code == 2 and out == ""
    assert err == "error: workers must be a positive integer, got 0\n"


@pytest.mark.parametrize("trials", [str(2**64 + 1), "1" + "0" * 400], ids=["2**64+1", "10**400"])
@pytest.mark.parametrize("args", [
    ("mc-run", "--phi", "60deg"),
    ("mc-run", "--description", "both"),
    ("ball-protocol", "--stage", "1"),
    ("chsh", "--mode", "empirical"),
    ("common-cause", "--builtin", "ball", "--empirical"),
], ids=" ".join)
def test_trials_beyond_2_to_the_64_is_a_usage_error(capsys, monkeypatch, args, trials):
    from bellsim import rng

    def refuse(*_):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(rng, "_draw", refuse)
    code, out, err = run_cli(capsys, *args, "--trials", trials)
    assert code == 2 and out == ""
    assert err == f"error: trials must be a positive integer of at most 2**64, got {trials}\n"


@pytest.mark.parametrize("seed", ["-1", str(2**64)], ids=["-1", "2**64"])
@pytest.mark.parametrize("args", [
    ("mc-run", "--phi", "60deg"),
    ("ball-protocol", "--stage", "1"),
    ("chsh",),
    ("chsh", "--mode", "empirical"),
    ("common-cause", "--builtin", "ball"),
    ("spin-correlation", "--phi", "60deg"),
], ids=" ".join)
def test_seed_outside_64_bits_is_a_usage_error(capsys, args, seed):
    """Analytic runs too: a manifest records only seeds the engine would take, and
    spin-correlation, which takes --seed and reads none, checks it all the same."""
    code, out, err = run_cli(capsys, *args, "--seed", seed)
    assert (code, out) == (2, "")
    assert err == f"error: seed must be an unsigned 64-bit integer, got {seed}\n"


def test_largest_seed_is_taken(capsys):
    code, report, _ = run_json(capsys, "chsh", "--seed", str(2**64 - 1))
    assert code == 0 and report["manifest"]["config"]["seed"] == 2**64 - 1


def test_every_draw_goes_through_the_patched_seam(capsys, monkeypatch):
    """The hook above refuses draws only if a normal run draws through it."""
    from bellsim import rng

    def refuse(*_):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(rng, "_draw", refuse)
    with pytest.raises(AssertionError, match="a trial was drawn"):
        run_cli(capsys, "mc-run", "--phi", "60deg", "--trials", "10")


#: (argv, message) of a flag that the run would not read.
UNREAD = [
    (("spin-correlation", "--phi", "60deg", "--sweep-out", "{path}"), "--sweep-out needs --sweep"),
    (("common-cause", "--builtin", "spin", "--empirical"), "--empirical needs --builtin ball"),
    (("ball-protocol", "--stage", "1", "--mode", "analytic", "--trials", "5"),
     "--trials needs --mode empirical"),
    (("chsh", "--trials", "5"), "--trials needs --mode empirical"),
    (("common-cause", "--builtin", "ball", "--trials", "7"), "--trials needs --empirical"),
    (("common-cause", "--builtin", "spin", "--stage", "3", "--trials", "7"),
     "--stage needs --builtin ball"),
    (("common-cause", "--builtin", "ball", "--phi", "30deg"), "--phi needs --builtin spin"),
    (("common-cause", "--model", "{path}", "--x-outcome", "-1"), "--x-outcome needs --builtin"),
    (("common-cause", "--model", "{path}", "--y-outcome", "-1"), "--y-outcome needs --builtin"),
    (("ball-protocol", "--stage", "2", "--p1", "0.2"), "--p1 needs stage 1"),
    (("ball-protocol", "--stage", "1", "--p23", "0.2"), "--p23 needs stage 2 or 3"),
    (("mc-run", "--phi", "60deg", "--trials", "1000", "--description", "both", "--csv-out",
      "{path}"), "--csv-out needs one description"),
    (("ball-protocol", "--stage", "1", "--mode", "analytic", "--csv-out", "{path}"),
     "--csv-out needs one empirical stage"),
    (("ball-protocol", "--all-stages", "--csv-out", "{path}"),
     "--csv-out needs one empirical stage"),
]


@pytest.mark.parametrize("args, message", UNREAD)
def test_flag_without_effect_is_a_usage_error(capsys, tmp_path, args, message):
    path = tmp_path / "sweep.dat"
    code, out, err = run_cli(capsys, *(a.format(path=path) for a in args))
    assert code == 2 and out == "" and err == f"error: {message}\n"
    assert not path.exists()


def test_the_readme_table_of_unread_flags_is_what_the_cli_prints():
    """README's "read only with" column, such as ``--x-outcome, --y-outcome: --builtin``,
    read as the ``<flag> needs <what>`` messages it promises."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = readme.split("| subcommand | flags | read only with |\n|---|---|---|\n")[1]
    promised = set()
    for row in rows.split("\n\n")[0].splitlines():
        for rule in row.split("|")[3].replace("`", "").split(";"):
            flags, what = rule.split(":")
            promised.update(f"{flag.strip()} needs {what.strip()}" for flag in flags.split(","))
    assert promised == {message for _, message in UNREAD}


def test_a_range_error_comes_before_a_flag_without_effect(capsys):
    """A kind checks its value's range, so the value's error is the first one met."""
    code, out, err = run_cli(capsys, "ball-protocol", "--stage", "1", "--p23", "2")
    assert (code, out) == (2, "")
    assert err == "error: p_stage23 must be a probability in [0, 1], got 2.0\n"


@pytest.mark.parametrize("args, message", [
    (("common-cause", "--builtin", "ball", "--empirical", "--trials", "20000000",
      "--tolerance", "-1"), "tolerance must be a nonnegative number, got -1.0"),
    (("ball-protocol", "--stage", "2", "--p23", "1.5"),
     "p_stage23 must be a probability in [0, 1], got 1.5"),
], ids=["tolerance", "probability"])
def test_a_value_out_of_range_exits_2_before_any_trial(capsys, monkeypatch, args, message):
    import bellsim.rng

    monkeypatch.setattr(bellsim.rng, "_count", None)  # nothing may be simulated
    code, out, err = run_cli(capsys, *args)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_every_kind_with_a_library_meaning_is_that_contract():
    """A kind whose meaning is a library contract's checks with that contract's predicate,
    so the CLI holds no copy of a library rule that could drift from it."""
    import bellsim
    from bellsim import errors

    library = [importlib.import_module(f"bellsim.{info.name}")
               for info in pkgutil.iter_modules(bellsim.__path__) if info.name != "cli"]
    values = [v for module in library for v in vars(module).values()]
    values += [c for v in values if isinstance(v, tuple) for c in v]  # such as require_filters
    contracts = {c.meaning: c.valid for c in values if isinstance(c, errors.Contract)}
    kinds = [f.kind for command in cli.SUBCOMMANDS.values() for f in command.schema]
    kinds += [k for k in vars(cli).values() if isinstance(k, cli.Kind)]
    shared = [k for k in kinds if k.meaning in contracts]
    assert {k.meaning for k in shared} >= {
        cli.PROBABILITY.meaning, cli.TOLERANCE.meaning, cli.PATH.meaning, cli.SWEEP.meaning,
        bp.require_stage.meaning, *(c.meaning for c in bp.require_filters),
        mc.require_chsh_mode.meaning}
    for kind in shared:
        assert kind.valid is contracts[kind.meaning], kind.meaning


def test_spin_correlation_takes_no_trials(capsys):
    code, out, err = run_cli(capsys, "spin-correlation", "--phi", "60deg", "--trials", "5")
    assert code == 2 and out == "" and "unrecognized arguments: --trials 5" in err


@pytest.mark.parametrize("args", [
    ("ball-protocol", "--all-stages", "--mode", "analytic", "--p1", "0.2", "--p23", "0.1"),
    ("chsh", "--mode", "empirical", "--trials", "1000"),
    ("common-cause", "--builtin", "spin", "--phi", "30deg", "--x-outcome", "-1"),
    ("common-cause", "--builtin", "ball", "--stage", "2", "--empirical", "--trials", "20000"),
    ("spin-correlation", "--phi", "60deg"),
], ids=" ".join)
def test_seed_and_workers_are_taken_everywhere(capsys, args):
    code, _, err = run_cli(capsys, *args, "--seed", "3", "--workers", "2")
    assert code == 0 and err == ""


# ---------------------------------------------------------------------------
# The config contract: a config document means what the flags mean, and a
# value of the wrong type or shape exits 2 with one line naming its key.


def run_config(capsys, tmp_path, subcommand, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return run_cli(capsys, subcommand, "--config", str(path), "--format", "json",
                   "--no-timestamp")


@pytest.mark.parametrize("subcommand,key", [
    ("spin-correlation", "theta1"),
    ("mc-run", "phi"),
    ("ball-protocol", "stream_id"),
    ("common-cause", "angles"),
    ("chsh", "phi"),
])
def test_unknown_config_field_rejected(capsys, tmp_path, subcommand, key):
    code, _, err = run_config(capsys, tmp_path, subcommand, {key: 0.5})
    assert code == 2 and "unknown config fields" in err and key in err


MALFORMED = [
    ("mc-run", "theta2", {"theta2": "abc"}),
    ("mc-run", "theta2", {"theta2": None}),
    ("mc-run", "theta1", {"theta1": "1"}),
    ("ball-protocol", "p_stage1", {"stage": 1, "p_stage1": "x"}),
    ("ball-protocol", "p_stage1", {"stage": 1, "p_stage1": None}),
    ("ball-protocol", "alice_filter", {"stage": 1, "alice_filter": "z"}),
    ("chsh", "angles", {"angles": [0, 1, 2, "x"]}),
    ("chsh", "seed", {"seed": -1}),
    ("mc-run", "seed", {"seed": 1.0}),
    ("common-cause", "tolerance", {"builtin": "ball", "tolerance": "x"}),
    ("common-cause", "phi", {"builtin": "spin", "phi": "60deg"}),
    ("common-cause", "phi", {"builtin": "spin", "phi": None}),
    ("common-cause", "model_file", {"model_file": 3}),
    ("common-cause", "empirical", {"builtin": "ball", "empirical": "yes"}),
    ("common-cause", "x_outcome", {"builtin": "ball", "x_outcome": True}),
    ("spin-correlation", "phi", {"phi": "60deg"}),
    ("spin-correlation", "phi", {"phi": [True]}),
    ("spin-correlation", "sweep", {"sweep": {"start": 0, "stop": 1}}),
    ("spin-correlation", "sweep", {"sweep": {"start": 0, "stop": 1, "step": 0}}),
    ("spin-correlation", "sweep", {"sweep": {"start": 0, "stop": 1e300, "step": 1e-300}}),
    ("spin-correlation", "sweep", {"sweep": {"start": -10**308, "stop": 10**308, "step": 1}}),
    ("spin-correlation", "sweep", {"sweep": {"start": 0, "stop": 200_001, "step": 1}}),
    ("spin-correlation", "sweep", {"sweep": {"start": 1e308, "stop": 1.7976931348623157e308,
                                             "step": 7.97693134942085e+307}}),
]


@pytest.mark.parametrize("subcommand,key,doc", MALFORMED,
                         ids=[f"{s}-{json.dumps(d)}" for s, _, d in MALFORMED])
def test_malformed_config_value_is_a_usage_error(capsys, tmp_path, subcommand, key, doc):
    code, out, err = run_config(capsys, tmp_path, subcommand, doc)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1
    assert "Traceback" not in err


MODEL = {
    "p_z": 0.5,
    "joint_given_z": [[0.15, 0.85], [0.0, 0.0]],
    "joint_given_not_z": [[0.0, 0.0], [0.85, 0.15]],
}


@pytest.mark.parametrize("key,value", [
    ("p_z", "x"),
    ("p_z", None),
    ("p_z", "0.5"),
    ("joint_given_z", [["0.15", 0.85], [0.0, 0.0]]),
    ("sample_size", True),
], ids=lambda v: json.dumps(v))
def test_malformed_model_value_is_a_usage_error(capsys, tmp_path, key, value):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**MODEL, key: value}))
    code, out, err = run_cli(capsys, "common-cause", "--model", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--config", "--model"])
@pytest.mark.parametrize("content", [None, "{", b"\xff", "[" * 200_000 + "]" * 200_000],
                         ids=["missing", "malformed", "bad-utf8", "deep"])
def test_unreadable_json_file_is_a_usage_error_naming_it(capsys, tmp_path, flag, content):
    path = tmp_path / "doc.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    code, out, err = run_cli(capsys, "common-cause", flag, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(path) in err and err.count("\n") == 1


@pytest.mark.parametrize("args, document, key", [
    (("chsh", "--config"), {}, "seed"),
    (("common-cause", "--model"), MODEL, "p_z"),
], ids=["config", "model"])
def test_the_deepest_readable_value_is_refused_in_one_line(capsys, tmp_path, args, document, key):
    """Printing a value can reach the recursion limit that reading it just missed."""
    path = tmp_path / "doc.json"

    def run(depth):
        nested = "[" * depth + "]" * depth
        path.write_text(json.dumps({**document, key: None}).replace("null", nested))
        return run_cli(capsys, *args, str(path))

    readable, unreadable = 1, 200_000
    assert "nested too deeply" in run(unreadable)[2]
    while unreadable - readable > 1:
        depth = (readable + unreadable) // 2
        if "nested too deeply" in run(depth)[2]:
            unreadable = depth
        else:
            readable = depth
    code, out, err = run(readable)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1


def test_a_config_value_too_deep_for_json_dumps_is_described(capsys, monkeypatch, tmp_path):
    def too_deep(value):
        raise RecursionError("maximum recursion depth exceeded while encoding a JSON object")

    (tmp_path / "cfg.json").write_text('{"seed": [[]]}')
    monkeypatch.setattr(cli.json, "dumps", too_deep)
    code, out, err = run_cli(capsys, "chsh", "--config", str(tmp_path / "cfg.json"))
    assert (code, out) == (2, "")
    assert err == f"error: seed must be {cli.SEED.meaning}, got [[]]\n"


#: Any JSON value.  Integers stay at or below 300, or beyond 2**64, so a drawn
#: ``trials`` never runs a long simulation.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(max_value=300) | st.integers(min_value=2**64 + 1)
    | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=3),
    max_leaves=4,
)
ANGLE_VALUES = st.integers(-7, 7) | st.floats(-10.0, 10.0)
#: Valid values of each kind, by meaning; choices draw from their options.
VALID = {
    cli.ANGLE.meaning: ANGLE_VALUES,
    cli.ANGLES.meaning: st.lists(ANGLE_VALUES, min_size=1, max_size=3),
    cli.FOUR_ANGLES.meaning: st.lists(ANGLE_VALUES, min_size=4, max_size=4),
    cli.SWEEP.meaning: st.builds(  # at most 2,000 points
        lambda start, step, n: {"start": start, "stop": start + n * step, "step": step},
        st.floats(-4.0, 4.0), st.floats(1e-3, 1.0), st.integers(0, 1_999)),
    cli.COUNT.meaning: st.integers(1, 300),
    cli.SEED.meaning: st.integers(0, 2**64 - 1),
    cli.PROBABILITY.meaning: st.sampled_from([0, 1, 0.0, 1.0]) | st.floats(0.0, 1.0),
    cli.TOLERANCE.meaning: st.floats(0.0, 1.0),
    cli.SWITCH.meaning: st.booleans(),
}
SCHEMAS = {
    "spin-correlation": cli.SPIN,
    "mc-run": cli.MC,
    "ball-protocol": cli.BALL,
    "common-cause": cli.CAUSE,
    "chsh": cli.CHSH,
}


@st.composite
def config_documents(draw, schema, model_files):
    """A document of valid values, with at most one key set to any JSON value."""

    def valid(field):
        if field.kind is cli.PATH:
            return st.sampled_from(model_files)
        if "choices" in field.kind.flag:
            return st.sampled_from(field.kind.flag["choices"])
        return VALID[field.kind.meaning]

    keys = {f.key: valid(f) for f in schema}
    required = {"trials": keys.pop("trials")} if "trials" in keys else {}
    doc = draw(st.fixed_dictionaries(required, optional=keys))
    if draw(st.booleans()):
        doc[draw(st.sampled_from([f.key for f in schema]))] = draw(JSON_VALUES)
    return doc


@pytest.mark.parametrize("subcommand", sorted(SCHEMAS))
def test_any_config_document_keeps_the_exit_code_contract(tmp_path, subcommand):
    (tmp_path / "model.json").write_text(json.dumps(MODEL))
    (tmp_path / "list.json").write_text("[0.5]")
    (tmp_path / "broken.json").write_text("{")
    model_files = [str(tmp_path / name)
                   for name in ("model.json", "list.json", "broken.json", "missing.json", "")]
    config = tmp_path / "cfg.json"

    @settings(max_examples=100, deadline=None, database=None)
    @given(doc=config_documents(SCHEMAS[subcommand], model_files))
    def check(doc):
        config.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([subcommand, "--config", str(config), "--format", "json",
                         "--no-timestamp"])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()

    check()


GOLDEN = Path(__file__).parent / "golden"
#: The flags of every subcommand, as pinned: (flag, action, type, choices, dest).
PINNED_FLAGS = {
    name: [(a["option_strings"][-1], a["action"], a["type"], a["choices"], a["dest"])
           for a in parser["actions"] if a["action"] != "_HelpAction"]
    for name, parser in json.loads((GOLDEN / "parser.json").read_text()).items()
}
#: Hostile flag values.  ``{dir}`` is a directory, ``{missing}`` a path in a missing
#: directory and ``{out}`` the path that a valid --out names.
PATH_EDGES = ("", "\0", "{dir}", "{missing}", "{out}")
HUGE = (str(2**64), str(2**64 + 1))  # not for --trials: 2**64 trials are valid
EDGES = (*PATH_EDGES, *HUGE, "-1", "0",
         *(f"{v}{unit}" for v in ("nan", "inf", "1e308") for unit in ("", "deg", "rad")))
ANGLE_TEXT = st.builds("{}{}".format, st.floats(-7.0, 7.0), st.sampled_from(["rad", "deg"]))
#: Valid values by flag type, or by dest where the type does not decide.  File flags name
#: files in ``{dir}``; the config file there sets 300 trials.
VALID_TEXT = {
    "float": st.floats(0.0, 1.0).map(repr),
    "parse_angle": ANGLE_TEXT,
    "<lambda>": st.lists(ANGLE_TEXT, min_size=4, max_size=4).map(",".join),
    "parse_sweep": st.builds("0:{}:{}deg".format, st.integers(0, 50), st.integers(1, 10)),
    "trials": st.integers(1, 300).map(str),
    "seed": st.integers(0, 2**64 - 1).map(str),
    "workers": st.integers(1, 2).map(str),
    "config": st.just("{dir}/config.json"),
    "model_file": st.just("{dir}/model.json"),
    "out": st.just("{out}"),
    "csv_out": st.just("{dir}/trials.csv"),
    "sweep_out": st.just("{dir}/sweep.dat"),
}
#: The dests of the flags that name files: a hostile one is a hostile path.
FILES = ("config", "model_file", "out", "csv_out", "sweep_out")


@st.composite
def argvs(draw, subcommand):
    """Each pinned flag absent or valid, but for at most two hostile ones.

    A run without --trials reads the config's 300, never the default million.
    """
    pinned = PINNED_FLAGS[subcommand]
    hostile = draw(st.sets(st.sampled_from([f[0] for f in pinned if f[1] != "_StoreTrueAction"]),
                           max_size=2))
    argv, dests = [subcommand], set()
    for flag, action, kind, choices, dest in pinned:
        if flag in hostile:
            value = draw(st.sampled_from(PATH_EDGES if dest in FILES else
                                         [e for e in EDGES if dest != "trials" or e not in HUGE]))
        elif draw(st.booleans()):
            continue
        elif action == "_StoreTrueAction":
            argv.append(flag)
            continue
        else:
            value = draw(st.sampled_from([str(c) for c in choices]) if choices
                         else VALID_TEXT[kind if kind in VALID_TEXT else dest])
        dests.add(dest)
        argv.append(f"{flag}={value}")  # one token, so that "-1rad" is not read as a flag
    if "trials" not in dests and any(f[4] == "trials" for f in pinned):
        argv = [a for a in argv if not a.startswith("--config=")] + ["--config={dir}/config.json"]
    return argv


@pytest.mark.parametrize("subcommand", sorted(PINNED_FLAGS))
def test_any_argv_keeps_the_exit_code_contract(tmp_path, monkeypatch, subcommand):
    """Exit 0, 1 or 2; no traceback; one error line, or argparse's usage; and an exit of 2
    leaves no file behind."""
    monkeypatch.chdir(tmp_path)  # where a value such as "nan" writes as a relative path
    (tmp_path / "model.json").write_text(json.dumps(MODEL))
    (tmp_path / "config.json").write_text('{"trials": 300}')
    before = sorted(tmp_path.iterdir())

    @settings(max_examples=200, deadline=None, database=None)
    @given(argv=argvs(subcommand))
    def check(argv):
        places = {"dir": tmp_path, "missing": tmp_path / "missing" / "x",
                  "out": tmp_path / "report.txt"}
        argv = [arg.format(**places) for arg in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's own refusals
                code = exc.code
        err = stderr.getvalue()
        assert code in (0, 1, 2), (argv, err)
        assert "Traceback" not in err
        assert (err == "" or err.startswith("usage: ")
                or err.startswith("error: ") and err.count("\n") == 1), (argv, err)
        if code == 2:
            assert sorted(tmp_path.iterdir()) == before, argv
        for path in tmp_path.iterdir():
            if path not in before:
                path.unlink()

    check()


def test_module_entrypoint_runs():
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "bellsim.cli", "spin-correlation", "--phi", "90deg",
         "--format", "json", "--no-timestamp"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["passed"] is True


def test_a_threaded_run_imports_no_pool_module():
    """Helpers are plain threads: neither ``concurrent.futures`` nor the ``logging`` it
    pulls in is loaded by importing the CLI or by a two-worker Monte Carlo run."""
    import subprocess
    import sys

    child = ("import os, sys\n"
             "from bellsim.cli import main\n"
             "argv = 'mc-run --phi 60deg --trials 100000 --workers 2'.split()\n"
             "assert main([*argv, '--out', os.devnull]) == 0\n"
             "print(' '.join(m for m in ('concurrent.futures', 'logging') if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""
