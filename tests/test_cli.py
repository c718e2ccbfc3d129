"""Command-line interface tests (direct main() invocation)."""

import argparse
import json
import math
import os
import stat
import subprocess
import sys
import time

import numpy as np
import pytest

import mlocality.cli as cli
import mlocality.lhv as lhv
from mlocality.inequality import parse_expression
from mlocality.lhv import CertificationError
from mlocality.quantum import NoisyState, ghz_state, w_state
from mlocality.search import OptimizerConfig, SymmetricAngles, ThresholdResult, maximize_violation
from mlocality.inequality import build_hierarchy_inequality


# The n, i, m, p_i and max_lhs_at_p1 columns of `table --family F --n-list 3,4,5,6
# --format csv` at the default search budget.  The angle columns are left out:
# GHZ's many tied optima make them depend on last-ulp rounding.
TABLE_THRESHOLD_COLUMNS = {
    "ghz": (
        "3,1,2,0.894427,0.0590169943749", "3,2,3,0.782537,0.104210315458",
        "4,1,2,0.947322,0.020852636225", "4,2,3,0.913432,0.0355397213911",
        "4,3,4,0.821021,0.054498835267", "5,1,2,0.963132,0.00956994049683",
        "5,2,3,0.951582,0.0159003518003", "5,3,4,0.922647,0.0209596139979",
        "5,4,5,0.846830,0.0282616820019", "6,1,2,0.970935,0.00467729121107",
        "6,2,3,0.968280,0.00767803113388", "6,3,4,0.959703,0.0098411953778",
        "6,4,5,0.930828,0.011611384879", "6,5,6,0.865786,0.0145331585099",
    ),
    "w": (
        "3,1,2,0.864021,0.0786893258333", "3,2,3,0.660668,0.192607633769",
        "4,1,2,0.902376,0.0405694150421", "4,2,3,0.766524,0.114221476647",
        "4,3,4,0.572403,0.186755365541", "5,1,2,0.909700,0.0248158610022",
        "5,2,3,0.789473,0.0833334842968", "5,3,4,0.683562,0.11573103365",
        "5,4,5,0.459829,0.183550585374", "6,1,2,0.893647,0.0185952674827",
        "6,2,3,0.780412,0.065946973162", "6,3,4,0.717292,0.0923749049702",
        "6,4,5,0.588494,0.109258107044", "6,5,6,0.340572,0.181522434059",
    ),
}


def run(capsys, args):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, ["build", "--n", "4", "--m", "3", "--format", "text"])
        assert code == 0
        assert "+P(0000|aaaa)" in out
        assert out.count("-P(") == 7

    def test_structured_round_trips(self, capsys):
        code, out, _ = run(capsys, ["build", "--n", "4", "--m", "4", "--format", "structured"])
        assert code == 0
        expr = parse_expression(out)
        assert expr.n == 4 and expr.m == 4
        assert len(expr.terms) == 6

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run(capsys, ["build", "--n", "1", "--m", "2"])
        assert code == 2
        assert "error" in err

    def test_oversized_expression_exits_2_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, ["build", "--n", "60", "--m", "30"])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "terms" in err

    def test_m_larger_than_n(self, capsys):
        code, _, _ = run(capsys, ["threshold", "--family", "ghz", "--n", "4", "--m", "5"])
        assert code == 2


class TestOutputPath:
    BUILD = ["build", "--n", "3", "--m", "2"]

    def test_symlink_stays_a_link_and_its_target_gets_the_text(self, capsys, tmp_path):
        _, want, _ = run(capsys, self.BUILD)
        target, link = tmp_path / "target.txt", tmp_path / "link.txt"
        target.write_text("old\n")
        link.symlink_to(target)
        assert run(capsys, self.BUILD + ["--output", str(link)])[0] == 0
        assert link.is_symlink()
        assert target.read_text() == want

    def test_new_file_gets_the_mode_the_umask_leaves(self, capsys, tmp_path):
        path = tmp_path / "out.txt"
        umask = os.umask(0o022)
        try:
            code = run(capsys, self.BUILD + ["--output", str(path)])[0]
        finally:
            os.umask(umask)
        assert code == 0
        assert stat.S_IMODE(path.stat().st_mode) == 0o644

    def test_rewritten_file_keeps_its_mode(self, capsys, tmp_path):
        _, want, _ = run(capsys, self.BUILD)
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        path.chmod(0o640)
        assert run(capsys, self.BUILD + ["--output", str(path)])[0] == 0
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert path.read_text() == want

    def test_non_regular_file_is_written_not_replaced(self, capsys, monkeypatch):
        # os.devnull is a character device: it must be written, never have a
        # file renamed over it, so with os.replace refusing the write succeeds
        def refuse(*args):
            raise AssertionError(f"os.replace{args} over a file that is not regular")

        monkeypatch.setattr(cli.os, "replace", refuse)
        assert run(capsys, self.BUILD + ["--output", os.devnull])[0] == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


class TestEvaluate:
    def test_fully_mixed_value(self, capsys):
        code, out, _ = run(
            capsys,
            ["evaluate", "--n", "4", "--m", "2", "--family", "ghz", "--p", "0",
             "--angles", ",".join(["0"] * 8)],
        )
        assert code == 0
        assert float(out) == pytest.approx(-0.375)

    def test_ghz_zero_angles(self, capsys):
        code, out, _ = run(
            capsys,
            ["evaluate", "--n", "4", "--m", "2", "--family", "ghz", "--p", "1",
             "--symmetric-angles", "0,0,0,0"],
        )
        assert code == 0
        assert float(out) == pytest.approx(-1.5)

    def test_optimized_w_angles_violate_above_threshold(self, capsys):
        expr = build_hierarchy_inequality(4, 4, 1)
        _, angles, _ = maximize_violation(expr, NoisyState(w_state(4), 1.0))
        spec = ",".join(f"{t:.10f}" for t in angles.as_tuple())
        code, out, _ = run(
            capsys,
            ["evaluate", "--n", "4", "--m", "4", "--family", "w", "--p", "0.6",
             "--symmetric-angles", spec],
        )
        assert code == 0
        assert float(out) > 0.0

    def test_malformed_angles(self, capsys):
        code, _, err = run(
            capsys,
            ["evaluate", "--n", "4", "--m", "2", "--family", "ghz", "--p", "1",
             "--angles", "0,0,0"],
        )
        assert code == 2
        assert "error" in err

    def test_missing_angles(self, capsys):
        code, _, _ = run(capsys, ["evaluate", "--n", "4", "--m", "2", "--family", "ghz"])
        assert code == 2

    def test_both_angle_flags_exit_2(self, capsys):
        # one of them used to be dropped without a word
        with pytest.raises(SystemExit) as exc:
            cli.main(["evaluate", "--n", "3", "--m", "2", "--family", "w",
                      "--angles", "0,0,0,1,1,1", "--symmetric-angles", "1,2,3,4"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_angle_flag_and_other_config_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("angles = 0,0,0,1,1,1\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(_EVALUATE + ["--symmetric-angles", "1,2,3,4", "--config", str(cfg)])
        assert exc.value.code == 2


class TestCertify:
    def test_ok_run(self, capsys):
        code, out, _ = run(
            capsys, ["certify", "--n", "3", "--m", "2", "--samples", "200", "--seed", "5"]
        )
        assert code == 0
        assert "deterministic_max = 0" in out
        assert "bound_satisfied = true" in out
        assert "seed=5" in out

    def test_hardy_case_exhaustive(self, capsys):
        code, out, _ = run(
            capsys, ["certify", "--n", "6", "--m", "6", "--samples", "50", "--seed", "5"]
        )
        assert code == 0
        assert "deterministic_max = 0" in out

    @pytest.mark.parametrize(
        "case,line",
        [
            (["--n", "4", "--m", "4", "--samples", "500", "--seed", "39"], "sampled_max = 0\n"),
            # -1/3, printed to 12 significant digits
            (["--n", "4", "--m", "2", "--samples", "3", "--seed", "179"], "sampled_max = -0.333333333333\n"),
        ],
        ids=["zero", "negative"],
    )
    def test_sampled_max_is_printed_rounded(self, capsys, case, line):
        code, out, _ = run(capsys, ["certify"] + case)
        assert code == 0
        assert line in out

    @pytest.mark.parametrize("raw", [5.55e-17, -0.0])
    def test_summation_noise_prints_as_zero(self, capsys, monkeypatch, raw):
        # the sampled runs above read exactly 0, so the rounding of noise
        # around 0 is checked on the value itself
        monkeypatch.setattr(cli, "certify_m_local_bound", lambda *args: raw)
        code, out, _ = run(capsys, ["certify", "--n", "3", "--m", "2", "--samples", "1"])
        assert code == 0
        assert "sampled_max = 0\n" in out

    def test_size_guard_exit_code(self, capsys):
        code, _, _ = run(capsys, ["certify", "--n", "13", "--m", "2", "--samples", "10"])
        assert code == 2

    def test_twelve_parties_in_six_blocks(self, capsys):
        # S(12, 6) = 1,323,652 partitions; each sample unranks only its own
        start = time.perf_counter()
        code, out, _ = run(capsys, ["certify", "--n", "12", "--m", "6", "--samples", "20", "--seed", "1"])
        assert time.perf_counter() - start < 5.0
        assert code == 0
        assert "bound_satisfied = true" in out

    def test_only_drawn_partitions_are_cached(self, capsys):
        lhv._partition.cache_clear()
        code, _, _ = run(capsys, ["certify", "--n", "12", "--m", "6", "--samples", "20", "--seed", "1"])
        assert code == 0
        assert lhv._partition.cache_info().currsize <= 20

    def test_failure_dump(self, capsys, monkeypatch):
        report = {"kind": "certification_failure", "observed_lhs": 0.5}

        def boom(expr, samples, seed):
            raise CertificationError("bound violated", report)

        monkeypatch.setattr(cli, "certify_m_local_bound", boom)
        code, out, err = run(capsys, ["certify", "--n", "4", "--m", "2", "--samples", "10"])
        assert code == 1
        assert "FAIL" in out
        assert json.loads(err)["kind"] == "certification_failure"


class TestThresholdAndTable:
    def test_threshold_text(self, capsys):
        code, out, _ = run(
            capsys,
            ["threshold", "--family", "ghz", "--n", "2", "--m", "2", "--format", "text",
             "--grid-resolution", "12", "--restarts", "4"],
        )
        assert code == 0
        assert "# seed = " in out
        value = float(out.split("p_1 = ")[1].split()[0])
        assert abs(value - 1 / math.sqrt(2)) < 5e-3

    def test_table_csv_and_reproducibility(self, capsys, tmp_path):
        args = ["table", "--family", "ghz", "--n-list", "4", "--grid-resolution", "12",
                "--restarts", "4", "--seed", "77",
                "--format", "csv"]
        code1, out1, _ = run(capsys, args)
        code2, out2, _ = run(capsys, args)
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.strip().split("\n")
        assert lines[0].startswith("family,n,i,m,p_i")
        assert len(lines) == 4
        p1 = float(lines[1].split(",")[4])
        assert abs(p1 - 0.948) < 0.02
        assert lines[1].split(",")[-1] == "77"

    @pytest.mark.parametrize("family", ["ghz", "w"])
    def test_table_threshold_columns_are_pinned(self, capsys, family):
        code, out, _ = run(capsys, ["table", "--family", family, "--n-list", "3,4,5,6", "--format", "csv"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].split(",")[1:6] == ["n", "i", "m", "p_i", "max_lhs_at_p1"]
        assert tuple(",".join(line.split(",")[1:6]) for line in lines[1:]) == TABLE_THRESHOLD_COLUMNS[family]

    def test_csv_rendering(self, capsys):
        angles = SymmetricAngles(0.1, 0.2, 0.3, 0.4)
        rows = [ThresholdResult(4, 2, "ghz", 0.9475, angles, 0.0208, True)]
        cli._emit_threshold_results(rows, argparse.Namespace(format="csv", output=None), 99)
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "family,n,i,m,p_i,max_lhs_at_p1,theta_a1,theta_b1,theta_a,theta_b,seed"
        assert lines[1].startswith("ghz,4,1,2,0.947500,0.0208,")
        assert lines[1].endswith(",99")

    def test_structured_output_is_byte_identical_across_runs(self, capsys):
        args = ["threshold", "--family", "ghz", "--n", "2", "--m", "2", "--seed", "9",
                "--grid-resolution", "12", "--restarts", "4", "--format", "structured"]
        _, out1, _ = run(capsys, args)
        _, out2, _ = run(capsys, args)
        assert out1 == out2
        assert json.loads(out1)["seed"] == 9

    def test_structured_output_and_atomic_write(self, capsys, tmp_path):
        out_path = tmp_path / "row.json"
        code, _, _ = run(
            capsys,
            ["threshold", "--family", "ghz", "--n", "2", "--m", "2", "--seed", "3",
             "--grid-resolution", "12", "--restarts", "4", "--format", "structured",
             "--output", str(out_path)],
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["seed"] == 3
        assert doc["results"][0]["n"] == 2
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".mlocality-")]
        assert not leftovers

    def test_seed_zero_is_accepted_and_only_recorded(self, capsys):
        base = ["threshold", "--family", "ghz", "--n", "2", "--m", "2",
                "--grid-resolution", "12", "--restarts", "4", "--format", "csv"]
        code0, out0, _ = run(capsys, base + ["--seed", "0"])
        code1, out1, _ = run(capsys, base + ["--seed", "1"])
        assert code0 == code1 == 0
        row0, row1 = out0.strip().split("\n")[1], out1.strip().split("\n")[1]
        assert row0.endswith(",0") and row1.endswith(",1")
        assert row0[: -len(",0")] == row1[: -len(",1")]

    @pytest.mark.parametrize(
        "command",
        [["threshold", "--n", "2", "--m", "2"], ["table", "--n-list", "2"]],
        ids=["threshold", "table"],
    )
    def test_bisection_tolerance_flag_is_rejected(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main(command + ["--family", "ghz", "--bisection-tolerance", "1e-3"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [["table", "--n-list", "2", "--family", "ghz"], ["certify", "--n", "3", "--m", "2"]],
        ids=["table", "certify"],
    )
    def test_workers_flag_is_rejected(self, capsys, command):
        # both commands run in one process; neither has a worker count
        with pytest.raises(SystemExit) as exc:
            cli.main(command + ["--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_bisection_tolerance_config_key_is_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bisection_tolerance = 1e-3\n")
        code, _, err = run(capsys, ["threshold", "--family", "ghz", "--n", "2", "--m", "2",
                                    "--config", str(cfg)])
        assert code == 2
        assert "unknown config key" in err

    @pytest.mark.parametrize("option", ["refinement-rounds", "local-tolerance"])
    @pytest.mark.parametrize(
        "command",
        [["threshold", "--n", "2", "--m", "2"], ["table", "--n-list", "2"]],
        ids=["threshold", "table"],
    )
    def test_refinement_budget_flags_are_rejected(self, capsys, command, option):
        # the BFGS iteration budget and step tolerance are constants of the search
        with pytest.raises(SystemExit) as exc:
            cli.main([command[0], "--help"])
        assert exc.value.code == 0
        assert f"--{option}" not in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            cli.main(command + ["--family", "ghz", f"--{option}", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["refinement_rounds", "local_tolerance"])
    @pytest.mark.parametrize(
        "command",
        [["threshold", "--n", "2", "--m", "2"], ["table", "--n-list", "2"]],
        ids=["threshold", "table"],
    )
    def test_refinement_budget_config_keys_are_rejected(self, capsys, tmp_path, command, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 1\n")
        code, out, err = run(capsys, command + ["--family", "ghz", "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert f"unknown config key {key!r}" in err

    @pytest.mark.parametrize("command", [
        ["threshold", "--n", "40", "--m", "2", "--family", "ghz"],
        ["evaluate", "--n", "40", "--m", "2", "--family", "w", "--symmetric-angles", "0,0,0,0"],
    ], ids=["threshold", "evaluate"])
    def test_state_too_large_exits_2(self, capsys, command):
        # refused before the 2^40-amplitude vector is allocated
        code, out, err = run(capsys, command)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "at most 24 parties" in err

    def test_no_violation_maps_to_exit_1(self, capsys, monkeypatch):
        import mlocality.search as search_mod

        def no_violation(*args, **kwargs):
            return 0.0, search_mod.SymmetricAngles(0, 0, 0, 0), search_mod.SearchTrace(0, 1, True)

        monkeypatch.setattr(search_mod, "maximize_violation", no_violation)
        code, _, err = run(capsys, ["threshold", "--family", "ghz", "--n", "4", "--m", "2"])
        assert code == 1
        assert "no violation" in err


class TestOneParser:
    def test_calls_in_one_process_match_fresh_processes(self, capsys, tmp_path):
        # main() reuses one parser; a command, a config file or the flags of
        # one call must not leak into the next
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples = 30\nk_prime = 2\n")
        calls = [
            ["build", "--n", "4", "--m", "3", "--format", "structured"],
            ["certify", "--n", "4", "--m", "3", "--seed", "3", "--config", str(cfg)],
            ["certify", "--n", "4", "--m", "3", "--seed", "3"],
        ]
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        for argv in calls:
            fresh = subprocess.run(
                [sys.executable, "-m", "mlocality.cli", *argv], capture_output=True, text=True, env=env
            )
            assert run(capsys, argv) == (fresh.returncode, fresh.stdout, fresh.stderr)


class TestConfigAndEnvironment:
    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 4\nm = 2\nfamily = ghz\np = 0\nangles = 0,0,0,0,0,0,0,0\n")
        code, out, _ = run(capsys, ["evaluate", "--n", "4", "--m", "2", "--family", "ghz",
                                    "--config", str(cfg)])
        assert code == 0
        assert float(out) == pytest.approx(-0.375)

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p = 0\nangles = 0,0,0,0,0,0,0,0\n")
        code, out, _ = run(
            capsys,
            ["evaluate", "--n", "4", "--m", "2", "--family", "ghz", "--p", "1",
             "--config", str(cfg)],
        )
        assert code == 0
        assert float(out) == pytest.approx(-1.5)

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate = 3\n")
        code, _, err = run(capsys, ["certify", "--n", "3", "--m", "2", "--samples", "10",
                                    "--config", str(cfg)])
        assert code == 2
        assert "unknown config key" in err

    @pytest.mark.parametrize(
        "command",
        [
            ["threshold", "--family", "ghz", "--n", "3", "--m", "3"],
            ["build", "--n", "3", "--m", "2"],
            ["table", "--n-list", "3", "--family", "ghz"],
            ["certify", "--n", "3", "--m", "2", "--samples", "20"],
        ],
    )
    def test_workers_config_key_is_rejected_where_unused(self, capsys, tmp_path, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("workers = 2\n")
        code, out, err = run(capsys, command + ["--config", str(cfg)])
        assert code == 2
        assert out == ""
        assert "unknown config key 'workers'" in err
        assert repr(command[0]) in err

    def test_config_file_reaches_optimizer_config(self, capsys, tmp_path):
        # restarts = 0 is rejected by OptimizerConfig, so exit 2 shows the
        # config value, not a built-in default, reached it
        cfg = tmp_path / "run.cfg"
        cfg.write_text("restarts = 0\n")
        code, _, err = run(capsys, ["threshold", "--family", "ghz", "--n", "2", "--m", "2",
                                    "--config", str(cfg)])
        assert code == 2
        assert "restarts" in err

    @pytest.mark.parametrize("variable", ["MLOCALITY_SEED", "MLOCALITY_WORKERS"])
    def test_env_variable_is_ignored(self, capsys, monkeypatch, variable):
        argv = ["certify", "--n", "3", "--m", "2", "--samples", "10"]
        code, plain, _ = run(capsys, argv)
        monkeypatch.setenv(variable, "four")
        assert run(capsys, argv)[:2] == (code, plain)
        assert code == 0


# Config/flag parity: (argv without the option, config key, value).  A
# required option's flag is in argv, so its config key must lose to it.
_BUILD = ["build", "--n", "4", "--m", "3"]
_EVALUATE = ["evaluate", "--n", "3", "--m", "2", "--family", "w"]
_ANGLES = ["--symmetric-angles", "0.1,0.2,0.3,0.4"]
_CERTIFY = ["certify", "--n", "3", "--m", "2"]
_THRESHOLD = ["threshold", "--n", "3", "--m", "3", "--family", "ghz"]
_TABLE = ["table", "--n-list", "3", "--family", "w"]
# one restart, not the default eight, gives GHZ n=4 m=2 a smaller Q*
# (0.0202847, not 0.0208526); at n=3 it changes only angles at tied optima
_THRESHOLD_GHZ4 = ["threshold", "--n", "4", "--m", "2", "--family", "ghz"]
_TABLE_GHZ4 = ["table", "--n-list", "4", "--family", "ghz"]
_REQUIRED = {"n", "m", "family", "n_list"}
PARITY_CASES = [
    (_BUILD, "n", "5"),
    (_BUILD, "m", "4"),
    (_BUILD, "k_prime", "2"),
    (_BUILD, "format", "structured"),
    (_BUILD, "output", "out.txt"),
    (_EVALUATE + _ANGLES, "n", "4"),
    (_EVALUATE + _ANGLES, "m", "3"),
    (_EVALUATE + _ANGLES, "k_prime", "2"),
    (_EVALUATE + _ANGLES, "family", "ghz"),
    (_EVALUATE + _ANGLES, "p", "0.7"),
    (_EVALUATE, "angles", "0.1,0.2,0.3,0.4,0.5,0.6"),
    (_EVALUATE, "symmetric_angles", "0.5,0.6,0.7,0.8"),
    (_EVALUATE + _ANGLES, "output", "out.txt"),
    (_CERTIFY + ["--samples", "20"], "n", "4"),
    (_CERTIFY + ["--samples", "20"], "m", "3"),
    (["certify", "--n", "4", "--m", "2", "--samples", "1", "--seed", "1"], "k_prime", "2"),
    (_CERTIFY + ["--seed", "5"], "samples", "30"),
    (_CERTIFY + ["--samples", "20"], "seed", "7"),
    (_CERTIFY + ["--samples", "20"], "output", "out.txt"),
    (_THRESHOLD, "n", "4"),
    (_THRESHOLD, "m", "2"),
    (_THRESHOLD, "family", "w"),
    (_THRESHOLD, "seed", "7"),
    (_THRESHOLD, "grid_resolution", "12"),
    (_THRESHOLD_GHZ4, "restarts", "1"),
    (_THRESHOLD, "format", "structured"),
    (_THRESHOLD, "output", "out.txt"),
    (_TABLE, "n_list", "4"),
    (_TABLE, "family", "ghz"),
    (_TABLE, "seed", "7"),
    (_TABLE, "grid_resolution", "12"),
    (_TABLE_GHZ4, "restarts", "1"),
    (_TABLE, "format", "text"),
    (_TABLE, "output", "out.txt"),
]


class TestConfigFlagParity:
    @staticmethod
    def outcome(capsys, tmp_path, argv):
        """Exit code, stdout and the text of the --output file, if any."""
        code, out, _ = run(capsys, argv)
        written = tmp_path / "out.txt"
        text = written.read_text() if written.exists() else None
        written.unlink(missing_ok=True)
        return code, out, text

    @pytest.mark.parametrize(
        "argv,key,value", PARITY_CASES, ids=[f"{a[0]}-{k}" for a, k, _ in PARITY_CASES]
    )
    def test_config_key_equals_flag(self, capsys, tmp_path, monkeypatch, argv, key, value):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        from_config = self.outcome(capsys, tmp_path, argv + ["--config", str(cfg)])
        if key in _REQUIRED:
            # the required flag is in argv and wins over the config key
            assert from_config == self.outcome(capsys, tmp_path, argv)
        else:
            from_flag = self.outcome(capsys, tmp_path, argv + [f"--{key.replace('_', '-')}", value])
            assert from_config == from_flag
            assert from_flag != self.outcome(capsys, tmp_path, argv)

    def test_every_option_has_a_case(self):
        parser = cli.build_parser()
        covered = {(argv[0], key) for argv, key, _ in PARITY_CASES}
        options = set()
        for argv in {tuple(a) for a, _, _ in PARITY_CASES}:
            args = parser.parse_args(list(argv))
            options |= {(args.command, k) for k in vars(args) if k not in ("command", "func", "config")}
        assert covered == options

    def test_invalid_choice_in_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = bogus\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(_THRESHOLD + ["--config", str(cfg)])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_leading_minus_value_is_one_token(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("angles = -1,0,0,0,0,0\n")
        from_config = run(capsys, _EVALUATE + ["--config", str(cfg)])
        from_flag = run(capsys, _EVALUATE + ["--angles=-1,0,0,0,0,0"])
        assert from_config[:2] == from_flag[:2]
        assert from_flag[0] == 0
