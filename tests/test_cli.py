"""Command-line interface tests (direct main() invocation)."""

import json
import math

import numpy as np
import pytest

import mlocality.cli as cli
from mlocality.inequality import parse_expression
from mlocality.lhv import CertificationError
from mlocality.quantum import NoisyState, ghz_state, w_state
from mlocality.search import OptimizerConfig, maximize_violation
from mlocality.inequality import build_hierarchy_inequality


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

    def test_m_larger_than_n(self, capsys):
        code, _, _ = run(capsys, ["threshold", "--family", "ghz", "--n", "4", "--m", "5"])
        assert code == 2


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
        _, angles = maximize_violation(expr, NoisyState(w_state(4), 1.0))
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

    def test_size_guard_exit_code(self, capsys):
        code, _, _ = run(capsys, ["certify", "--n", "13", "--m", "2", "--samples", "10"])
        assert code == 2

    def test_failure_dump(self, capsys, monkeypatch):
        report = {"kind": "certification_failure", "observed_lhs": 0.5}

        def boom(expr, samples, seed, workers=1):
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

    def test_bisection_tolerance_config_key_is_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bisection_tolerance = 1e-3\n")
        code, _, err = run(capsys, ["threshold", "--family", "ghz", "--n", "2", "--m", "2",
                                    "--config", str(cfg)])
        assert code == 2
        assert "unknown config key" in err

    def test_no_violation_maps_to_exit_1(self, capsys, monkeypatch):
        import mlocality.search as search_mod

        def no_violation(*args, **kwargs):
            from mlocality.search import SymmetricAngles
            return 0.0, SymmetricAngles(0, 0, 0, 0)

        monkeypatch.setattr(search_mod, "maximize_violation", no_violation)
        code, _, err = run(capsys, ["threshold", "--family", "ghz", "--n", "4", "--m", "2"])
        assert code == 1
        assert "no violation" in err


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

    def test_config_file_reaches_optimizer_config(self, capsys, tmp_path):
        # restarts = 0 is rejected by OptimizerConfig, so exit 2 shows the
        # config value, not a built-in default, reached it
        cfg = tmp_path / "run.cfg"
        cfg.write_text("restarts = 0\n")
        code, _, err = run(capsys, ["threshold", "--family", "ghz", "--n", "2", "--m", "2",
                                    "--config", str(cfg)])
        assert code == 2
        assert "restarts" in err

    def test_env_seed_is_used_and_logged(self, capsys, monkeypatch):
        monkeypatch.setenv("MLOCALITY_SEED", "4242")
        code, out, err = run(capsys, ["certify", "--n", "3", "--m", "2", "--samples", "50"])
        assert code == 0
        assert "seed=4242" in out
        assert "MLOCALITY_SEED" in err

    def test_explicit_seed_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MLOCALITY_SEED", "4242")
        code, out, _ = run(capsys, ["certify", "--n", "3", "--m", "2", "--samples", "50",
                                    "--seed", "5"])
        assert code == 0
        assert "seed=5" in out

    @pytest.mark.parametrize("variable", ["MLOCALITY_SEED", "MLOCALITY_WORKERS"])
    def test_malformed_env_integer_is_a_usage_error(self, capsys, monkeypatch, variable):
        monkeypatch.setenv(variable, "four")
        code, _, err = run(capsys, ["certify", "--n", "3", "--m", "2", "--samples", "10"])
        assert code == 2
        assert variable in err
