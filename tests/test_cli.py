import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from degenash.cli import ConfigError, RunReport, build_game_config, main, parse_config, run
from degenash.game import benchmark_config, nash_solve
from degenash.operators import Scheme

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

MINIMAL_SOLVE = """
command: solve
grid: {nx: 16, ny: 16, alpha: 0.5}
solve:
  f: {kind: sinsin}
"""


class TestParseConfig:
    def test_defaults_applied(self):
        cfg = parse_config(MINIMAL_SOLVE)
        assert cfg.theta == 1.0
        assert cfg.scheme is Scheme.UPWIND_Y
        assert cfg.solve["tol"] == 1e-10
        assert cfg.seed == 0

    def test_alpha_out_of_range_names_constraint(self):
        text = MINIMAL_SOLVE.replace("alpha: 0.5", "alpha: 2")
        with pytest.raises(ConfigError, match=r"\(0, 1\]"):
            parse_config(text)

    def test_malformed_yaml_reports_position(self):
        with pytest.raises(ConfigError, match="malformed YAML"):
            parse_config("command: solve\n  bad_indent: {")

    def test_unknown_command(self):
        with pytest.raises(ConfigError, match="command"):
            parse_config("command: simulate")

    def test_sampling_commands_require_seed(self):
        text = (CONFIG_DIR / "benchmark_game.yaml").read_text().replace("seed: 2024\n", "")
        with pytest.raises(ConfigError, match="seed"):
            parse_config(text)

    def test_unknown_study_kind(self):
        with pytest.raises(ConfigError, match="study.kind"):
            parse_config("command: study\nstudy: {kind: nonsense}")

    def test_unknown_field_kind(self):
        with pytest.raises(ConfigError, match="solve.f.kind"):
            parse_config("command: solve\nsolve: {f: {kind: bogus}}")

    def test_bad_rectangle(self):
        text = (CONFIG_DIR / "benchmark_game.yaml").read_text().replace(
            "omega:  [0.1, 0.3, 0.1, 0.9]", "omega:  [0.3, 0.1, 0.1, 0.9]"
        )
        with pytest.raises(ConfigError, match="game.omega"):
            parse_config(text)

    @pytest.mark.parametrize(
        "line, value",
        [
            ("m1: 1.0", ".nan"),
            ("m2: 1.0", ".inf"),
            ("m1: 1.0", "-1.0"),
            ("br_tol: 1.0e-8", "-1.0"),
            ("br_tol: 1.0e-8", "0.0"),
            ("inner_tol: 1.0e-9", ".nan"),
            ("inner_tol: 1.0e-9", "0.0"),
            ("br_max_iters: 200", "0"),
            ("deviation_samples: 200", "-5"),
            ("deviation_samples: 200", "0"),
        ],
    )
    def test_unusable_game_value_names_field(self, line, value):
        key = line.split(":")[0]
        text = (CONFIG_DIR / "benchmark_game.yaml").read_text()
        assert line in text
        with pytest.raises(ConfigError, match=f"game.{key}"):
            parse_config(text.replace(line, f"{key}: {value}"))

    @pytest.mark.parametrize("value", [".nan", ".inf", "-1.0"])
    def test_unusable_theta_rejected(self, value):
        with pytest.raises(ConfigError, match="config.theta"):
            parse_config(MINIMAL_SOLVE + f"theta: {value}\n")

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("coercivity", "n_samples", "0"),
            ("embedding", "n_samples", "-3"),
            ("muckenhoupt", "n_balls", "0"),
            ("embedding", "q_values", "[1, 5]"),
            ("embedding", "q_values", "[2, 4.5]"),
            ("embedding", "q_values", "[]"),
            ("energy", "ratio_cap", "0"),
            ("energy", "ratio_cap", ".nan"),
            ("embedding", "growth_cap", "-1.1"),
            ("embedding", "growth_cap", ".inf"),
            ("coercivity", "safety", "0"),
            ("inclusion", "plateau_tol", ".nan"),
            ("convergence", "levels", "[16, 32]"),
            ("inclusion", "levels", "[32, 16, 64]"),
            ("inclusion", "levels", "[16, 16, 32]"),
            ("convergence", "levels", "5"),
            ("embedding", "q_values", "[2, x]"),
            ("muckenhoupt", "n_balls", "abc"),
            ("energy", "ratio_cap", "high"),
        ],
    )
    def test_unusable_study_value_names_field(self, kind, key, value):
        with pytest.raises(ConfigError, match=f"study.{key}"):
            parse_config(f"command: study\nseed: 1\nstudy: {{kind: {kind}, {key}: {value}}}\n")

    def test_shipped_configs_parse(self):
        for path in sorted(CONFIG_DIR.glob("*.yaml")):
            parse_config(path.read_text())

    def test_benchmark_golden_roundtrip(self):
        # the shipped config must reconstruct the library's benchmark game
        cfg = parse_config((CONFIG_DIR / "benchmark_game.yaml").read_text())
        built = build_game_config(cfg)
        ref = benchmark_config()
        assert built.grid == ref.grid
        for name in ("omega", "omega1", "omega2", "g1_obs", "g2_obs"):
            assert np.array_equal(getattr(built, name).indicator, getattr(ref, name).indicator)
        for name in ("g", "yd1", "yd2"):
            assert np.array_equal(getattr(built, name).values, getattr(ref, name).values)
        assert (built.m1, built.m2) == (ref.m1, ref.m2)
        assert (built.br_tol, built.br_max_iters) == (ref.br_tol, ref.br_max_iters)
        assert built.seed == ref.seed


class TestRun:
    def test_solve_zero_forcing(self, tmp_path):
        cfg = parse_config(
            "command: solve\ngrid: {nx: 12, ny: 12, alpha: 0.5}\n"
            "solve: {f: {kind: zero}}\n"
        )
        cfg.output_dir = str(tmp_path)
        report = run(cfg)
        assert report.results["norms"]["w11"] == 0.0
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "solve_norms.tsv").exists()

    def test_study_inclusion_table(self, tmp_path):
        cfg = parse_config(
            "command: study\ngrid: {alpha: 0.5}\n"
            "study: {kind: inclusion, levels: [8, 16, 24, 32, 48]}\n"
        )
        cfg.output_dir = str(tmp_path)
        run(cfg)
        lines = (tmp_path / "study_levels.tsv").read_text().strip().splitlines()
        assert len(lines) == 6  # header + one row per level
        header = lines[0].split("\t")
        dy_col = header.index("dy_l2")
        dy = [float(row.split("\t")[dy_col]) for row in lines[1:]]
        assert all(b > a for a, b in zip(dy, dy[1:]))

    def test_verify_runs(self, tmp_path):
        cfg = parse_config(
            "command: verify\nseed: 3\ngrid: {nx: 24, ny: 24, alpha: 0.5}\n"
            "verify: {n_test_functions: 4}\n"
        )
        cfg.output_dir = str(tmp_path)
        report = run(cfg)
        assert report.verdict == "pass"
        rows = (tmp_path / "verify_residuals.tsv").read_text().strip().splitlines()
        assert len(rows) == 1 + 2 * 4  # two levels x four test functions

    def test_verify_fails_on_nonfinite_residual(self, tmp_path, monkeypatch):
        import degenash.cli as cli_mod

        monkeypatch.setattr(cli_mod, "theta_weak_form_residual", lambda u, f, phi, theta: math.nan)
        cfg = parse_config(
            "command: verify\nseed: 3\ngrid: {nx: 12, ny: 12, alpha: 0.5}\n"
            "verify: {n_test_functions: 2}\n"
        )
        cfg.output_dir = str(tmp_path)
        report = run(cfg)
        assert report.verdict == "fail"
        assert all(math.isnan(m) for m in report.results["max_residual_by_level"])

    def test_game_persists_tables(self, tmp_path):
        cfg = parse_config(
            (CONFIG_DIR / "benchmark_game.yaml")
            .read_text()
            .replace("nx: 64, ny: 64", "nx: 16, ny: 16")
            .replace("deviation_samples: 200", "deviation_samples: 20")
        )
        cfg.output_dir = str(tmp_path)
        report = run(cfg)
        assert report.verdict == "pass"
        assert (tmp_path / "game_residuals.tsv").exists()
        assert (tmp_path / "game_fields.tsv").exists()
        n_rows = len((tmp_path / "game_fields.tsv").read_text().strip().splitlines())
        assert n_rows == 1 + 16 * 16

    def test_game_fields_match_row_rendering(self, tmp_path):
        # the column-wise writer reproduces the row-by-row rendering exactly
        cfg = parse_config(
            (CONFIG_DIR / "benchmark_game.yaml")
            .read_text()
            .replace("nx: 64, ny: 64", "nx: 16, ny: 16")
            .replace("deviation_samples: 200", "deviation_samples: 10")
        )
        cfg.output_dir = str(tmp_path)
        run(cfg)
        game = build_game_config(cfg)
        res = nash_solve(game)
        X, Y = game.grid.meshgrid()
        f1v, f2v, yv = res.f1_star.values2d(), res.f2_star.values2d(), res.state.values2d()
        expected = ["\t".join(["i", "j", "x", "y", "f1", "f2", "state"])]
        for i in range(game.grid.nx):
            for j in range(game.grid.ny):
                cells = (X[i, j], Y[i, j], f1v[i, j], f2v[i, j], yv[i, j])
                expected.append("\t".join([str(i), str(j)] + [repr(float(c)) for c in cells]))
        assert (tmp_path / "game_fields.tsv").read_text() == "\n".join(expected) + "\n"

    def test_report_roundtrip(self, tmp_path):
        cfg = parse_config(MINIMAL_SOLVE)
        cfg.output_dir = str(tmp_path)
        report = run(cfg)
        recovered = RunReport.from_json(report.to_json())
        assert recovered == report
        on_disk = RunReport.from_json((tmp_path / "report.json").read_text())
        assert on_disk == report

    def test_failure_persists_partial_report(self, tmp_path, monkeypatch):
        import degenash.cli as cli_mod

        def boom(**kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli_mod, "muckenhoupt_study", boom)
        cfg = parse_config("command: study\nseed: 1\nstudy: {kind: muckenhoupt, n_balls: 10}\n")
        cfg.output_dir = str(tmp_path)
        with pytest.raises(RuntimeError, match="synthetic failure"):
            run(cfg)
        report = json.loads((tmp_path / "report.json").read_text())
        assert "synthetic failure" in report["results"]["error"]
        assert report["verdict"] == "fail"


class TestDeterminism:
    def _run_twice(self, text, tmp_path, tables):
        outs = []
        for tag in ("a", "b"):
            cfg = parse_config(text)
            cfg.output_dir = str(tmp_path / tag)
            run(cfg)
            outs.append({t: (tmp_path / tag / t).read_bytes() for t in tables})
        assert outs[0] == outs[1]

    def test_muckenhoupt_tables_byte_identical(self, tmp_path):
        text = "command: study\nseed: 11\nstudy: {kind: muckenhoupt, n_balls: 100}\n"
        self._run_twice(text, tmp_path, ["study_levels.tsv", "study_samples.tsv"])

    def test_coercivity_tables_byte_identical(self, tmp_path):
        text = (
            "command: study\nseed: 4\ngrid: {nx: 16, ny: 16, alpha: 0.5}\n"
            "study: {kind: coercivity, n_samples: 10}\n"
        )
        self._run_twice(text, tmp_path, ["study_levels.tsv", "study_samples.tsv"])

    def test_game_tables_byte_identical(self, tmp_path):
        text = (
            (CONFIG_DIR / "benchmark_game.yaml")
            .read_text()
            .replace("nx: 64, ny: 64", "nx: 12, ny: 12")
            .replace("deviation_samples: 200", "deviation_samples: 15")
        )
        self._run_twice(text, tmp_path, ["game_residuals.tsv", "game_fields.tsv"])


class TestMain:
    def test_verb_config_mismatch_exits_2(self, tmp_path):
        p = tmp_path / "solve.yaml"
        p.write_text(MINIMAL_SOLVE)
        assert main(["study", "--config", str(p)]) == 2

    def test_missing_config_exits_2(self):
        assert main(["solve", "--config", "/nonexistent.yaml"]) == 2

    def test_solve_exits_0(self, tmp_path):
        p = tmp_path / "solve.yaml"
        p.write_text(MINIMAL_SOLVE)
        assert main(["solve", "--config", str(p), "--out", str(tmp_path / "out")]) == 0

    def test_config_file_not_mutated(self, tmp_path):
        p = tmp_path / "solve.yaml"
        p.write_text(MINIMAL_SOLVE)
        before = p.read_bytes()
        main(["solve", "--config", str(p), "--out", str(tmp_path / "out")])
        assert p.read_bytes() == before

    def test_level_override_study(self, tmp_path):
        p = tmp_path / "study.yaml"
        p.write_text("command: study\nstudy: {kind: inclusion, levels: [8, 16, 32]}\n")
        out = tmp_path / "out"
        assert main(["study", "--config", str(p), "--out", str(out), "--level-override", "16"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["levels"] == [8, 16]

    def test_level_override_leaving_two_convergence_levels_exits_2(self, tmp_path):
        p = tmp_path / "study.yaml"
        p.write_text("command: study\nstudy: {kind: convergence, levels: [8, 16, 32]}\n")
        assert main(["study", "--config", str(p), "--out", str(tmp_path / "out"), "--level-override", "16"]) == 2

    def test_level_override_game_grid(self, tmp_path):
        p = tmp_path / "game.yaml"
        p.write_text(
            (CONFIG_DIR / "benchmark_game.yaml")
            .read_text()
            .replace("deviation_samples: 200", "deviation_samples: 10")
        )
        out = tmp_path / "out"
        assert main(["game", "--config", str(p), "--out", str(out), "--level-override", "12"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["nx"] == 12

    def test_seed_override(self, tmp_path):
        p = tmp_path / "study.yaml"
        p.write_text("command: study\nseed: 1\nstudy: {kind: muckenhoupt, n_balls: 50}\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["study", "--config", str(p), "--out", str(out_a), "--seed", "42"])
        main(["study", "--config", str(p), "--out", str(out_b), "--seed", "43"])
        ta = (out_a / "study_samples.tsv").read_bytes()
        tb = (out_b / "study_samples.tsv").read_bytes()
        assert ta != tb


class TestScripts:
    def test_benchmark_game_script_runs_from_source_checkout(self, tmp_path):
        script = Path(__file__).resolve().parent.parent / "scripts" / "run_benchmark_game.py"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, str(script)], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "verdict=pass" in proc.stdout
        report = json.loads((tmp_path / "out" / "benchmark_game" / "report.json").read_text())
        assert report["verdict"] == "pass"
