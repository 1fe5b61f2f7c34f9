import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import degenash.cli as cli_mod
from degenash.cli import ConfigError, build_game_config, main, parse_config, run
from degenash.game import GameConfig, nash_solve

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

MINIMAL_SOLVE = """
command: solve
grid: {nx: 16, ny: 16, alpha: 0.5}
solve:
  f: {kind: sinsin}
"""

GAME = (CONFIG_DIR / "benchmark_game.yaml").read_text()
STUDY = "command: study\nseed: 1\nstudy: {{kind: {}}}\n"

# The keys each study kind's section may carry besides `kind`.
STUDY_KEYS = {
    "convergence": {"levels", "manufactured"},
    "energy": {"levels"},
    "coercivity": {"n_samples"},
    "inclusion": {"levels", "plateau_tol", "plateau_from"},
    "embedding": {"levels", "q_values", "n_samples"},
    "muckenhoupt": {"n_balls"},
}

# Small, fast study configs, one per kind.
SMALL_STUDIES = {
    "convergence": "grid: {alpha: 0.5}\nstudy: {kind: convergence, levels: [8, 16, 24]}",
    "energy": "grid: {alpha: 0.5}\nstudy: {kind: energy, levels: [8, 16]}",
    "coercivity": "grid: {nx: 12, ny: 12, alpha: 0.5}\nstudy: {kind: coercivity, n_samples: 6}",
    "inclusion": "grid: {alpha: 0.5}\nstudy: {kind: inclusion, levels: [8, 16, 24], plateau_from: 8}",
    "embedding": "grid: {alpha: 0.5}\nstudy: {kind: embedding, levels: [8, 16], n_samples: 4}",
    "muckenhoupt": "study: {kind: muckenhoupt, n_balls: 20}",
}


def small_study(kind: str) -> str:
    return f"command: study\nseed: 2\n{SMALL_STUDIES[kind]}\n"


def row_rendering(header, rows) -> str:
    """Tab-separated rows, floats by repr and everything else by str."""
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


class TestParseConfig:
    def test_defaults_applied(self):
        cfg = parse_config(MINIMAL_SOLVE)
        assert cfg.theta == 1.0
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
            ("embedding", "q_values", "[2, 2]"),
            ("embedding", "q_values", "[2, 2.0000001]"),
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
            ("convergence", "manufactured", "bogus"),
            ("coercivity", "n_samples", "2.7"),
            ("embedding", "n_samples", "true"),
            ("muckenhoupt", "n_balls", "20.5"),
            ("inclusion", "plateau_from", "16.5"),
            ("energy", "levels", "[8, 16.5]"),
        ],
    )
    def test_unusable_study_value_names_field(self, kind, key, value):
        with pytest.raises(ConfigError, match=f"study.{key}"):
            parse_config(f"command: study\nseed: 1\nstudy: {{kind: {kind}, {key}: {value}}}\n")

    @pytest.mark.parametrize(
        "text, path",
        [
            pytest.param(MINIMAL_SOLVE + "tolerance: 1.0e-8\n", "config.tolerance", id="config"),
            pytest.param(MINIMAL_SOLVE + "study: {kind: energy}\n", "config.study", id="config-other-section"),
            pytest.param(MINIMAL_SOLVE.replace("alpha: 0.5}", "alpha: 0.5, nz: 4}"), "grid.nz", id="grid"),
            pytest.param(MINIMAL_SOLVE.replace("sinsin}", "sinsin, scale: 2}"), "solve.f.scale", id="solve-field"),
            pytest.param(MINIMAL_SOLVE + "  tol: 1.0e-9\n  maxiter: 5\n", "solve.maxiter", id="solve"),
            pytest.param("command: verify\nverify: {n_test_functon: 3}\n", "verify.n_test_functon", id="verify"),
            pytest.param(STUDY.format("convergence, n_balls: 5"), "study.n_balls", id="convergence"),
            pytest.param(STUDY.format("energy, manufactured: poly"), "study.manufactured", id="energy"),
            pytest.param(STUDY.format("coercivity, n_sample: 5"), "study.n_sample", id="coercivity-misspelt"),
            pytest.param(STUDY.format("coercivity, levels: [16, 32]"), "study.levels", id="coercivity"),
            pytest.param(STUDY.format("inclusion, q_values: [2]"), "study.q_values", id="inclusion"),
            pytest.param(STUDY.format("embedding, safety: 2.0"), "study.safety", id="embedding"),
            pytest.param(STUDY.format("muckenhoupt, levels: [16]"), "study.levels", id="muckenhoupt"),
            pytest.param(GAME + "  inner_max_iters: 5\n", "game.inner_max_iters", id="game-unsettable"),
            pytest.param(GAME + "  br_tol: 1.0e-8\n", "game.br_tol", id="game-br_tol"),
            pytest.param(GAME + "  deviation_samples: 200\n", "game.deviation_samples", id="game-deviation_samples"),
            pytest.param(STUDY.format("energy, ratio_cap: 1.2"), "study.ratio_cap", id="energy-ratio_cap"),
            pytest.param(STUDY.format("coercivity, safety: 1.5"), "study.safety", id="coercivity-safety"),
            pytest.param(STUDY.format("embedding, growth_cap: 1.1"), "study.growth_cap", id="embedding-growth_cap"),
            pytest.param(GAME.replace("  m2: 1.0\n", "  m3: 1.0\n"), "game.m3", id="game"),
        ],
    )
    def test_unknown_key_names_field(self, text, path):
        with pytest.raises(ConfigError, match=rf"{path}: unknown key"):
            parse_config(text)

    @pytest.mark.parametrize("kind", sorted(STUDY_KEYS))
    def test_study_holds_only_its_kinds_keys(self, kind):
        assert set(parse_config(STUDY.format(kind)).study) == {"kind"} | STUDY_KEYS[kind]

    @pytest.mark.parametrize("theta", ["0", "0.0"])
    def test_coercivity_needs_positive_theta(self, theta):
        with pytest.raises(ConfigError, match="config.theta"):
            parse_config(f"command: study\nseed: 1\ntheta: {theta}\nstudy: {{kind: coercivity}}\n")

    def test_zero_theta_allowed_outside_coercivity(self):
        assert parse_config(MINIMAL_SOLVE + "theta: 0\n").theta == 0.0

    @pytest.mark.parametrize(
        "text, path",
        [
            pytest.param(STUDY.format("muckenhoupt").replace("seed: 1", "seed: -1"), "config.seed", id="seed-negative"),
            pytest.param(STUDY.format("muckenhoupt").replace("seed: 1", "seed: 1.5"), "config.seed", id="seed"),
            pytest.param(MINIMAL_SOLVE.replace("nx: 16", "nx: 16.5"), "grid.nx", id="nx"),
            pytest.param(MINIMAL_SOLVE.replace("ny: 16", "ny: 2.7"), "grid.ny", id="ny"),
            pytest.param("command: verify\nverify: {n_test_functions: 2.5}\n", "verify.n_test_functions", id="verify"),
        ],
    )
    def test_unusable_integer_names_field(self, text, path):
        with pytest.raises(ConfigError, match=path):
            parse_config(text)

    def test_integral_float_reads_as_integer(self):
        cfg = parse_config(STUDY.format("coercivity, n_samples: 5.0"))
        assert cfg.study["n_samples"] == 5 and type(cfg.study["n_samples"]) is int

    @pytest.mark.parametrize("levels, start", [("[8, 16, 24]", 1000), ("[8, 16, 24]", 17), ("[16]", 8)])
    def test_inclusion_must_check_a_refinement_step(self, levels, start):
        with pytest.raises(ConfigError, match="study.plateau_from"):
            parse_config(STUDY.format(f"inclusion, levels: {levels}, plateau_from: {start}"))

    def test_inclusion_plateau_from_second_to_last_level(self):
        cfg = parse_config(STUDY.format("inclusion, levels: [8, 16, 24], plateau_from: 16"))
        assert cfg.study["plateau_from"] == 16

    @pytest.mark.parametrize("text", [GAME, MINIMAL_SOLVE], ids=["game", "solve"])
    def test_scheme_is_an_unknown_key(self, text, tmp_path, capsys):
        # one scheme is left, so no config selects it
        p = tmp_path / "config.yaml"
        p.write_text("scheme: upwind\n" + text)
        verb = parse_config(text).command
        assert main([verb, "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        assert "config.scheme: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_game_scalars_default_to_game_config(self):
        keys = ("m1", "m2")
        text = "\n".join(line for line in GAME.splitlines() if line.split(":")[0].strip() not in keys)
        cfg = parse_config(text)
        defaults = {f.name: f.default for f in dataclasses.fields(GameConfig)}
        for key in keys:
            assert cfg.game[key] == defaults[key]
            assert type(cfg.game[key]) is type(defaults[key])

    def test_shipped_configs_parse(self):
        for path in sorted(CONFIG_DIR.glob("*.yaml")):
            parse_config(path.read_text())


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
        residual_rows = [[k + 1, r] for k, r in enumerate(res.br_residuals)]
        assert (tmp_path / "game_residuals.tsv").read_text() == row_rendering(["sweep", "residual"], residual_rows)

    @pytest.mark.parametrize(
        "kind, study",
        [
            ("convergence", "convergence_study"),
            ("energy", "energy_estimate_study"),
            ("coercivity", "coercivity_check"),
            ("inclusion", "strict_inclusion_demo"),
            ("embedding", "embedding_study"),
            ("muckenhoupt", "muckenhoupt_study"),
        ],
    )
    def test_study_tables_match_row_rendering(self, tmp_path, monkeypatch, kind, study):
        # the column-wise writer reproduces the row-by-row rendering exactly
        results = []
        original = getattr(cli_mod, study)
        monkeypatch.setattr(cli_mod, study, lambda *a, **k: results.append(original(*a, **k)) or results[-1])
        cfg = parse_config(small_study(kind))
        cfg.output_dir = str(tmp_path)
        run(cfg)
        (result,) = results
        names = sorted(result.metrics)
        rows = [[lvl] + [result.metrics[name][k] for name in names] for k, lvl in enumerate(result.levels)]
        assert (tmp_path / "study_levels.tsv").read_text() == row_rendering(["level"] + names, rows)
        orders = [[k, o] for k, o in enumerate(result.observed_orders)]
        if orders:
            assert (tmp_path / "study_orders.tsv").read_text() == row_rendering(["pair", "observed_order"], orders)
        assert (tmp_path / "study_orders.tsv").exists() == bool(orders)
        if result.samples:
            names = sorted(result.samples)
            n = len(result.samples[names[0]])
            rows = [[k] + [result.samples[name][k] for name in names] for k in range(n)]
            assert (tmp_path / "study_samples.tsv").read_text() == row_rendering(["sample"] + names, rows)
        assert (tmp_path / "study_samples.tsv").exists() == bool(result.samples)

    def test_report_roundtrip(self, tmp_path):
        cfg = parse_config(MINIMAL_SOLVE)
        cfg.output_dir = str(tmp_path)
        report = run(cfg)
        assert json.loads((tmp_path / "report.json").read_text()) == dataclasses.asdict(report)

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
        )
        self._run_twice(text, tmp_path, ["game_residuals.tsv", "game_fields.tsv"])


class TestWriteColumns:
    SPECIAL = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072e-310, 0.1, 1e300]

    @pytest.mark.parametrize("seed", range(5))
    def test_renders_as_repr_of_each_value(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        n = 60
        pool = np.array(self.SPECIAL + list(rng.standard_normal(8)))
        payload_nan = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)
        columns = [
            rng.choice(pool, n),
            np.concatenate([rng.choice(pool, n - 2), [0.0, -0.0]]),
            np.where(rng.random(n) < 0.5, payload_nan[0], rng.choice(pool, n)),
            rng.choice(pool, (n // 4, 4)),
            rng.integers(-3, 3, n),
            rng.random(n) < 0.5,
            rng.choice(pool, n).tolist(),
            list(range(n)),
        ]
        header = [f"c{k}" for k in range(len(columns))]
        path = tmp_path / "t.tsv"
        cli_mod._write_columns(path, header, columns)
        cells = [map(repr, np.ravel(c).tolist()) for c in columns]
        expected = "\n".join(["\t".join(header), *map("\t".join, zip(*cells))]) + "\n"
        assert path.read_text() == expected


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
        p.write_text("command: study\nstudy: {kind: inclusion, levels: [8, 16, 32], plateau_tol: 0.2, plateau_from: 8}\n")
        out = tmp_path / "out"
        assert main(["study", "--config", str(p), "--out", str(out), "--level-override", "16"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["levels"] == [8, 16]

    def test_level_override_leaving_two_convergence_levels_exits_2(self, tmp_path):
        p = tmp_path / "study.yaml"
        p.write_text("command: study\nstudy: {kind: convergence, levels: [8, 16, 32]}\n")
        assert main(["study", "--config", str(p), "--out", str(tmp_path / "out"), "--level-override", "16"]) == 2

    @pytest.mark.parametrize("kind, n", [("energy", "16"), ("embedding", "64")])
    def test_level_override_leaving_one_level_exits_2(self, tmp_path, capsys, kind, n):
        # one level would compare the finest level with itself and pass
        p = CONFIG_DIR / f"study_{kind}.yaml"
        out = tmp_path / "out"
        assert main(["study", "--config", str(p), "--out", str(out), "--level-override", n]) == 2
        assert f"study.levels after --level-override {n}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["convergence", "energy", "inclusion", "embedding"])
    def test_level_override_drops_levels(self, tmp_path, kind):
        p = tmp_path / "study.yaml"
        p.write_text(re.sub(r"levels: \[[^]]*\]", "levels: [8, 16, 24, 32]", small_study(kind)))
        out = tmp_path / "out"
        assert main(["study", "--config", str(p), "--out", str(out), "--level-override", "30"]) in (0, 1)
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["levels"] == report["config"]["study"]["levels"] == [8, 16, 24]

    @pytest.mark.parametrize("n", [16, 8])
    def test_level_override_sets_coercivity_grid(self, tmp_path, n):
        p = tmp_path / "study.yaml"
        p.write_text((CONFIG_DIR / "study_coercivity.yaml").read_text().replace("n_samples: 200", "n_samples: 5"))
        out = tmp_path / "out"
        assert main(["study", "--config", str(p), "--out", str(out), "--level-override", str(n)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert (report["config"]["nx"], report["config"]["ny"]) == (n, n)
        assert report["results"]["levels"] == [n]

    def test_level_override_rejected_for_muckenhoupt(self, tmp_path, capsys):
        p = tmp_path / "study.yaml"
        p.write_text(small_study("muckenhoupt"))
        out = tmp_path / "out"
        assert main(["study", "--config", str(p), "--out", str(out), "--level-override", "16"]) == 2
        assert "--level-override" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [
            "command: study\nstudy: {kind: convergence, levels: [8, 16, 24], manufactured: bogus}\n",
            "command: study\nseed: 3\ntheta: 0\nstudy: {kind: coercivity, n_samples: 5}\n",
        ],
        ids=["manufactured", "coercivity-theta"],
    )
    def test_former_runtime_failures_exit_2(self, tmp_path, text):
        p = tmp_path / "study.yaml"
        p.write_text(text)
        assert main(["study", "--config", str(p), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("where", ["grid.nx", "--level-override"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_verify_without_a_coarser_level_exits_2(self, tmp_path, capsys, where, n):
        # the levels would be [4, n]: nothing to refine, so the verdict could only fail
        nx = n if where == "grid.nx" else 16
        p = tmp_path / "verify.yaml"
        p.write_text(f"command: verify\nseed: 3\ngrid: {{nx: {nx}, ny: {nx}}}\nverify: {{n_test_functions: 2}}\n")
        out = tmp_path / "out"
        flags = ["--level-override", str(n)] if where == "--level-override" else []
        assert main(["verify", "--config", str(p), "--out", str(out), *flags]) == 2
        assert f"{where}: must be at least 5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ny", [16, 64])
    def test_verify_on_a_non_square_grid_exits_2(self, tmp_path, capsys, ny):
        # verify runs square grids at the levels [max(4, nx // 2), nx]
        p = tmp_path / "verify.yaml"
        p.write_text(f"command: verify\nseed: 3\ngrid: {{nx: 32, ny: {ny}}}\nverify: {{n_test_functions: 2}}\n")
        out = tmp_path / "out"
        assert main(["verify", "--config", str(p), "--out", str(out)]) == 2
        assert "grid.ny: verify runs square grids" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_on_five_nodes_passes(self, tmp_path):
        p = tmp_path / "verify.yaml"
        p.write_text("command: verify\nseed: 3\nverify: {n_test_functions: 2}\n")
        out = tmp_path / "out"
        assert main(["verify", "--config", str(p), "--out", str(out), "--level-override", "5"]) == 0
        assert json.loads((out / "report.json").read_text())["results"]["levels"] == [4, 5]

    def test_level_override_game_grid(self, tmp_path):
        p = tmp_path / "game.yaml"
        p.write_text((CONFIG_DIR / "benchmark_game.yaml").read_text())
        out = tmp_path / "out"
        assert main(["game", "--config", str(p), "--out", str(out), "--level-override", "12"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["nx"] == 12

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        p = tmp_path / "study.yaml"
        p.write_text(small_study("muckenhoupt"))
        out = tmp_path / "out"
        assert main(["study", "--config", str(p), "--out", str(out), "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_level_override_leaving_no_plateau_step_exits_2(self, tmp_path, capsys):
        p = tmp_path / "study.yaml"
        p.write_text("command: study\nstudy: {kind: inclusion, levels: [8, 16, 32, 64], plateau_from: 16}\n")
        out = tmp_path / "out"
        assert main(["study", "--config", str(p), "--out", str(out), "--level-override", "16"]) == 2
        assert "study.plateau_from after --level-override 16" in capsys.readouterr().err
        assert not out.exists()

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
