import dataclasses
import importlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import degenash.analysis as analysis
import degenash.cli as cli_mod
from conftest import load_script, peak_bytes
from degenash.cli import ConfigError, build_game_config, main, parse_config, run
from degenash.game import GameConfig, control_norm, nash_solve
from degenash.grid import GridFunction, build_grid, rect_mask

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

MINIMAL_SOLVE = """
command: solve
grid: {nx: 16, ny: 16, alpha: 0.5}
solve:
  f: {kind: sinsin}
"""

GAME = (CONFIG_DIR / "benchmark_game.yaml").read_text()
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
STUDY = "command: study\nstudy: {{kind: {}}}\n"

# The keys each study kind's section may carry besides `kind`.
STUDY_KEYS = {
    "convergence": {"levels"},
    "energy": {"levels"},
    "coercivity": set(),
    "inclusion": {"levels"},
    "embedding": {"levels"},
    "muckenhoupt": set(),
}

# Small, fast study configs, one per kind; the sampling kinds are small
# under the few_samples fixture.
SMALL_STUDIES = {
    "convergence": "grid: {alpha: 0.5}\nstudy: {kind: convergence, levels: [8, 16, 24]}",
    "energy": "grid: {alpha: 0.5}\nstudy: {kind: energy, levels: [8, 16]}",
    "coercivity": "grid: {nx: 12, ny: 12, alpha: 0.5}\nstudy: {kind: coercivity}",
    "inclusion": "grid: {alpha: 0.5}\nstudy: {kind: inclusion, levels: [16, 32, 48]}",
    "embedding": "grid: {alpha: 0.5}\nstudy: {kind: embedding, levels: [8, 16]}",
    "muckenhoupt": "study: {kind: muckenhoupt}",
}


@pytest.fixture
def few_samples(monkeypatch):
    """Six coercivity and four embedding samples: each study reads its
    count when it is called, so a run through the CLI reads these too."""
    monkeypatch.setattr(analysis, "COERCIVITY_SAMPLES", 6)
    monkeypatch.setattr(analysis, "EMBEDDING_SAMPLES", 4)


# Each shipped config with a grid, on its lowest shipped levels: the level
# override that keeps as few levels as its levels rule allows, or None to
# run it as shipped; the game at 32 x 32.
LOWEST_LEVELS = {
    "verify_weak_form": 64, "study_convergence": 64, "study_energy": 32, "study_coercivity": None,
    "study_inclusion": 32, "study_embedding": None, "benchmark_game": 32,
}


def small_study(kind: str) -> str:
    return f"command: study\n{SMALL_STUDIES[kind]}\n"


def command_of(text: str) -> str:
    return re.search(r"^command: (\w+)", text, re.M)[1]


def row_rendering(header, rows) -> str:
    """Tab-separated rows, floats by repr and everything else by str."""
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


# Each key read as a real number, with a boolean in its value.
BOOLEAN_REALS = [
    ("grid.alpha", MINIMAL_SOLVE.replace("alpha: 0.5", "alpha: true")),
    ("solve.tol", MINIMAL_SOLVE + "  tol: true\n"),
    ("solve.f.amplitude", MINIMAL_SOLVE.replace("{kind: sinsin}", "{kind: sinsin, amplitude: yes}")),
    *[(f"game.{k}.amplitude", re.sub(rf"(  {k}: +{{kind: sinsin, amplitude: )[^}}]*", r"\g<1>true", GAME))
      for k in ("g", "yd1", "yd2")],
    *[(f"game.{k}", GAME.replace(f"{k}: 1.0", f"{k}: true")) for k in ("m1", "m2")],
    *[(f"game.{k}", re.sub(rf"(\n  {k}: +\[)[^,]*", r"\g<1>true", GAME))
      for k in ("omega", "omega1", "omega2", "g1_obs", "g2_obs")],
]


class TestParseConfig:
    @pytest.mark.parametrize("where, text", BOOLEAN_REALS, ids=[w for w, _ in BOOLEAN_REALS])
    def test_boolean_real_rejected(self, where, text):
        assert text not in (MINIMAL_SOLVE, GAME)
        with pytest.raises(ConfigError, match=rf"^{re.escape(where)}: cannot interpret \[?True"):
            parse_config(text)

    def test_boolean_real_exits_2(self, tmp_path, capsys):
        p = tmp_path / "solve.yaml"
        p.write_text(MINIMAL_SOLVE + "  tol: true\n")
        assert main(["solve", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        assert "solve.tol: cannot interpret True" in capsys.readouterr().err

    def test_numeric_string_reads_as_real(self):
        # YAML reads 1e-12, which has no decimal point, as a string
        cfg = parse_config(MINIMAL_SOLVE + "  tol: 1e-12\n")
        assert cfg.solve["tol"] == 1e-12 and type(cfg.solve["tol"]) is float

    def test_defaults_applied(self):
        cfg = parse_config(MINIMAL_SOLVE)
        assert cfg.solve["tol"] == 1e-10
        assert "seed" not in dataclasses.asdict(cfg)  # no run reads a seed
        assert parse_config("command: verify\n").verify == {"levels": [32, 64]}

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

    # an explicit null is named as null, not as a missing key, also where
    # the key has a default
    NULL_KEYS = [
        ("config.output_dir", MINIMAL_SOLVE + "output_dir: null\n"),
        ("grid.alpha", MINIMAL_SOLVE.replace("alpha: 0.5", "alpha: null")),
        ("solve.f.amplitude", MINIMAL_SOLVE.replace("{kind: sinsin}", "{kind: sinsin, amplitude: null}")),
    ]

    @pytest.mark.parametrize("where, text", NULL_KEYS, ids=[w for w, _ in NULL_KEYS])
    def test_null_key_exits_2_naming_null(self, tmp_path, monkeypatch, capsys, where, text):
        with pytest.raises(ConfigError, match=rf"^{re.escape(where)}: key is null; give it a value$"):
            parse_config(text)
        p = tmp_path / "run.yaml"
        p.write_text(text)
        # no --out, which would stand for a null output_dir
        monkeypatch.chdir(tmp_path)
        assert main([command_of(text), "--config", str(p)]) == 2
        assert f"{where}: key is null" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            # n_samples and manufactured are no keys of a study section, so
            # a config that sets one is refused, naming it, at any value
            ("coercivity", "n_samples", "0"),
            ("embedding", "n_samples", "-3"),
            ("convergence", "levels", "[16, 32]"),
            ("inclusion", "levels", "[32, 16, 64]"),
            ("inclusion", "levels", "[16, 16, 32]"),
            ("inclusion", "levels", "[16]"),
            ("convergence", "levels", "5"),
            ("convergence", "manufactured", "bogus"),
            ("coercivity", "n_samples", "2.7"),
            ("embedding", "n_samples", "true"),
            ("energy", "levels", "[8, 16.5]"),
        ],
    )
    def test_unusable_study_value_names_field(self, kind, key, value):
        with pytest.raises(ConfigError, match=f"study.{key}"):
            parse_config(f"command: study\nstudy: {{kind: {kind}, {key}: {value}}}\n")

    @pytest.mark.parametrize(
        "text, path",
        [
            pytest.param(MINIMAL_SOLVE + "tolerance: 1.0e-8\n", "config.tolerance", id="config"),
            # the sampling studies draw from fixed streams, so no run reads a seed
            pytest.param("seed: 3\n" + STUDY.format("coercivity"), "config.seed", id="seed"),
            pytest.param(MINIMAL_SOLVE + "study: {kind: energy}\n", "config.study", id="config-other-section"),
            pytest.param(MINIMAL_SOLVE.replace("alpha: 0.5}", "alpha: 0.5, nz: 4}"), "grid.nz", id="grid"),
            pytest.param(MINIMAL_SOLVE.replace("sinsin}", "sinsin, scale: 2}"), "solve.f.scale", id="solve-field"),
            pytest.param(MINIMAL_SOLVE + "  tol: 1.0e-9\n  maxiter: 5\n", "solve.maxiter", id="solve"),
            pytest.param("command: verify\nverify: {n_test_functon: 3}\n", "verify.n_test_functon", id="verify"),
            pytest.param(STUDY.format("convergence, n_samples: 5"), "study.n_samples", id="convergence"),
            pytest.param(STUDY.format("energy, manufactured: poly"), "study.manufactured", id="energy"),
            pytest.param(STUDY.format("coercivity, n_sample: 5"), "study.n_sample", id="coercivity-misspelt"),
            pytest.param(STUDY.format("coercivity, levels: [16, 32]"), "study.levels", id="coercivity"),
            pytest.param(STUDY.format("inclusion, q_values: [2]"), "study.q_values", id="inclusion"),
            pytest.param(STUDY.format("embedding, safety: 2.0"), "study.safety", id="embedding"),
            pytest.param(STUDY.format("muckenhoupt, levels: [16]"), "study.levels", id="muckenhoupt"),
            pytest.param(STUDY.format("muckenhoupt, n_balls: 500"), "study.n_balls", id="muckenhoupt-n_balls"),
            pytest.param(GAME + "  inner_max_iters: 5\n", "game.inner_max_iters", id="game-unsettable"),
            pytest.param(GAME + "  br_tol: 1.0e-8\n", "game.br_tol", id="game-br_tol"),
            pytest.param(GAME + "  deviation_samples: 200\n", "game.deviation_samples", id="game-deviation_samples"),
            pytest.param(STUDY.format("energy, ratio_cap: 1.2"), "study.ratio_cap", id="energy-ratio_cap"),
            pytest.param(STUDY.format("coercivity, safety: 1.5"), "study.safety", id="coercivity-safety"),
            pytest.param(STUDY.format("embedding, growth_cap: 1.1"), "study.growth_cap", id="embedding-growth_cap"),
            pytest.param(STUDY.format("inclusion, plateau_tol: 0.05"), "study.plateau_tol", id="inclusion-plateau_tol"),
            pytest.param(STUDY.format("inclusion, plateau_from: 32"), "study.plateau_from", id="inclusion-plateau_from"),
            pytest.param(GAME.replace("  m2: 1.0\n", "  m3: 1.0\n"), "game.m3", id="game"),
        ],
    )
    def test_unknown_key_names_field(self, text, path):
        with pytest.raises(ConfigError, match=rf"{path}: unknown key"):
            parse_config(text)

    @pytest.mark.parametrize("kind", sorted(STUDY_KEYS))
    def test_study_holds_only_its_kinds_keys(self, kind):
        assert set(parse_config(STUDY.format(kind)).study) == {"kind"} | STUDY_KEYS[kind]

    def test_the_kinds_with_levels_are_the_level_rules_of_analysis(self):
        assert {kind for kind, table in cli_mod.STUDIES.items() if "levels" in table} == analysis.LEVELS.keys()

    @pytest.mark.parametrize(
        "text, path",
        [
            pytest.param(MINIMAL_SOLVE + "theta: 1.0\n", "config.theta", id="top-theta"),
            pytest.param("command: verify\ntheta: 1.0\n", "config.theta", id="top-theta-verify"),
            pytest.param(MINIMAL_SOLVE + "  theta: 1.0\n", "solve.theta", id="solve-theta"),
            pytest.param(GAME + "  theta: 1.0\n", "game.theta", id="game-theta"),
            *[pytest.param(STUDY.format(f"{kind}, theta: 1.0"), "study.theta", id=f"{kind}-theta")
              for kind in ("convergence", "energy", "coercivity", "inclusion", "embedding", "muckenhoupt")],
            # THETA, verify's sinsin forcing and Q_VALUES are constants of the
            # library: a zero forcing would read residuals of 0.0, whose order
            # of +inf passes whatever the solve does
            pytest.param("command: verify\nverify: {theta: 1.0}\n", "verify.theta", id="verify-theta"),
            pytest.param("command: verify\nverify: {f: {kind: zero}}\n", "verify.f", id="verify-zero-forcing"),
            pytest.param("command: verify\nverify: {f: {kind: sinsin, amplitude: 0.0}}\n", "verify.f",
                         id="verify-zero-amplitude"),
            pytest.param(STUDY.format("embedding, q_values: [2, 3, 4]"), "study.q_values", id="embedding-q_values"),
            # so are the sample counts and the convergence study's sinsin pair
            pytest.param(STUDY.format("coercivity, n_samples: 200"), "study.n_samples", id="coercivity-n_samples"),
            pytest.param(STUDY.format("embedding, n_samples: 100"), "study.n_samples", id="embedding-n_samples"),
            pytest.param(STUDY.format("convergence, manufactured: sinsin"), "study.manufactured",
                         id="convergence-manufactured"),
            *[pytest.param(f"command: verify\ngrid: {{{key}: 32}}\n", f"grid.{key}", id=f"verify-{key}")
              for key in ("nx", "ny")],
            *[pytest.param(f"grid: {{{key}: 32}}\n" + STUDY.format(kind), f"grid.{key}", id=f"{kind}-{key}")
              for kind in ("convergence", "energy", "inclusion", "embedding") for key in ("nx", "ny")],
            pytest.param("grid: {alpha: 0.5}\n" + STUDY.format("muckenhoupt"), "config.grid", id="muckenhoupt-grid"),
            # and no run reads a seed: the sampling studies draw from fixed streams
            *[pytest.param("seed: 3\n" + (CONFIG_DIR / f"study_{kind}.yaml").read_text(), "config.seed", id=f"{kind}-seed")
              for kind in ("coercivity", "embedding")],
        ],
    )
    def test_key_outside_the_run_that_reads_it_exits_2(self, tmp_path, capsys, text, path):
        p = tmp_path / "config.yaml"
        p.write_text(text)
        out = tmp_path / "out"
        assert main([command_of(text), "--config", str(p), "--out", str(out)]) == 2
        assert f"error: {path}: unknown key" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, path",
        [
            pytest.param(MINIMAL_SOLVE.replace("nx: 16", "nx: 16.5"), "grid.nx", id="nx"),
            pytest.param(MINIMAL_SOLVE.replace("ny: 16", "ny: 2.7"), "grid.ny", id="ny"),
        ],
    )
    def test_unusable_integer_names_field(self, text, path):
        with pytest.raises(ConfigError, match=path):
            parse_config(text)

    def test_integral_float_reads_as_integer(self):
        cfg = parse_config(MINIMAL_SOLVE.replace("nx: 16", "nx: 16.0"))
        assert cfg.nx == 16 and type(cfg.nx) is int

    @pytest.mark.parametrize(
        "where, text",
        [
            ("config.output_dir", MINIMAL_SOLVE + "output_dir: [a, b]\n"),
            ("config.output_dir", MINIMAL_SOLVE + "output_dir: true\n"),
            ("config.output_dir", MINIMAL_SOLVE + "output_dir: ''\n"),
            ("solve.f.kind", MINIMAL_SOLVE.replace("{kind: sinsin}", "{kind: [sinsin]}")),
        ],
        ids=["output_dir-list", "output_dir-boolean", "output_dir-empty", "field-kind"],
    )
    def test_text_key_takes_only_a_nonempty_string(self, where, text):
        # str() would name a directory "['a', 'b']" or "True", and "" the
        # working directory
        with pytest.raises(ConfigError, match=rf"^{re.escape(where)}: cannot interpret "):
            parse_config(text)

    @pytest.mark.parametrize(
        "kind, levels",
        [
            ("convergence", "[16, 16, 32]"),
            ("convergence", "[64, 32, 16]"),
            ("energy", "[32, 32]"),
            ("embedding", "[32, 32]"),
            ("inclusion", "[32, 16]"),
        ],
    )
    def test_levels_must_strictly_increase(self, kind, levels):
        # a repeated level divides by log 1 in a convergence order or
        # compares a level with itself; a falling list judges a coarsening
        with pytest.raises(ConfigError, match=r"study.levels: must be a strictly increasing list"):
            parse_config(STUDY.format(f"{kind}, levels: {levels}"))

    @pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
    @pytest.mark.parametrize("where", ["solve.f", "game.g", "game.yd1", "game.yd2"])
    def test_nonfinite_amplitude_names_field(self, where, value):
        section, name = where.split(".")
        if section == "game":
            text = re.sub(rf"(  {name}: +{{kind: sinsin, amplitude: )[^}}]*", rf"\g<1>{value}", GAME)
        else:
            text = f"command: {section}\n{section}: {{{name}: {{kind: sinsin, amplitude: {value}}}}}\n"
        assert text != GAME
        with pytest.raises(ConfigError, match=rf"{where}.amplitude: must be finite"):
            parse_config(text)

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


def python_loader(monkeypatch) -> None:
    """PyYAML as it is without libyaml: no CSafeLoader."""
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)


LIBYAML = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")


class TestLoaders:
    @LIBYAML
    def test_libyaml_reads_the_config(self, monkeypatch):
        used = []

        class Spy(yaml.CSafeLoader):
            def __init__(self, stream):
                used.append(stream)
                super().__init__(stream)

        monkeypatch.setattr(yaml, "CSafeLoader", Spy)
        parse_config(MINIMAL_SOLVE)
        assert used == [MINIMAL_SOLVE]

    @LIBYAML
    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda p: p.stem)
    def test_shipped_config_reads_alike_under_both_loaders(self, monkeypatch, path):
        text = path.read_text()
        fast = parse_config(text)
        python_loader(monkeypatch)
        assert parse_config(text) == fast

    @pytest.mark.parametrize("loader", ["libyaml", "python"])
    @pytest.mark.parametrize(
        "text",
        ["command: solve\n  bad_indent: {", "a: [1, 2", "a:\n\t- 1", "a: 1\x00", "a: \ud800", "a: &x 1\nb: *y"],
        ids=["indent", "unclosed", "tab", "nul", "surrogate", "alias"],
    )
    def test_malformed_yaml_is_a_config_error(self, monkeypatch, loader, text):
        if loader == "python":
            python_loader(monkeypatch)
        elif not yaml.__with_libyaml__:
            pytest.skip("PyYAML was built without libyaml")
        with pytest.raises(ConfigError, match="^malformed YAML: "):
            parse_config(text)


class TestGameRegions:
    @pytest.mark.parametrize("nx, ny", [(n, n) for n in range(2, 17)] + [(64, 2), (2, 64), (5, 64), (64, 3)])
    def test_a_region_without_nodes_is_a_config_error(self, nx, ny):
        # exactly the grids on which GameConfig would find an empty region
        text = GAME.replace("nx: 64, ny: 64", f"nx: {nx}, ny: {ny}")
        rects = yaml.safe_load(GAME)["game"]
        grid = build_grid(nx, ny, 0.5)
        empty = [name for name in cli_mod.REGIONS if rect_mask(grid, *rects[name]).nodes.size == 0]
        if not empty:
            assert (parse_config(text).nx, parse_config(text).ny) == (nx, ny)
            return
        rect = rects[empty[0]]
        with pytest.raises(ConfigError, match=rf"^game\.{empty[0]}: {re.escape(str(rect))} holds no interior node "
                                              rf"of the {nx} x {ny} grid$"):
            parse_config(text)

    @pytest.mark.parametrize("n, region", [(2, "omega"), (4, "omega1")])
    def test_level_override_leaving_a_region_empty_exits_2(self, tmp_path, capsys, n, region):
        out = tmp_path / "out"
        argv = ["game", "--config", str(CONFIG_DIR / "benchmark_game.yaml"), "--out", str(out)]
        assert main([*argv, "--level-override", str(n)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: game.{region} after --level-override {n}: ")
        assert err.rstrip().endswith(f"holds no interior node of the {n} x {n} grid")
        assert not out.exists()

    def test_grid_without_a_node_in_a_region_exits_2(self, tmp_path, capsys):
        p = tmp_path / "game.yaml"
        p.write_text(GAME.replace("nx: 64, ny: 64", "nx: 4, ny: 4"))
        out = tmp_path / "out"
        assert main(["game", "--config", str(p), "--out", str(out)]) == 2
        assert "error: game.omega1: [0.4, 0.6, 0.1, 0.45] holds no interior node of the 4 x 4 grid" in (
            capsys.readouterr().err
        )
        assert not out.exists()


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
            "command: verify\ngrid: {alpha: 0.5}\nverify: {levels: [12, 24]}\n"
        )
        cfg.output_dir = str(tmp_path)
        report = run(cfg)
        assert report.verdict == "pass"
        rows = (tmp_path / "verify_residuals.tsv").read_text().strip().splitlines()
        assert len(rows) == 1 + 2 * 9  # two levels x nine test functions

    def test_verify_residuals_are_nonzero_with_finite_orders(self, tmp_path):
        # a zero forcing would read residuals of 0.0, whose order of +inf
        # passes whatever the solve does; verify's sinsin forcing reads none
        cfg = parse_config("command: verify\nverify: {levels: [8, 16, 32]}\n")
        cfg.output_dir = str(tmp_path)
        report = run(cfg)
        assert all(m > 0.0 for m in report.results["max_residual_by_level"])
        assert all(math.isfinite(o) for o in report.results["observed_orders"])
        assert report.verdict == "pass"

    def test_verify_weighs_the_dy_residual_by_theta(self, tmp_path, monkeypatch):
        plain, thetas = cli_mod.weak_form_residual, []

        def residual(u, f, psi, theta=None):
            thetas.append(theta)
            return plain(u, f, psi) if theta is None else plain(u, f, psi, theta)

        monkeypatch.setattr(cli_mod, "weak_form_residual", residual)
        cfg = parse_config("command: verify\nverify: {levels: [6, 12]}\n")
        cfg.output_dir = str(tmp_path)
        report = run(cfg)
        # two levels x nine test functions, each read plain and weighted
        assert thetas.count(None) == thetas.count(analysis.THETA) == len(thetas) // 2 == 2 * 9
        assert report.results["theta"] == analysis.THETA

    def test_verify_fails_on_nonfinite_residual(self, tmp_path, monkeypatch):
        import degenash.cli as cli_mod

        # only the theta residual is NaN, so each level mixes finite and NaN residuals
        plain = cli_mod.weak_form_residual
        monkeypatch.setattr(
            cli_mod, "weak_form_residual", lambda u, f, psi, theta=None: plain(u, f, psi) if theta is None else math.nan
        )
        cfg = parse_config(
            "command: verify\ngrid: {alpha: 0.5}\nverify: {levels: [6, 12]}\n"
        )
        cfg.output_dir = str(tmp_path)
        report = run(cfg)
        assert report.verdict == "fail"
        assert all(math.isnan(m) for m in report.results["max_residual_by_level"])

    def test_report_is_strict_json(self, tmp_path, monkeypatch):
        plain = cli_mod.weak_form_residual
        monkeypatch.setattr(
            cli_mod, "weak_form_residual", lambda u, f, psi, theta=None: plain(u, f, psi) if theta is None else math.nan
        )
        cfg = parse_config("command: verify\nverify: {levels: [6, 12]}\n")
        cfg.output_dir = str(tmp_path)
        run(cfg)

        def reject(token):
            raise ValueError(f"bare {token} in report.json")

        report = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)
        assert report["results"]["max_residual_by_level"] == ["nan", "nan"]

    def test_report_names_each_non_finite_float(self):
        results = {"a": [math.inf, -math.inf, 1.5], "b": {"c": (math.nan, np.float64(-math.inf))}, "d": 0}
        report = cli_mod.RunReport("solve", {}, results, "fail", {}, "t")
        assert json.loads(report.to_json())["results"] == {"a": ["inf", "-inf", 1.5], "b": {"c": ["nan", "-inf"]}, "d": 0}

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
        # the column-wise writer reproduces the row-by-row rendering in node
        # order on a non-square grid, and the f1 and f2 columns read back
        # as perfbench's gate reads them: straight into a GridFunction,
        # whose control_norm is the report's
        cfg = parse_config(
            (CONFIG_DIR / "benchmark_game.yaml")
            .read_text()
            .replace("nx: 64, ny: 64", "nx: 20, ny: 12")
        )
        cfg.output_dir = str(tmp_path)
        run(cfg)
        game = build_game_config(cfg)
        g = game.grid
        res = nash_solve(game)
        f1v, f2v, yv = res.f1_star.values, res.f2_star.values, res.state.values
        expected = ["\t".join(["i", "j", "x", "y", "f1", "f2", "state"])]
        for j in range(g.ny):
            for i in range(g.nx):
                k = j * g.nx + i
                cells = (g.x[i], g.y[j], f1v[k], f2v[k], yv[k])
                expected.append("\t".join([str(i), str(j)] + [repr(float(c)) for c in cells]))
        assert (tmp_path / "game_fields.tsv").read_text() == "\n".join(expected) + "\n"
        results = json.loads((tmp_path / "report.json").read_text())["results"]
        columns = np.loadtxt(tmp_path / "game_fields.tsv", skiprows=1, usecols=(4, 5), unpack=True)
        for key, column in zip(("f1_norm", "f2_norm"), columns):
            norm = control_norm(GridFunction(g, column), g.alpha)
            assert abs(norm - results[key]) <= 1e-12 * abs(results[key])
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
    @pytest.mark.usefixtures("few_samples")
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

    # What each small study's run reads: its section's keys with their
    # defaults, the grid keys of the run (alpha alone with levels, none
    # for muckenhoupt), never a seed; the coercivity study runs under
    # --level-override 8.
    DISPATCH = {
        "convergence": ("convergence_study", {"levels": [8, 16, 24], "alpha": 0.5}),
        "energy": ("energy_estimate_study", {"levels": [8, 16], "alpha": 0.5}),
        "coercivity": ("coercivity_check", {"nx": 8, "ny": 8, "alpha": 0.5}),
        "inclusion": ("strict_inclusion_demo", {"levels": [16, 32, 48], "alpha": 0.5}),
        "embedding": ("embedding_study", {"levels": [8, 16], "alpha": 0.5}),
        "muckenhoupt": ("muckenhoupt_study", {}),
    }

    @pytest.mark.parametrize("kind", DISPATCH)
    @pytest.mark.usefixtures("few_samples")
    def test_study_receives_what_its_run_read(self, tmp_path, monkeypatch, kind):
        study, expected = self.DISPATCH[kind]
        calls = []
        original = getattr(cli_mod, study)
        monkeypatch.setattr(cli_mod, study, lambda *a, **k: calls.append((a, k)) or original(*a, **k))
        p = tmp_path / "study.yaml"
        p.write_text(small_study(kind))
        override = ["--level-override", "8"] if kind == "coercivity" else []
        assert main(["study", "--config", str(p), "--out", str(tmp_path / "out"), *override]) in (0, 1)
        assert calls == [((), expected)]

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
        cfg = parse_config("command: study\nstudy: {kind: muckenhoupt}\n")
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
        text = "command: study\nstudy: {kind: muckenhoupt}\n"
        self._run_twice(text, tmp_path, ["study_levels.tsv", "study_samples.tsv"])

    @pytest.mark.usefixtures("few_samples")
    def test_coercivity_tables_byte_identical(self, tmp_path):
        text = "command: study\ngrid: {nx: 16, ny: 16, alpha: 0.5}\nstudy: {kind: coercivity}\n"
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
        assert path.read_text() == self.one_shot(header, columns)

    @staticmethod
    def one_shot(header, columns) -> str:
        cells = [map(repr, np.ravel(c).tolist()) for c in columns]
        return "\n".join(["\t".join(header), *map("\t".join, zip(*cells))]) + "\n"

    @staticmethod
    def field_columns(n: int) -> list:
        """The seven columns of game_fields.tsv on an n x n grid, X and Y
        as broadcast views, with random fields."""
        shape, x = (n, n), np.linspace(0.0, 1.0, n + 2)[1:-1]
        rng = np.random.default_rng(n)
        I, J = np.indices(shape)
        X, Y = np.broadcast_to(x[:, None], shape), np.broadcast_to(x[None, :], shape)
        return [I, J, X, Y, *rng.standard_normal((3, n, n))]

    @pytest.mark.parametrize("rows", [0, 1, cli_mod.CHUNK_ROWS, 3 * cli_mod.CHUNK_ROWS + 5])
    def test_chunks_give_the_one_shot_bytes(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        pool = np.array(self.SPECIAL + list(rng.standard_normal(50)))
        columns = [np.arange(rows), rng.choice(pool, rows), rng.choice(pool, rows).tolist()]
        header = [f"c{k}" for k in range(len(columns))]
        path = tmp_path / "t.tsv"
        cli_mod._write_columns(path, header, columns)
        assert path.read_bytes() == self.one_shot(header, columns).encode()

    def test_broadcast_columns_give_the_one_shot_bytes(self, tmp_path):
        # 10000 rows: two full chunks and a partial one
        columns = self.field_columns(100)
        path = tmp_path / "t.tsv"
        cli_mod._write_columns(path, list("ijxyabc"), columns)
        assert path.read_bytes() == self.one_shot(list("ijxyabc"), columns).encode()

    @pytest.mark.parametrize("shape", [(1300, 7), (7, 1300)])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_broadcast_columns_render_as_their_copy(self, tmp_path, shape, axis):
        # a column constant along one axis, as the game's grid columns;
        # 9100 rows, so the chunk boundaries (4096 % 7 and 4096 % 1300
        # are not zero) fall inside a row of either width
        rng = np.random.default_rng(shape[axis])
        k = shape[axis]
        sources = [np.arange(k) - k // 2, rng.choice(np.array(self.SPECIAL), k)]
        sources[1][:2] = [0.0, -0.0]
        columns = [np.broadcast_to(np.expand_dims(src, 1 - axis), shape) for src in sources]
        header, path, copy = ["n", "v", "w"], tmp_path / "t.tsv", tmp_path / "copy.tsv"
        noise = rng.standard_normal(shape)
        cli_mod._write_columns(path, header, [*columns, noise])
        cli_mod._write_columns(copy, header, [np.array(c) for c in columns] + [noise])
        assert path.read_bytes() == copy.read_bytes() == self.one_shot(header, [*columns, noise]).encode()

    def test_game_grid_columns_when_a_chunk_ends_inside_a_row(self, tmp_path, monkeypatch):
        # the game table's i, j, x, y on a 97 x 50 grid: 4096 % 97 = 22, so
        # the first chunk ends inside y-row 42; each broadcast column is
        # rendered once, from the entries it repeats, and a full column
        # once per chunk
        grid = build_grid(97, 50, 0.5)
        shape = (grid.ny, grid.nx)
        I, X = (np.broadcast_to(a[None, :], shape) for a in (np.arange(grid.nx), grid.x))
        J, Y = (np.broadcast_to(a[:, None], shape) for a in (np.arange(grid.ny), grid.y))
        state = np.random.default_rng(97).standard_normal(grid.n)
        columns, header = [I, J, X, Y, state], list("ijxys")
        path, copy = tmp_path / "t.tsv", tmp_path / "copy.tsv"
        rendered, render = [], cli_mod._render
        monkeypatch.setattr(cli_mod, "_render", lambda values: rendered.append(values.size) or render(values))
        cli_mod._write_columns(path, header, columns)
        assert rendered == [97, 50, 97, 50, cli_mod.CHUNK_ROWS, grid.n - cli_mod.CHUNK_ROWS]
        cli_mod._write_columns(copy, header, [np.array(c) for c in columns])
        assert path.read_bytes() == copy.read_bytes() == self.one_shot(header, columns).encode()
        assert peak_bytes(lambda: cli_mod._write_columns(path, header, columns)) < 3e6

    def test_columns_of_unequal_length_rejected(self, tmp_path):
        path = tmp_path / "t.tsv"
        with pytest.raises(ValueError, match=r"\[3, 2\]"):
            cli_mod._write_columns(path, ["a", "b"], [[1.0, 2.0, 3.0], [1.0, 2.0]])

    def test_peak_bounded_at_128_squared(self, tmp_path):
        # a one-shot writer peaks at about 10 MB on this table
        path = tmp_path / "t.tsv"
        columns = self.field_columns(128)
        assert peak_bytes(lambda: cli_mod._write_columns(path, list("ijxyabc"), columns)) < 3e6


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
        p.write_text("command: study\nstudy: {kind: inclusion, levels: [16, 32, 48, 64]}\n")
        out = tmp_path / "out"
        assert main(["study", "--config", str(p), "--out", str(out), "--level-override", "48"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["levels"] == [16, 32, 48]

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
    @pytest.mark.usefixtures("few_samples")
    def test_level_override_drops_levels(self, tmp_path, kind):
        p = tmp_path / "study.yaml"
        p.write_text(re.sub(r"levels: \[[^]]*\]", "levels: [16, 32, 48, 64]", small_study(kind)))
        out = tmp_path / "out"
        assert main(["study", "--config", str(p), "--out", str(out), "--level-override", "50"]) in (0, 1)
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["levels"] == report["config"]["study"]["levels"] == [16, 32, 48]

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.75, 1.0])
    @pytest.mark.parametrize("name", LOWEST_LEVELS)
    def test_every_shipped_verdict_passes_at_every_alpha(self, tmp_path, name, alpha):
        raw = yaml.safe_load((CONFIG_DIR / f"{name}.yaml").read_text())
        raw["grid"]["alpha"] = alpha
        p = tmp_path / f"{name}.yaml"
        p.write_text(yaml.safe_dump(raw))
        out = tmp_path / "out"
        argv = [raw["command"], "--config", str(p), "--out", str(out)]
        if LOWEST_LEVELS[name] is not None:
            argv += ["--level-override", str(LOWEST_LEVELS[name])]
        assert main(argv) == 0
        assert json.loads((out / "report.json").read_text())["verdict"] == "pass"

    def test_shipped_runs_import_no_quadrature_or_sparse_solver(self, tmp_path):
        # scipy.integrate alone adds about 22 MB to a process, every solve
        # is the march, and the march's LAPACK routines load without the
        # scipy.linalg package init; solve and game run at 16 x 16, the rest
        # as shipped
        code = (
            "import sys, yaml\n"
            "from pathlib import Path\n"
            "from degenash.cli import main\n"
            f"for p in sorted(Path({str(CONFIG_DIR)!r}).glob('*.yaml')):\n"
            "    verb = yaml.safe_load(p.read_text())['command']\n"
            "    flags = ['--level-override', '16'] if verb in ('solve', 'game') else []\n"
            f"    out = str(Path({str(tmp_path)!r}) / p.stem)\n"
            "    assert main([verb, '--config', str(p), '--out', out, *flags]) == 0, p\n"
            "loaded = {'scipy.integrate', 'scipy.sparse', 'scipy.linalg', 'numpy.f2py'} & sys.modules.keys()\n"
            "assert not loaded, loaded\n"
        )
        src = str(Path(cli_mod.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("verdict=pass") == len(list(CONFIG_DIR.glob("*.yaml")))

    @pytest.mark.parametrize("n", [16, 8])
    @pytest.mark.usefixtures("few_samples")
    def test_level_override_sets_coercivity_grid(self, tmp_path, n):
        out = tmp_path / "out"
        assert main(["study", "--config", str(CONFIG_DIR / "study_coercivity.yaml"), "--out", str(out),
                     "--level-override", str(n)]) == 0
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
            # an unknown pair raised at run time; now the key is unknown
            "command: study\nstudy: {kind: convergence, levels: [8, 16, 24], manufactured: bogus}\n",
            "command: study\nstudy: {kind: convergence, levels: [16, 16, 32]}\n",
        ],
        ids=["manufactured", "convergence-repeated-level"],
    )
    def test_former_runtime_failures_exit_2(self, tmp_path, text):
        p = tmp_path / "study.yaml"
        p.write_text(text)
        assert main(["study", "--config", str(p), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("where", ["verify.levels", "--level-override"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_verify_without_a_coarser_level_exits_2(self, tmp_path, capsys, where, n):
        # [4, n], or [4, 16] cut at n: nothing to refine, so the verdict could only fail
        levels = [4, n] if where == "verify.levels" else [4, 16]
        p = tmp_path / "verify.yaml"
        p.write_text(f"command: verify\nverify: {{levels: {levels}}}\n")
        out = tmp_path / "out"
        flags = ["--level-override", str(n)] if where == "--level-override" else []
        assert main(["verify", "--config", str(p), "--out", str(out), *flags]) == 2
        key = f"verify.levels after --level-override {n}" if flags else "verify.levels"
        assert f"{key}: {analysis.LEVELS['energy'].text}, got " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ny", [16, 64])
    def test_verify_on_a_non_square_grid_exits_2(self, tmp_path, capsys, ny):
        # verify states its levels, each a square grid; it reads no grid size
        p = tmp_path / "verify.yaml"
        p.write_text(f"command: verify\ngrid: {{nx: 32, ny: {ny}}}\n")
        out = tmp_path / "out"
        assert main(["verify", "--config", str(p), "--out", str(out)]) == 2
        assert "grid.nx: unknown key, known: alpha" in capsys.readouterr().err
        assert not out.exists()

    def test_level_override_drops_verify_levels(self, tmp_path):
        p = tmp_path / "verify.yaml"
        p.write_text("command: verify\nverify: {levels: [8, 16, 24]}\n")
        out = tmp_path / "out"
        assert main(["verify", "--config", str(p), "--out", str(out), "--level-override", "20"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["levels"] == report["config"]["verify"]["levels"] == [8, 16]

    def test_unmeasurable_residual_exits_1(self, tmp_path, capsys):
        # ||f|| overflows, so the residual contract cannot be checked
        p = tmp_path / "solve.yaml"
        p.write_text(MINIMAL_SOLVE.replace("{kind: sinsin}", "{kind: sinsin, amplitude: 1.0e200}"))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(p), "--out", str(out)]) == 1
        assert "SolverError" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] == "fail"

    def test_infinite_follower_cost_is_not_converged_and_exits_1(self, tmp_path):
        # yd1 = 1e200 sin sin squares to inf in the tracking term: sweeps
        # that settle on an infinite J1 have found no equilibrium
        p = tmp_path / "game.yaml"
        p.write_text(
            (CONFIG_DIR / "benchmark_game.yaml")
            .read_text()
            .replace("yd1: {kind: sinsin, amplitude: 0.1}", "yd1: {kind: sinsin, amplitude: 1.0e200}")
        )
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["game", "--config", str(p), "--out", str(out), "--level-override", "16"])
        assert code == 1
        results = json.loads((out / "report.json").read_text())["results"]
        assert results["j1"] == "inf"
        assert results["converged"] is False

    def test_verify_on_the_levels_up_to_the_override_passes(self, tmp_path):
        # [8, 16, 64] cut at 16 runs [8, 16], whose residual order is about 2.2
        p = tmp_path / "verify.yaml"
        p.write_text("command: verify\nverify: {levels: [8, 16, 64]}\n")
        out = tmp_path / "out"
        assert main(["verify", "--config", str(p), "--out", str(out), "--level-override", "16"]) == 0
        results = json.loads((out / "report.json").read_text())["results"]
        assert results["levels"] == [8, 16] and results["observed_orders"][0] > 2.0

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

    # no run reads a seed: the sampling studies draw from the fixed streams
    # analysis.COERCIVITY_SEED and EMBEDDING_SEED, certify from
    # game.DEVIATION_SEED's; every run still takes --seed, which
    # perfbench/run.py passes to every verb alike
    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda path: path.stem)
    def test_tables_are_the_same_under_any_seed_flag(self, tmp_path, path):
        verb = command_of(path.read_text())
        override = ["--level-override", "16"] if verb == "game" else []
        runs = set()
        for name, flags in [("s1", ["--seed", "1"]), ("s2", ["--seed", "2"]), ("none", [])]:
            out = tmp_path / name
            assert main([verb, "--config", str(path), "--out", str(out), *override, *flags]) == 0
            assert "seed" not in json.loads((out / "report.json").read_text())["config"]
            runs.add(tuple((table.name, table.read_bytes()) for table in sorted(out.glob("*.tsv"))))
        (tables,) = runs
        assert tables

    def test_level_override_keeps_the_levels_up_to_it(self, tmp_path):
        # the shipped [16, 32, 64, 128, 256] runs as [16, 32]
        p = CONFIG_DIR / "study_inclusion.yaml"
        out = tmp_path / "out"
        assert main(["study", "--config", str(p), "--out", str(out), "--level-override", "32"]) == 0
        assert json.loads((out / "report.json").read_text())["results"]["levels"] == [16, 32]

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.yaml"
        p.write_bytes(b"\xff\xfe\x00bad")
        out = tmp_path / "out"
        assert main(["solve", "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: not UTF-8 text") and "Traceback" not in err
        assert not out.exists()

    def test_flags_of_one_call_do_not_reach_the_next(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        p = tmp_path / "solve.yaml"
        p.write_text(MINIMAL_SOLVE)
        assert main(["solve", "--config", str(p), "--out", "flags", "--seed", "5", "--level-override", "8"]) == 0
        assert main(["solve", "--config", str(p)]) == 0
        flags = json.loads((tmp_path / "flags" / "report.json").read_text())["config"]
        plain = json.loads((tmp_path / "out" / "report.json").read_text())["config"]
        assert (flags["output_dir"], flags["nx"]) == ("flags", 8)
        assert (plain["output_dir"], plain["nx"], plain["ny"]) == ("out", 16, 16)

    def test_parser_is_built_once(self, tmp_path):
        p = tmp_path / "study.yaml"
        p.write_text(small_study("muckenhoupt"))
        cli_mod._parser()
        built = cli_mod._parser.cache_info().misses
        for k in range(2):
            assert main(["study", "--config", str(p), "--out", str(tmp_path / str(k))]) == 0
        assert cli_mod._parser.cache_info().misses == built

    @pytest.mark.parametrize("argv", [["--help"], ["game", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: degenash")

    def test_missing_config_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["solve"])
        assert exit_.value.code == 2
        assert "--config" in capsys.readouterr().err


class TestScripts:
    # `pip install .` makes the console script from this entry; CI runs it
    def test_console_script_names_a_callable(self):
        import tomllib

        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts == {"degenash": "degenash.cli:main"}
        module, _, name = scripts["degenash"].partition(":")
        assert callable(getattr(importlib.import_module(module), name))

    @staticmethod
    def _readme_command(word):
        """The line of the README's first Scripts block that runs `degenash.cli <word>`."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## Scripts", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        (line,) = [line for line in block.splitlines() if f"degenash.cli {word} " in line]
        return line

    def _run_readme_command(self, word, tmp_path):
        """The README line run by sh in a checkout of src/ and configs/, from
        this interpreter, with no PYTHONPATH of the caller's."""
        root = Path(__file__).resolve().parent.parent
        for name in ("src", "configs"):
            (tmp_path / name).symlink_to(root / name)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        command = self._readme_command(word).replace("python -m", f"{sys.executable} -m")
        proc = subprocess.run(
            ["sh", "-c", command], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_readme_game_command_runs_from_source_checkout(self, tmp_path):
        assert "verdict=pass" in self._run_readme_command("game", tmp_path)
        report = json.loads((tmp_path / "out" / "benchmark_game" / "report.json").read_text())
        assert report["verdict"] == "pass"

    def test_readme_study_loop_runs_from_source_checkout(self, tmp_path):
        lines = self._run_readme_command("study", tmp_path).splitlines()
        studies = sorted((Path(__file__).resolve().parent.parent / "configs").glob("study_*.yaml"))
        assert len(lines) == len(studies) == 6 and all("verdict=pass" in line for line in lines), lines

    def test_bench_levels_script_records_the_schema(self, tmp_path):
        script = Path(__file__).resolve().parent.parent / "scripts" / "bench_levels.py"
        out = tmp_path / "BENCH_levels.json"
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", *THREAD_ENV)}
        argv = ["levels", "--levels", "16", "--repeats", "2", "--targets", "benchmark_game", "nash_solve"]
        proc = subprocess.run(
            [sys.executable, str(script), *argv, "--out", str(out)], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        record = json.loads(out.read_text())
        assert {"commit", "src_sha256", "numpy", "scipy", "python", "repeats", "rows"} <= record.keys()
        assert record["src_sha256"] == load_script("bench_levels").src_digest(script.parent.parent)
        assert (record["numpy"], record["scipy"]) == (np.__version__, __import__("scipy").__version__)
        assert record["thread_env"] == dict.fromkeys(THREAD_ENV, "1")  # run as a script, it sets them
        rows = record["rows"]
        assert [(r["kind"], r["target"], r["level"]) for r in rows] == [
            ("import", "python", None), ("import", "degenash.cli", None),
            ("cli", "benchmark_game", 16), ("nash_solve", "benchmark_game", 16),
        ]
        for row in rows:
            assert row["exit_code"] == 0 and row["error"] is None
            assert len(row["samples_s"]) == 2 and row["wall_s"] == statistics.median(row["samples_s"])
        game_run, nash_run = rows[2:]
        # the CLI's game is nash_solve's: the same solves, costs and gradients
        assert game_run["counts"] == nash_run["counts"]
        counts = nash_run["counts"]
        assert counts.keys() == {"forward_solves", "adjoint_solves", "one_shot_solves", "cost_calls",
                                 "gradient_calls", "certify_forward_solves", "certify_cost_calls",
                                 "forward_rows", "adjoint_rows", "difference_runs", "cell_average_runs"}
        # the game differentiates and averages no field
        assert counts["difference_runs"] == counts["cell_average_runs"] == 0
        assert counts["adjoint_solves"] == counts["gradient_calls"] > 0
        # each solve marches at most its 16 rows
        assert 0 < counts["adjoint_rows"] <= 16 * counts["adjoint_solves"]
        assert 0 < counts["forward_rows"] <= 16 * counts["forward_solves"]
        assert counts["certify_forward_solves"] == counts["certify_cost_calls"] > 0
        assert counts["one_shot_solves"] == 0 and nash_run["certify_s"] > 0

    @staticmethod
    def _src_trees(root, *sources):
        """One tree per source text, each holding it as src/pkg/mod.py."""
        trees = []
        for k, text in enumerate(sources):
            pkg = root / f"tree{k}" / "src" / "pkg"
            pkg.mkdir(parents=True)
            (pkg / "mod.py").write_bytes(text)
            trees.append(pkg.parent.parent)
        return trees

    def test_src_digest_tells_trees_one_byte_apart(self, tmp_path):
        src_digest = load_script("bench_levels").src_digest
        first, second = self._src_trees(tmp_path, b"x = 1\n", b"x = 2\n")
        assert src_digest(first) != src_digest(second)

    def test_src_digest_skips_pycache(self, tmp_path):
        src_digest = load_script("bench_levels").src_digest
        first, second = self._src_trees(tmp_path, b"x = 1\n", b"x = 1\n")
        cache = second / "src" / "pkg" / "__pycache__"
        cache.mkdir()
        (cache / "mod.cpython-311.pyc").write_bytes(b"compiled")
        assert src_digest(first) == src_digest(second)

    def test_importing_bench_levels_leaves_the_thread_environment(self, monkeypatch):
        for name in THREAD_ENV:
            monkeypatch.delenv(name, raising=False)
        assert load_script("bench_levels").THREAD_ENV == THREAD_ENV
        assert not os.environ.keys() & set(THREAD_ENV)

    def test_verify_and_the_studies_make_26_one_shot_solves(self):
        # the shipped configs as perfbench's studies workload runs them, with
        # the counter scripts/bench_levels.py records: the solves and the
        # runs of the two field kernels
        bench = load_script("bench_levels")
        with bench.counting() as counts:
            for name in ["verify_weak_form", *(f"study_{kind}" for kind in cli_mod.STUDIES)]:
                path = CONFIG_DIR / f"{name}.yaml"
                assert bench.run_cli([command_of(path.read_text()), "--config", str(path)]) == (0, None)
        assert dict(counts) == {"one_shot_solves": 26, "difference_runs": 1108, "cell_average_runs": 1916}
