"""Config-driven command line: solve, verify, study, and game runs.

Configs are YAML (see configs/ for the shipped examples and README for the
grammar).  Every run writes a hierarchical report.json plus flat
tab-separated tables with one row per level, iteration, or sample; floats
are serialized with repr so reruns with the same seed are byte-identical.
Wall-clock times and timestamps live only in report.json, never in tables.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import scipy
import yaml

from . import __version__
from .analysis import (
    StudyResult,
    Verdict,
    coercivity_check,
    convergence_study,
    default_energy_family,
    embedding_study,
    energy_estimate_study,
    muckenhoupt_study,
    strict_inclusion_demo,
)
from .fields import FIELD_KINDS, bump_from_parameters, bump_parameter_sets, named_field
from .game import GameConfig, NashResult, benchmark_config, control_norm, nash_solve
from .grid import GridFunction, build_grid, rect_mask
from .norms import norms_of
from .operators import Scheme, assemble, solve_dirichlet, theta_weak_form_residual, weak_form_residual

COMMANDS = ("solve", "verify", "study", "game")
STUDY_KINDS = ("convergence", "energy", "coercivity", "inclusion", "embedding", "muckenhoupt")
SAMPLING_STUDY_KINDS = ("coercivity", "embedding", "muckenhoupt")


class ConfigError(ValueError):
    """Malformed or out-of-range configuration, with a field path."""


@dataclass
class FieldSpec:
    kind: str
    amplitude: float = 1.0

    def build(self, grid):
        return named_field(grid, self.kind, self.amplitude)


@dataclass
class RunConfig:
    command: str
    nx: int
    ny: int
    alpha: float
    scheme: Scheme
    theta: float
    seed: int
    output_dir: str
    solve: dict = field(default_factory=dict)
    verify: dict = field(default_factory=dict)
    study: dict = field(default_factory=dict)
    game: dict = field(default_factory=dict)


@dataclass
class RunReport:
    command: str
    config: dict
    results: dict
    verdict: str
    versions: dict
    timestamp: str

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls(**json.loads(text))


def _get(section: dict, key: str, default, path: str, kind=None):
    value = section.get(key, default)
    if value is None:
        raise ConfigError(f"{path}.{key}: required field is missing")
    if kind is not None:
        try:
            value = kind(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{path}.{key}: cannot interpret {value!r}") from None
    return value


def _get_list(section: dict, key: str, default: list, path: str, kind) -> list:
    raw = section.get(key, default)
    try:
        return [kind(v) for v in raw]
    except (TypeError, ValueError):
        raise ConfigError(f"{path}.{key}: expected a list of numbers, got {raw!r}") from None


def _field_spec(section: dict, key: str, default_kind: str, path: str) -> FieldSpec:
    raw = section.get(key, {"kind": default_kind})
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError(f"{path}.{key}: expected a mapping with a 'kind' entry")
    kind = str(raw["kind"])
    if kind not in FIELD_KINDS:
        raise ConfigError(f"{path}.{key}.kind: unknown field {kind!r}, known: {FIELD_KINDS}")
    return FieldSpec(kind=kind, amplitude=float(raw.get("amplitude", 1.0)))


def _rect(section: dict, key: str, path: str) -> tuple[float, float, float, float]:
    raw = section.get(key)
    if raw is None or len(raw) != 4:
        raise ConfigError(f"{path}.{key}: expected [x0, x1, y0, y1]")
    x0, x1, y0, y1 = (float(v) for v in raw)
    if not (0.0 <= x0 < x1 <= 1.0 and 0.0 <= y0 < y1 <= 1.0):
        raise ConfigError(f"{path}.{key}: rectangle must satisfy 0 <= x0 < x1 <= 1, 0 <= y0 < y1 <= 1")
    return x0, x1, y0, y1


def _check_study_levels(study: dict) -> None:
    """Reject study levels the study kind cannot run on."""
    levels = study["levels"]
    if any(lv < 2 for lv in levels):
        raise ConfigError("study.levels: every level needs at least 2 interior nodes")
    if study["kind"] == "convergence" and len(levels) < 3:
        raise ConfigError(f"study.levels: a convergence study needs at least 3 levels, got {levels}")
    if study["kind"] == "inclusion" and any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError(f"study.levels: inclusion levels must be strictly increasing, got {levels}")


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a YAML run config, applying defaults.

    Defaults: scheme upwind, theta 1.0, solve tol 1e-10, output_dir 'out'.
    Sampling commands (game; coercivity/embedding/muckenhoupt studies)
    require an explicit seed for reproducibility.
    """
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping of sections")

    command = _get(raw, "command", None, "config", str)
    if command not in COMMANDS:
        raise ConfigError(f"config.command: must be one of {COMMANDS}, got {command!r}")

    grid_sec = raw.get("grid", {})
    nx = _get(grid_sec, "nx", 64, "grid", int)
    ny = _get(grid_sec, "ny", 64, "grid", int)
    alpha = _get(grid_sec, "alpha", 0.5, "grid", float)
    if nx < 2 or ny < 2:
        raise ConfigError("grid.nx/ny: need at least 2 interior nodes per direction")
    if not (0.0 < alpha <= 1.0):
        raise ConfigError(f"grid.alpha: must lie in (0, 1], got {alpha}")

    scheme_name = _get(raw, "scheme", "upwind", "config", str)
    try:
        scheme = Scheme(scheme_name)
    except ValueError:
        raise ConfigError(f"config.scheme: must be 'upwind' or 'centered', got {scheme_name!r}") from None
    theta = _get(raw, "theta", 1.0, "config", float)
    if not (math.isfinite(theta) and theta >= 0):
        raise ConfigError(f"config.theta: must be finite and nonnegative, got {theta}")

    needs_seed = command == "game" or (
        command == "study" and raw.get("study", {}).get("kind") in SAMPLING_STUDY_KINDS
    )
    if needs_seed and "seed" not in raw:
        raise ConfigError("config.seed: sampling commands require an explicit seed")
    seed = _get(raw, "seed", 0, "config", int)
    output_dir = str(raw.get("output_dir", "out"))

    cfg = RunConfig(
        command=command, nx=nx, ny=ny, alpha=alpha, scheme=scheme, theta=theta,
        seed=seed, output_dir=output_dir,
    )

    if command == "solve":
        sec = raw.get("solve", {})
        cfg.solve = {
            "f": asdict(_field_spec(sec, "f", "sinsin", "solve")),
            "tol": _get(sec, "tol", 1e-10, "solve", float),
        }
        if cfg.solve["tol"] <= 0:
            raise ConfigError("solve.tol: must be positive")
    elif command == "verify":
        sec = raw.get("verify", {})
        cfg.verify = {
            "f": asdict(_field_spec(sec, "f", "sinsin", "verify")),
            "n_test_functions": _get(sec, "n_test_functions", 10, "verify", int),
        }
        if cfg.verify["n_test_functions"] < 1:
            raise ConfigError("verify.n_test_functions: need at least one test function")
    elif command == "study":
        sec = raw.get("study", {})
        kind = _get(sec, "kind", None, "study", str)
        if kind not in STUDY_KINDS:
            raise ConfigError(f"study.kind: must be one of {STUDY_KINDS}, got {kind!r}")
        cfg.study = {
            "kind": kind,
            "levels": _get_list(sec, "levels", [16, 32, 64, 128], "study", int),
            "manufactured": str(sec.get("manufactured", "sinsin")),
            "ratio_cap": _get(sec, "ratio_cap", 1.2, "study", float),
            "plateau_tol": _get(sec, "plateau_tol", 0.05, "study", float),
            "plateau_from": _get(sec, "plateau_from", 32, "study", int),
            "n_samples": _get(sec, "n_samples", 200 if kind == "coercivity" else 100, "study", int),
            "q_values": _get_list(sec, "q_values", [2, 3, 4], "study", float),
            "n_balls": _get(sec, "n_balls", 500, "study", int),
            "growth_cap": _get(sec, "growth_cap", 1.1, "study", float),
            "safety": _get(sec, "safety", 1.5, "study", float),
        }
        s = cfg.study
        _check_study_levels(s)
        for key in ("n_samples", "n_balls"):
            if s[key] < 1:
                raise ConfigError(f"study.{key}: must be at least 1, got {s[key]}")
        for key in ("ratio_cap", "growth_cap", "safety", "plateau_tol"):
            if not (math.isfinite(s[key]) and s[key] > 0):
                raise ConfigError(f"study.{key}: must be finite and positive, got {s[key]}")
        if not s["q_values"] or not all(2.0 <= q <= 4.0 for q in s["q_values"]):
            raise ConfigError(f"study.q_values: need at least one q, each in [2, 4], got {s['q_values']}")
    elif command == "game":
        sec = raw.get("game", {})
        cfg.game = {
            "omega": list(_rect(sec, "omega", "game")),
            "omega1": list(_rect(sec, "omega1", "game")),
            "omega2": list(_rect(sec, "omega2", "game")),
            "g1_obs": list(_rect(sec, "g1_obs", "game")),
            "g2_obs": list(_rect(sec, "g2_obs", "game")),
            "g": asdict(_field_spec(sec, "g", "sinsin", "game")),
            "yd1": asdict(_field_spec(sec, "yd1", "sinsin", "game")),
            "yd2": asdict(_field_spec(sec, "yd2", "sinsin", "game")),
            "m1": _get(sec, "m1", 1.0, "game", float),
            "m2": _get(sec, "m2", 1.0, "game", float),
            "br_tol": _get(sec, "br_tol", 1e-8, "game", float),
            "br_max_iters": _get(sec, "br_max_iters", 200, "game", int),
            "inner_tol": _get(sec, "inner_tol", 1e-9, "game", float),
            "deviation_samples": _get(sec, "deviation_samples", 200, "game", int),
        }
        g = cfg.game
        for key in ("m1", "m2"):
            if not (math.isfinite(g[key]) and g[key] >= 0):
                raise ConfigError(f"game.{key}: ball radius must be finite and nonnegative, got {g[key]}")
        for key in ("br_tol", "inner_tol"):
            if not (math.isfinite(g[key]) and g[key] > 0):
                raise ConfigError(f"game.{key}: must be finite and positive, got {g[key]}")
        for key in ("br_max_iters", "deviation_samples"):
            if g[key] < 1:
                raise ConfigError(f"game.{key}: must be at least 1, got {g[key]}")
    return cfg


def build_game_config(cfg: RunConfig) -> GameConfig:
    grid = build_grid(cfg.nx, cfg.ny, cfg.alpha)
    sec = cfg.game

    def fs(key):
        return FieldSpec(**sec[key]).build(grid)

    return GameConfig(
        grid=grid,
        omega=rect_mask(grid, *sec["omega"]),
        omega1=rect_mask(grid, *sec["omega1"]),
        omega2=rect_mask(grid, *sec["omega2"]),
        g1_obs=rect_mask(grid, *sec["g1_obs"]),
        g2_obs=rect_mask(grid, *sec["g2_obs"]),
        g=fs("g"),
        yd1=fs("yd1"),
        yd2=fs("yd2"),
        m1=sec["m1"],
        m2=sec["m2"],
        br_tol=sec["br_tol"],
        br_max_iters=sec["br_max_iters"],
        inner_tol=sec["inner_tol"],
        deviation_samples=sec["deviation_samples"],
        seed=cfg.seed,
    )


def _write_table(path: Path, header: list[str], rows: list[list]) -> None:
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_columns(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write the table whose k-th row holds the k-th entry of every column.

    Renders a column at a time with repr on the Python scalars of
    .tolist(); for ints repr equals str, so the bytes equal those of
    _write_table on the same rows."""
    cells = [map(repr, np.ravel(c).tolist()) for c in columns]
    lines = ["\t".join(header), *map("\t".join, zip(*cells))]
    path.write_text("\n".join(lines) + "\n")


def _study_tables(out: Path, result: StudyResult) -> None:
    names = sorted(result.metrics)
    rows = [
        [lvl] + [result.metrics[name][k] for name in names]
        for k, lvl in enumerate(result.levels)
    ]
    _write_table(out / "study_levels.tsv", ["level"] + names, rows)
    if result.observed_orders:
        _write_table(
            out / "study_orders.tsv",
            ["pair", "observed_order"],
            [[k, o] for k, o in enumerate(result.observed_orders)],
        )
    if result.samples:
        names = sorted(result.samples)
        n = len(next(iter(result.samples.values())))
        rows = [[k] + [result.samples[name][k] for name in names] for k in range(n)]
        _write_table(out / "study_samples.tsv", ["sample"] + names, rows)


def _run_solve(cfg: RunConfig, out: Path) -> tuple[dict, str]:
    grid = build_grid(cfg.nx, cfg.ny, cfg.alpha)
    f = FieldSpec(**cfg.solve["f"]).build(grid)
    op = assemble(grid, cfg.scheme)
    u, rep = solve_dirichlet(op, f, cfg.solve["tol"])
    report = norms_of(u, include_mixed=True)
    results = {
        "residual_norm": rep.residual_norm,
        "iterations": rep.iterations,
        "wall_time": rep.wall_time,
        "norms": {k: v for k, v in asdict(report).items() if v is not None},
    }
    _write_table(
        out / "solve_norms.tsv",
        ["l2", "dx_l2", "weighted_dy_l2", "w11"],
        [[report.l2, report.dx_l2, report.weighted_dy_l2, report.w11]],
    )
    return results, Verdict.PASS.value


def _run_verify(cfg: RunConfig, out: Path) -> tuple[dict, str]:
    levels = [max(4, cfg.nx // 2), cfg.nx]
    n_tests = cfg.verify["n_test_functions"]
    params = bump_parameter_sets(n_tests, cfg.seed)
    rows, max_by_level = [], []
    for level in levels:
        grid = build_grid(level, level, cfg.alpha)
        f = FieldSpec(**cfg.verify["f"]).build(grid)
        op = assemble(grid, cfg.scheme)
        u, _ = solve_dirichlet(op, f)
        residuals = []
        for k, p in enumerate(params):
            phi = bump_from_parameters(grid, p)
            r = weak_form_residual(u, f, phi)
            rt = theta_weak_form_residual(u, f, phi, cfg.theta)
            rows.append([level, k, r, rt])
            residuals += [r, rt]
        # np.max keeps a NaN, where Python's max would drop it
        max_by_level.append(float(np.max(np.abs(residuals))))
    _write_table(out / "verify_residuals.tsv", ["level", "test_fn", "residual", "theta_residual"], rows)
    finite = all(math.isfinite(m) for m in max_by_level)
    decreasing = finite and max_by_level[-1] < max_by_level[0]
    results = {"levels": levels, "max_residual_by_level": max_by_level, "theta": cfg.theta}
    return results, (Verdict.PASS if decreasing else Verdict.FAIL).value


def _run_study(cfg: RunConfig, out: Path) -> tuple[dict, str]:
    s = cfg.study
    kind = s["kind"]
    if kind == "convergence":
        result = convergence_study(cfg.scheme, s["levels"], s["manufactured"], alpha=cfg.alpha)
    elif kind == "energy":
        result = energy_estimate_study(
            default_energy_family(cfg.alpha), s["levels"], cfg.alpha, ratio_cap=s["ratio_cap"]
        )
    elif kind == "coercivity":
        result = coercivity_check(
            cfg.theta, s["n_samples"], cfg.seed, nx=cfg.nx, ny=cfg.ny,
            alpha=cfg.alpha, safety=s["safety"],
        )
    elif kind == "inclusion":
        result = strict_inclusion_demo(
            s["levels"], alpha=cfg.alpha, plateau_tol=s["plateau_tol"], plateau_from=s["plateau_from"]
        )
    elif kind == "embedding":
        result = embedding_study(
            levels=s["levels"], q_values=s["q_values"], n_samples=s["n_samples"],
            seed=cfg.seed, alpha=cfg.alpha, growth_cap=s["growth_cap"],
        )
    else:
        result = muckenhoupt_study(n_balls=s["n_balls"], seed=cfg.seed)
    _study_tables(out, result)
    results = {
        "kind": kind,
        "levels": result.levels,
        "metrics": result.metrics,
        "observed_orders": result.observed_orders,
        "thresholds": result.thresholds,
    }
    return results, result.verdict.value


def _run_game(cfg: RunConfig, out: Path) -> tuple[dict, str]:
    game_cfg = build_game_config(cfg)
    res: NashResult = nash_solve(game_cfg)
    alpha = game_cfg.grid.alpha
    _write_table(
        out / "game_residuals.tsv",
        ["sweep", "residual"],
        [[k + 1, r] for k, r in enumerate(res.br_residuals)],
    )
    grid = game_cfg.grid
    X, Y = grid.meshgrid()
    I, J = np.indices((grid.nx, grid.ny))
    _write_columns(
        out / "game_fields.tsv",
        ["i", "j", "x", "y", "f1", "f2", "state"],
        [I, J, X, Y, res.f1_star.values, res.f2_star.values, res.state.values],
    )
    results = {
        "j1": res.j1,
        "j2": res.j2,
        "br_iterations": res.br_iterations,
        "br_residuals": res.br_residuals,
        "converged": res.converged,
        "certified": res.certified,
        "certification_margin": res.certification_margin,
        "f1_norm": control_norm(res.f1_star, alpha),
        "f2_norm": control_norm(res.f2_star, alpha),
        "sweep_order": res.sweep_order,
    }
    verdict = Verdict.PASS if (res.converged and res.certified) else Verdict.FAIL
    return results, verdict.value


def run(cfg: RunConfig) -> RunReport:
    """Dispatch a validated RunConfig, persist report plus tables, and
    return the report.  Partial results are persisted even on failure."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    runner = {"solve": _run_solve, "verify": _run_verify, "study": _run_study, "game": _run_game}
    config_echo = asdict(cfg)
    config_echo["scheme"] = cfg.scheme.value
    versions = {"degenash": __version__, "numpy": np.__version__, "scipy": scipy.__version__}
    timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    try:
        results, verdict = runner[cfg.command](cfg, out)
    except Exception as exc:
        report = RunReport(
            command=cfg.command, config=config_echo,
            results={"error": f"{type(exc).__name__}: {exc}"},
            verdict=Verdict.FAIL.value, versions=versions, timestamp=timestamp,
        )
        (out / "report.json").write_text(report.to_json())
        raise
    report = RunReport(
        command=cfg.command, config=config_echo, results=results,
        verdict=verdict, versions=versions, timestamp=timestamp,
    )
    (out / "report.json").write_text(report.to_json())
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="degenash",
        description="Degenerate elliptic solves, theory studies, and Stackelberg-Nash games",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in COMMANDS:
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True, help="YAML run config")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--level-override", type=int, default=None,
                       help="set grid to n x n (solve/verify/game) or drop study levels above n")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
        cfg = parse_config(text)
        if cfg.command != args.verb:
            raise ConfigError(f"config declares command={cfg.command!r} but verb {args.verb!r} was invoked")
        if args.out is not None:
            cfg.output_dir = args.out
        if args.seed is not None:
            cfg.seed = args.seed
        if args.level_override is not None:
            n = args.level_override
            if cfg.command == "study":
                kept = [lv for lv in cfg.study["levels"] if lv <= n]
                if not kept:
                    raise ConfigError(f"--level-override {n} drops every study level")
                cfg.study["levels"] = kept
                _check_study_levels(cfg.study)
            else:
                if n < 2:
                    raise ConfigError("--level-override needs at least 2 interior nodes")
                cfg.nx = cfg.ny = n
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run(cfg)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(f"{cfg.command}: verdict={report.verdict} (outputs in {cfg.output_dir})")
    return 0 if report.verdict != Verdict.FAIL.value else 1


if __name__ == "__main__":
    sys.exit(main())
