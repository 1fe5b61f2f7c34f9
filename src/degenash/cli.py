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
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields
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
    embedding_metric,
    embedding_study,
    energy_estimate_study,
    muckenhoupt_study,
    strict_inclusion_demo,
)
from .fields import FIELD_KINDS, MANUFACTURED_KINDS, bump_from_parameters, bump_parameter_sets, named_field
from .game import FINITE_NONNEGATIVE, GameConfig, NashResult, Rule, control_norm, nash_solve
from .grid import build_grid, rect_mask
from .norms import norms_of
from .operators import RESIDUAL_TOL, assemble, solve_dirichlet, theta_weak_form_residual, weak_form_residual

COMMANDS = ("solve", "verify", "study", "game")
SAMPLING_STUDY_KINDS = ("coercivity", "embedding", "muckenhoupt")


FINITE_POSITIVE = Rule("must be finite and positive", lambda v: math.isfinite(v) and v > 0)
AT_LEAST_ONE = Rule("must be at least 1", lambda v: v >= 1)


class ConfigError(ValueError):
    """Malformed or out-of-range configuration, with a field path."""


@dataclass(frozen=True)
class Key:
    """One config key: the reader that converts its raw value (a dict
    instead is the table of a nested section), its default (None: the
    key is required) and the rule the converted value must meet."""

    read: Callable | dict
    default: object = None
    rule: Rule | None = None


def _one_of(choices) -> Rule:
    choices = tuple(choices)  # tuple membership also accepts unhashable values
    return Rule(f"must be one of {choices}", lambda v: v in choices)


def _integer(raw) -> int:
    """An integer, or a float with an integral value; 2.7 is an error,
    never truncated to 2."""
    if isinstance(raw, float) and raw.is_integer():
        raw = int(raw)
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise TypeError(raw)
    return int(raw)


def _list_of(kind) -> Callable:
    def read(raw):
        if not isinstance(raw, list):
            raise TypeError(raw)
        return [kind(v) for v in raw]

    return read


def _levels(text: str, holds) -> Key:
    rule = Rule(
        f"must be a non-empty list of levels, each at least 2{text}",
        lambda levels: bool(levels) and all(lv >= 2 for lv in levels) and holds(levels),
    )
    return Key(_list_of(_integer), [16, 32, 64, 128], rule)


# the energy and embedding verdicts compare the finest level with the coarsest
AT_LEAST_TWO_LEVELS = _levels(", at least 2 of them", lambda levels: len(levels) >= 2)


TOP = {
    "command": Key(str, None, _one_of(COMMANDS)),
    "seed": Key(_integer, 0, Rule("must be nonnegative", lambda v: v >= 0)),
    "output_dir": Key(str, "out"),
    "theta": Key(float, 1.0, FINITE_NONNEGATIVE),
}
NODES = Rule("must be at least 2 interior nodes", lambda n: n >= 2)
VERIFY_NODES = Rule("must be at least 5 for verify, whose coarse level is max(4, nx // 2)", lambda n: n >= 5)
GRID = {
    "nx": Key(_integer, 64, NODES),
    "ny": Key(_integer, 64, NODES),
    "alpha": Key(float, 0.5, Rule("must lie in (0, 1]", lambda a: 0.0 < a <= 1.0)),
}
FIELD = {"kind": Key(str, None, _one_of(FIELD_KINDS)), "amplitude": Key(float, 1.0)}
SINSIN = {"kind": "sinsin"}
RECT = Key(
    _list_of(float),
    None,
    Rule(
        "must be [x0, x1, y0, y1] with 0 <= x0 < x1 <= 1 and 0 <= y0 < y1 <= 1",
        lambda r: len(r) == 4 and 0.0 <= r[0] < r[1] <= 1.0 and 0.0 <= r[2] < r[3] <= 1.0,
    ),
)
SECTIONS = {
    "solve": {"f": Key(FIELD, SINSIN), "tol": Key(float, RESIDUAL_TOL, FINITE_POSITIVE)},
    "verify": {"f": Key(FIELD, SINSIN), "n_test_functions": Key(_integer, 10, AT_LEAST_ONE)},
    "game": {
        **dict.fromkeys(("omega", "omega1", "omega2", "g1_obs", "g2_obs"), RECT),
        **dict.fromkeys(("g", "yd1", "yd2"), Key(FIELD, SINSIN)),
        # the ball radii take default and rule from GameConfig
        **{f.name: Key(float, f.default, f.metadata["rule"]) for f in fields(GameConfig) if "rule" in f.metadata},
    },
}
# A study section holds its kind and the keys of that kind's study only;
# each key is a keyword argument of the kind's study function.
STUDIES = {
    "convergence": {
        "levels": _levels(", at least 3 of them", lambda levels: len(levels) >= 3),
        "manufactured": Key(str, "sinsin", _one_of(MANUFACTURED_KINDS)),
    },
    "energy": {"levels": AT_LEAST_TWO_LEVELS},
    "coercivity": {"n_samples": Key(_integer, 200, AT_LEAST_ONE)},
    "inclusion": {
        "levels": _levels(", strictly increasing", lambda levels: all(b > a for a, b in zip(levels, levels[1:]))),
        "plateau_tol": Key(float, 0.05, FINITE_POSITIVE),
        "plateau_from": Key(_integer, 32),
    },
    "embedding": {
        "levels": AT_LEAST_TWO_LEVELS,
        "q_values": Key(_list_of(float), [2, 3, 4], Rule(
            "must be a non-empty list of q, each in [2, 4], with distinct metric names max_ratio_q{q:g}",
            lambda qs: bool(qs) and all(2.0 <= q <= 4.0 for q in qs)
            and len(set(map(embedding_metric, qs))) == len(qs),
        )),
        "n_samples": Key(_integer, 100, AT_LEAST_ONE),
    },
    "muckenhoupt": {"n_balls": Key(_integer, 500, AT_LEAST_ONE)},
}
STUDY_KIND = Key(str, None, _one_of(STUDIES))


@dataclass
class RunConfig:
    command: str
    nx: int
    ny: int
    alpha: float
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


def _check(rule: Rule | None, value, where: str):
    if rule is not None and not rule.holds(value):
        raise ConfigError(f"{where}: {rule.text}, got {value!r}")
    return value


def _read(raw, table: dict, path: str) -> dict:
    """Read one section by its table: reject unknown keys, apply defaults,
    convert values and check their rules.  Errors name path.key."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a mapping, got {raw!r}")
    for name in raw:
        if name not in table:
            raise ConfigError(f"{path}.{name}: unknown key, known: {', '.join(table)}")
    out = {}
    for name, key in table.items():
        where = f"{path}.{name}"
        value = raw.get(name, key.default)
        if value is None:
            raise ConfigError(f"{where}: required field is missing")
        if isinstance(key.read, dict):
            value = _read(value, key.read, where)
        else:
            try:
                value = key.read(value)
            except (TypeError, ValueError):
                raise ConfigError(f"{where}: cannot interpret {value!r}") from None
        out[name] = _check(key.rule, value, where)
    return out


def _check_plateau(study: dict, where: str) -> None:
    """An inclusion study must check at least one refinement step, so its
    plateau_from may not lie above the second-to-last level."""
    levels, start = study["levels"], study["plateau_from"]
    if len(levels) < 2 or start > levels[-2]:
        raise ConfigError(
            f"{where}: must be at most the second-to-last level, so that a refinement step "
            f"is checked; got {start} with levels {levels}"
        )


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a YAML run config, applying defaults.

    The top level holds command, seed, output_dir, theta, the grid
    section and the section named by the command; each section is read by
    its table (TOP, GRID, SECTIONS, STUDIES), and unknown keys are errors.
    Sampling commands (game; coercivity/embedding/muckenhoupt studies)
    require an explicit seed for reproducibility.
    """
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping of sections")

    command = _check(TOP["command"].rule, raw.get("command"), "config.command")
    if command == "study":
        sec = raw.get("study", {})
        kind = _check(STUDY_KIND.rule, sec.get("kind") if isinstance(sec, dict) else None, "study.kind")
        tables = {"grid": GRID, "study": {"kind": STUDY_KIND, **STUDIES[kind]}}
    else:
        kind = None
        tables = {"grid": GRID, command: SECTIONS[command]}
    top = _read({k: v for k, v in raw.items() if k not in tables}, TOP, "config")
    sections = {name: _read(raw.get(name, {}), table, name) for name, table in tables.items()}

    if kind == "coercivity" and not top["theta"] > 0:
        raise ConfigError(f"config.theta: a coercivity study needs theta > 0, got {top['theta']}")
    if kind == "inclusion":
        _check_plateau(sections["study"], "study.plateau_from")
    grid = sections.pop("grid")
    if command == "verify":
        _check(VERIFY_NODES, grid["nx"], "grid.nx")
        if grid["ny"] != grid["nx"]:
            raise ConfigError(f"grid.ny: verify runs square grids, so ny must equal nx = {grid['nx']}, got {grid['ny']}")
    if (command == "game" or kind in SAMPLING_STUDY_KINDS) and "seed" not in raw:
        raise ConfigError("config.seed: sampling commands require an explicit seed")
    return RunConfig(
        command=command, nx=grid["nx"], ny=grid["ny"], alpha=grid["alpha"], theta=top["theta"],
        seed=top["seed"], output_dir=top["output_dir"], **sections,
    )


def _apply_level_override(cfg: RunConfig, n: int) -> None:
    """--level-override n: drop the study levels above n; otherwise run on
    an n x n grid.  A muckenhoupt study has neither."""
    if "levels" in cfg.study:
        kept = [lv for lv in cfg.study["levels"] if lv <= n]
        rule = STUDIES[cfg.study["kind"]]["levels"].rule
        cfg.study["levels"] = _check(rule, kept, f"study.levels after --level-override {n}")
        if cfg.study["kind"] == "inclusion":
            _check_plateau(cfg.study, f"study.plateau_from after --level-override {n}")
    elif cfg.study.get("kind") == "muckenhoupt":
        raise ConfigError("--level-override: a muckenhoupt study has no levels or grid to act on")
    else:
        cfg.nx = cfg.ny = _check(VERIFY_NODES if cfg.command == "verify" else NODES, n, "--level-override")


def build_game_config(cfg: RunConfig) -> GameConfig:
    """The game of a parsed config: its rectangles become region masks and
    its field specs fields, on the config's grid."""
    grid = build_grid(cfg.nx, cfg.ny, cfg.alpha)

    def build(value):
        if isinstance(value, dict):
            return named_field(grid, **value)
        if isinstance(value, list):
            return rect_mask(grid, *value)
        return value

    return GameConfig(grid=grid, seed=cfg.seed, **{k: build(v) for k, v in cfg.game.items()})


def _write_columns(path: Path, header: list[str], columns: list) -> None:
    """Write the table whose k-th row holds the k-th entry of every column.

    Renders a column at a time with repr on the Python scalars of
    np.ravel(column).tolist(): floats round-trip and ints print as
    integers."""
    cells = [_render(np.ravel(c)) for c in columns]
    lines = ["\t".join(header), *map("\t".join, zip(*cells))]
    path.write_text("\n".join(lines) + "\n")


def _render(values: np.ndarray) -> list[str]:
    """repr of each entry's Python scalar, called once per distinct value;
    floats are told apart by their bits, so 0.0 and -0.0 stay apart."""
    key = values.view(np.int64) if values.dtype == np.float64 else values
    distinct, index = np.unique(key, return_inverse=True)
    text = np.array(list(map(repr, distinct.view(values.dtype).tolist())), dtype=object)
    return text[index].tolist()


def _study_tables(out: Path, result: StudyResult) -> None:
    names = sorted(result.metrics)
    _write_columns(
        out / "study_levels.tsv",
        ["level"] + names,
        [result.levels] + [result.metrics[name] for name in names],
    )
    if result.observed_orders:
        orders = result.observed_orders
        _write_columns(out / "study_orders.tsv", ["pair", "observed_order"], [np.arange(len(orders)), orders])
    if result.samples:
        names = sorted(result.samples)
        n = len(next(iter(result.samples.values())))
        _write_columns(
            out / "study_samples.tsv",
            ["sample"] + names,
            [np.arange(n)] + [result.samples[name] for name in names],
        )


def _run_solve(cfg: RunConfig, out: Path) -> tuple[dict, str]:
    grid = build_grid(cfg.nx, cfg.ny, cfg.alpha)
    f = named_field(grid, **cfg.solve["f"])
    u, rep = solve_dirichlet(assemble(grid), f, cfg.solve["tol"])
    report = norms_of(u, include_mixed=True)
    results = {
        "residual_norm": rep.residual_norm,
        "iterations": rep.iterations,
        "wall_time": rep.wall_time,
        "norms": {k: v for k, v in asdict(report).items() if v is not None},
    }
    _write_columns(
        out / "solve_norms.tsv",
        ["l2", "dx_l2", "weighted_dy_l2", "w11"],
        [report.l2, report.dx_l2, report.weighted_dy_l2, report.w11],
    )
    return results, Verdict.PASS.value


def _run_verify(cfg: RunConfig, out: Path) -> tuple[dict, str]:
    levels = [max(4, cfg.nx // 2), cfg.nx]
    n_tests = cfg.verify["n_test_functions"]
    params = bump_parameter_sets(n_tests, cfg.seed)
    rows, max_by_level = [], []
    for level in levels:
        grid = build_grid(level, level, cfg.alpha)
        f = named_field(grid, **cfg.verify["f"])
        u, _ = solve_dirichlet(assemble(grid), f)
        residuals = []
        for k, p in enumerate(params):
            phi = bump_from_parameters(grid, p)
            r = weak_form_residual(u, f, phi)
            rt = theta_weak_form_residual(u, f, phi, cfg.theta)
            rows.append([level, k, r, rt])
            residuals += [r, rt]
        # np.max keeps a NaN, where Python's max would drop it
        max_by_level.append(float(np.max(np.abs(residuals))))
    _write_columns(out / "verify_residuals.tsv", ["level", "test_fn", "residual", "theta_residual"], list(zip(*rows)))
    finite = all(math.isfinite(m) for m in max_by_level)
    decreasing = finite and max_by_level[-1] < max_by_level[0]
    results = {"levels": levels, "max_residual_by_level": max_by_level, "theta": cfg.theta}
    return results, (Verdict.PASS if decreasing else Verdict.FAIL).value


def _run_study(cfg: RunConfig, out: Path) -> tuple[dict, str]:
    kind = cfg.study["kind"]
    keys = {k: v for k, v in cfg.study.items() if k != "kind"}
    if kind == "convergence":
        result = convergence_study(alpha=cfg.alpha, **keys)
    elif kind == "energy":
        result = energy_estimate_study(alpha=cfg.alpha, **keys)
    elif kind == "coercivity":
        result = coercivity_check(cfg.theta, seed=cfg.seed, nx=cfg.nx, ny=cfg.ny, alpha=cfg.alpha, **keys)
    elif kind == "inclusion":
        result = strict_inclusion_demo(alpha=cfg.alpha, **keys)
    elif kind == "embedding":
        result = embedding_study(seed=cfg.seed, alpha=cfg.alpha, **keys)
    else:
        result = muckenhoupt_study(seed=cfg.seed, **keys)
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
    _write_columns(
        out / "game_residuals.tsv",
        ["sweep", "residual"],
        [np.arange(1, len(res.br_residuals) + 1), res.br_residuals],
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
    timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    error = None
    try:
        results, verdict = runner[cfg.command](cfg, out)
    except Exception as exc:
        error = exc
        results, verdict = {"error": f"{type(exc).__name__}: {exc}"}, Verdict.FAIL.value
    report = RunReport(
        command=cfg.command, config=config_echo, results=results, verdict=verdict,
        versions={"degenash": __version__, "numpy": np.__version__, "scipy": scipy.__version__},
        timestamp=timestamp,
    )
    (out / "report.json").write_text(report.to_json())
    if error is not None:
        raise error
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
                       help="drop study levels above n, or set the grid to n x n (solve, verify, game, "
                            "coercivity study); a muckenhoupt study rejects it")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
        cfg = parse_config(text)
        if cfg.command != args.verb:
            raise ConfigError(f"config declares command={cfg.command!r} but verb {args.verb!r} was invoked")
        if args.out is not None:
            cfg.output_dir = args.out
        if args.seed is not None:
            cfg.seed = _check(TOP["seed"].rule, args.seed, "--seed")
        if args.level_override is not None:
            _apply_level_override(cfg, args.level_override)
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
