"""Config-driven command line: solve, verify, study, and game runs.

Configs are YAML, each key in the section of the run that reads it (see
configs/ and README for the grammar), read by libyaml's CSafeLoader when
PyYAML has it and by SafeLoader otherwise; a game's regions must each
hold a node of its grid.  No run reads a seed: the sampling studies draw
from fixed streams, and --seed is checked and ignored.
A study section holds its kind, plus its levels when the kind is one of
analysis.LEVELS.  Verify solves for the sinsin forcing and tests the
weak form against fixed functions by the convergence study's
observed-order rule.
The argument parser is built once per process.  Every run writes a
report.json plus tab-separated tables, one row per level, iteration or
sample, floats by repr, so reruns of a config are byte-identical;
wall-clock times live only in report.json.
"""

from __future__ import annotations

import argparse
import functools
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
    LEVELS,
    ORDER_THRESHOLD,
    THETA,
    StudyResult,
    Verdict,
    coercivity_check,
    convergence_study,
    embedding_study,
    energy_estimate_study,
    muckenhoupt_study,
    observed_orders,
    strict_inclusion_demo,
)
from .fields import FIELD_KIND, named_field
from .game import REGIONS, GameConfig, NashResult, control_norm, nash_solve
from .grid import (
    ALPHA, FINITE, FINITE_POSITIVE, NODES, RECT, SEED, Grid, GridFunction, Rule, build_grid, rect_mask,
)
from .norms import norms_of
from .operators import RESIDUAL_TOL, dy, solve_dirichlet, weak_form_residual

COMMANDS = ("solve", "verify", "study", "game")
# Rows a table writer renders and writes at a time.
CHUNK_ROWS = 4096


class ConfigError(ValueError):
    """Malformed or out-of-range configuration, with a field path."""


@dataclass(frozen=True)
class Key:
    """One config key: the reader that converts its raw value (a dict
    instead is the table of a nested section), its default (None: the
    key is required) and the rule the converted value must meet, the
    library's own Rule wherever the library takes the value."""

    read: Callable | dict
    default: object = None
    rule: Rule | None = None


def _integer(raw) -> int:
    """An integer, or a float with an integral value; 2.7 is an error,
    never truncated to 2."""
    if isinstance(raw, float) and raw.is_integer():
        raw = int(raw)
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise TypeError(raw)
    return int(raw)


def _text(raw) -> str:
    """A non-empty string; a list or a boolean is an error, never its str()."""
    if not isinstance(raw, str) or not raw:
        raise TypeError(raw)
    return raw


def _real(raw) -> float:
    """A real number, or a string that reads as one, such as 1e-10 (YAML
    reads that as a string); a boolean is an error, never 1.0 or 0.0."""
    if isinstance(raw, bool):
        raise TypeError(raw)
    return float(raw)


def _list_of(kind) -> Callable:
    def read(raw):
        if not isinstance(raw, list):
            raise TypeError(raw)
        return [kind(v) for v in raw]

    return read


TOP = {
    "command": Key(_text, None, Rule.one_of(COMMANDS)),
    "output_dir": Key(_text, "out"),
}
GRID = {"nx": Key(_integer, 64, NODES), "ny": Key(_integer, 64, NODES), "alpha": Key(_real, 0.5, ALPHA)}
FIELD = {"kind": Key(_text, None, FIELD_KIND), "amplitude": Key(_real, 1.0, FINITE)}
SINSIN = {"kind": "sinsin"}
SECTIONS = {
    "solve": {"f": Key(FIELD, SINSIN), "tol": Key(_real, RESIDUAL_TOL, FINITE_POSITIVE)},
    "verify": {"levels": Key(_list_of(_integer), [32, 64], LEVELS["energy"])},  # two levels, as the energy study
    "game": {
        **dict.fromkeys(REGIONS, Key(_list_of(_real), None, RECT)),
        **dict.fromkeys(("g", "yd1", "yd2"), Key(FIELD, SINSIN)),
        # the ball radii take default and rule from GameConfig
        **{f.name: Key(_real, f.default, f.metadata["rule"]) for f in fields(GameConfig) if "rule" in f.metadata},
    },
}
# A study section holds its kind, plus levels when the kind's study takes
# them (analysis.LEVELS); levels is then a keyword argument of that study.
STUDIES = {
    kind: {"levels": Key(_list_of(_integer), [16, 32, 64, 128], LEVELS[kind])} if kind in LEVELS else {}
    for kind in ("convergence", "energy", "coercivity", "inclusion", "embedding", "muckenhoupt")
}
STUDY_KIND = Key(_text, None, Rule.one_of(STUDIES))


@dataclass
class RunConfig:
    command: str
    output_dir: str
    nx: int | None = None  # a grid key the run does not read stays None
    ny: int | None = None
    alpha: float | None = None
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
        """Strict JSON: a float that is not finite is written as the string
        "inf", "-inf" or "nan", never as a bare NaN or Infinity."""
        return json.dumps(_finite_json(asdict(self)), indent=2, sort_keys=True, allow_nan=False)


def _finite_json(value):
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if isinstance(value, dict):
        return {k: _finite_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_json(v) for v in value]
    return value


def _check(rule: Rule | None, value, where: str):
    if rule is not None and not rule.holds(value):
        raise ConfigError(f"{where}: {rule.text}, got {value!r}")
    return value


def _read(raw, table: dict, path: str) -> dict:
    """Read one section by its table: reject unknown keys, apply defaults,
    convert values and check their rules.  A key given as null is an
    error, also when the key has a default.  Errors name path.key."""
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
            raise ConfigError(f"{where}: key is null; give it a value" if name in raw else f"{where}: required field is missing")
        if isinstance(key.read, dict):
            value = _read(value, key.read, where)
        else:
            try:
                value = key.read(value)
            except (TypeError, ValueError):
                raise ConfigError(f"{where}: cannot interpret {value!r}") from None
        out[name] = _check(key.rule, value, where)
    return out


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a YAML run config, applying defaults.

    Each section holds only the keys its run reads (a run with levels reads
    alpha alone of the grid, a muckenhoupt study no grid); unknown keys are
    errors."""
    return _parse(_mapping(text))


def _mapping(text: str) -> dict:
    """The config's top-level mapping, read by libyaml's CSafeLoader when
    PyYAML was built with it and by the pure-Python SafeLoader otherwise.
    Both build with the same safe constructor, so they give the same
    mapping, and a YAML error from either is a ConfigError."""
    try:
        raw = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except (yaml.YAMLError, UnicodeEncodeError) as exc:  # libyaml encodes the text, a lone surrogate fails that
        raise ConfigError(f"malformed YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping of sections")
    return raw


def _parse(raw: dict) -> RunConfig:
    command = _check(TOP["command"].rule, raw.get("command"), "config.command")
    kind = None
    if command == "study":
        sec = raw.get("study", {})
        kind = _check(STUDY_KIND.rule, sec.get("kind") if isinstance(sec, dict) else None, "study.kind")
    table = {"kind": STUDY_KIND, **STUDIES[kind]} if kind else SECTIONS[command]
    tables = {"grid": {"alpha": GRID["alpha"]} if "levels" in table else GRID, command: table}
    if kind == "muckenhoupt":
        del tables["grid"]
    top = _read({k: v for k, v in raw.items() if k not in tables}, TOP, "config")
    sections = {name: _read(raw.get(name, {}), table, name) for name, table in tables.items()}
    grid = sections.pop("grid", {})
    cfg = RunConfig(**top, **grid, **sections)
    if command == "game":
        _check_regions(cfg)
    return cfg


def _check_regions(cfg: RunConfig, where: str = "") -> None:
    """Each game region holds an interior node of the game's grid, as
    GameConfig requires; where follows the key in the error."""
    grid = Grid(cfg.nx, cfg.ny, cfg.alpha)
    for name in REGIONS:
        rect = cfg.game[name]
        if not all(inside.any() for inside in grid.rect_axes(*rect)):
            raise ConfigError(f"game.{name}{where}: {rect} holds no interior node of the {cfg.nx} x {cfg.ny} grid")


def _apply_level_override(cfg: RunConfig, n: int) -> None:
    """--level-override n: a run with levels drops those above n; solve,
    game and the coercivity study run on an n x n grid."""
    section = getattr(cfg, cfg.command)
    kind = section.get("kind")
    if "levels" in section:
        rule = (STUDIES[kind] if kind else SECTIONS[cfg.command])["levels"].rule
        where = f"{cfg.command}.levels after --level-override {n}"
        section["levels"] = _check(rule, [lv for lv in section["levels"] if lv <= n], where)
    elif kind == "muckenhoupt":
        raise ConfigError("--level-override: a muckenhoupt study has no levels or grid to act on")
    else:
        cfg.nx = cfg.ny = _check(NODES, n, "--level-override")
        if cfg.command == "game":
            _check_regions(cfg, f" after --level-override {n}")


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

    return GameConfig(grid=grid, **{k: build(v) for k, v in cfg.game.items()})


def _write_columns(path: Path, header: list[str], columns: list) -> None:
    """Write the table whose k-th row holds the k-th entry of every column.

    Renders with repr on the Python scalars of np.ravel(column).tolist():
    floats round-trip and ints print as integers.  Rows are taken, rendered
    and written CHUNK_ROWS at a time in ravel order, so memory does not
    grow with the table; columns of unequal length raise ValueError.  A
    broadcast column (a view with a zero stride, such as a grid
    coordinate repeated over the nodes) is rendered once from the
    entries it repeats, by the same _render, and its strings are
    repeated into each chunk (_renderer)."""
    columns = [np.asarray(c) for c in columns]
    lengths = [c.size for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"{path.name}: columns must have equal lengths, got {lengths}")
    renderers = [_renderer(c) for c in columns]
    with path.open("w") as out:
        out.write("\t".join(header) + "\n")
        for start in range(0, lengths[0] if columns else 0, CHUNK_ROWS):
            rows = slice(start, start + CHUNK_ROWS)
            cells = [render(rows) for render in renderers]
            out.write("\n".join(map("\t".join, zip(*cells))) + "\n")


def _renderer(column: np.ndarray) -> Callable[[slice], list[str]]:
    """The renderer of a slice of column's ravel-order rows.

    A flat slice copies only those rows, also of a broadcast view.  A
    column with a zero stride repeats the entries of its source, the
    column with each such axis cut to its first entry: those are
    rendered once, and a slice picks their strings through the
    broadcast index of each row's source entry."""
    if 0 not in column.strides:
        return lambda rows: _render(column.flat[rows])
    source = column[tuple(slice(None) if stride else slice(1) for stride in column.strides)]
    text = np.array(_render(source.ravel()), dtype=object)
    index = np.broadcast_to(np.arange(source.size).reshape(source.shape), column.shape)
    return lambda rows: text[index.flat[rows]].tolist()


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
    u, rep = solve_dirichlet(grid, f, cfg.solve["tol"])
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
    levels = cfg.verify["levels"]
    rows, max_by_level = [], []
    for level in levels:
        grid = build_grid(level, level, cfg.alpha)
        f = named_field(grid, "sinsin")
        u, _ = solve_dirichlet(grid, f)
        # the test functions (sin k pi x sin l pi y)**2, k, l = 1, 2, 3, vanish with their gradients on the boundary
        sx, sy = (np.sin(np.pi * np.outer((1, 2, 3), t)) ** 2 for t in (grid.x, grid.y))
        residuals = []
        for k, phi in enumerate(GridFunction(grid, np.outer(b, a)) for a in sx for b in sy):
            r = weak_form_residual(u, f, phi)
            rt = weak_form_residual(u, f, dy(phi), THETA)
            rows.append([level, k, r, rt])
            residuals += [r, rt]
        # np.max keeps a NaN, where Python's max would drop it
        max_by_level.append(float(np.max(np.abs(residuals))))
    _write_columns(out / "verify_residuals.tsv", ["level", "test_fn", "residual", "theta_residual"], list(zip(*rows)))
    orders = observed_orders(levels, max_by_level)
    results = {"levels": levels, "max_residual_by_level": max_by_level, "observed_orders": orders, "theta": THETA}
    return results, (Verdict.PASS if orders[-1] >= ORDER_THRESHOLD else Verdict.FAIL).value


def _run_study(cfg: RunConfig, out: Path) -> tuple[dict, str]:
    """Call the kind's study with what _parse read for it: the section's
    keys and the grid keys the run reads (those not None).  The table is
    built on each call, so a study name rebound in this module (by a
    tracer, say) is the one called."""
    kind = cfg.study["kind"]
    study = {
        "convergence": convergence_study, "energy": energy_estimate_study, "coercivity": coercivity_check,
        "inclusion": strict_inclusion_demo, "embedding": embedding_study, "muckenhoupt": muckenhoupt_study,
    }[kind]
    grid = {k: getattr(cfg, k) for k in GRID if getattr(cfg, k) is not None}
    result = study(**{k: v for k, v in cfg.study.items() if k != "kind"}, **grid)
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
    shape = (grid.ny, grid.nx)
    # the grid columns are broadcast views in node order; _write_columns
    # copies a chunk at a time
    I, X = (np.broadcast_to(a[None, :], shape) for a in (np.arange(grid.nx), grid.x))
    J, Y = (np.broadcast_to(a[:, None], shape) for a in (np.arange(grid.ny), grid.y))
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first main call of a process
    and reused by every later one; each parse_args call fills a new
    namespace, so no flag of one call reaches the next."""
    parser = argparse.ArgumentParser(
        prog="degenash",
        description="Degenerate elliptic solves, theory studies, and Stackelberg-Nash games",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in COMMANDS:
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True, help="YAML run config")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="checked, then ignored: no run reads a seed")
        p.add_argument("--level-override", type=int, default=None,
                       help="drop the levels above n (verify and the studies with levels), or set the grid "
                            "to n x n (solve, game, coercivity study); a muckenhoupt study rejects it")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        try:
            raw = _mapping(Path(args.config).read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{args.config}: not UTF-8 text: {exc}") from None
        if args.seed is not None:
            _check(SEED, args.seed, "--seed")
        if args.out is not None:
            raw["output_dir"] = args.out
        cfg = _parse(raw)
        if cfg.command != args.verb:
            raise ConfigError(f"config declares command={cfg.command!r} but verb {args.verb!r} was invoked")
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
    return 0 if report.verdict == Verdict.PASS.value else 1


if __name__ == "__main__":
    sys.exit(main())
