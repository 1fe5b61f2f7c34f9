"""Each input rule is one Rule object of the library module that owns the
input: the config's tables hold the same object, a bad value gives a
ConfigError naming section.key through parse_config and a ValueError
naming the parameter through the library, and both carry its text."""

import copy
import dataclasses
import math
import re

import numpy as np
import pytest
import yaml

import degenash.analysis as analysis
import degenash.cli as cli
import degenash.fields as fields
import degenash.game as game
import degenash.grid as grid
import degenash.norms as norms
from conftest import CONFIG_DIR, shipped_game
from degenash.analysis import (
    coercivity_check,
    convergence_study,
    embedding_study,
    energy_estimate_study,
    strict_inclusion_demo,
)
from degenash.cli import ConfigError, parse_config
from degenash.fields import bump_parameter_sets, manufactured_pair, named_field
from degenash.grid import GridFunction, build_grid, cell_weights, rect_mask, weighted_inner
from degenash.norms import lq_norm, muckenhoupt_panel
from degenash.operators import solve_dirichlet

SOLVE = {"command": "solve", "grid": {"nx": 16, "ny": 16, "alpha": 0.5}, "solve": {"f": {"kind": "sinsin"}}}
VERIFY = {"command": "verify", "verify": {}}
GAME = yaml.safe_load((CONFIG_DIR / "benchmark_game.yaml").read_text())
G = build_grid(8, 8, 0.5)
ONE = GridFunction(G, np.ones(G.n))


def study(kind, **keys):
    return {"command": "study", "seed": 1, "study": {"kind": kind, **keys}}


STUDY_CALLS = {
    "convergence": convergence_study,
    "energy": lambda levels: energy_estimate_study(levels, alpha=0.5),
    "inclusion": strict_inclusion_demo,
    "embedding": lambda levels: embedding_study(levels=levels, n_samples=2),
}
BAD_LEVELS = {"convergence": [16, 32], "energy": [32, 32], "inclusion": [16], "embedding": [16]}

# (config, dotted path of the key in it, bad value, library call, parameter, rule)
CASES = {
    "alpha": (SOLVE, "grid.alpha", 2.0, lambda v: build_grid(8, 8, v), "alpha", grid.ALPHA),
    "nx": (SOLVE, "grid.nx", 1, lambda v: build_grid(v, 8, 0.5), "nx", grid.NODES),
    "ny": (SOLVE, "grid.ny", 1, lambda v: build_grid(8, v, 0.5), "ny", grid.NODES),
    # Grid is public, so it checks the keys build_grid reads itself
    "alpha-Grid": (SOLVE, "grid.alpha", 2.0, lambda v: grid.Grid(8, 8, v), "alpha", grid.ALPHA),
    "nx-Grid": (SOLVE, "grid.nx", 1, lambda v: grid.Grid(v, 8, 0.5), "nx", grid.NODES),
    "ny-Grid": (SOLVE, "grid.ny", 1, lambda v: grid.Grid(8, v, 0.5), "ny", grid.NODES),
    "rectangle": (GAME, "game.omega", [0.3, 0.1, 0.1, 0.9], lambda v: rect_mask(G, *v), "rectangle", grid.RECT),
    "field-kind": (SOLVE, "solve.f.kind", "bogus", lambda v: named_field(G, v), "kind", fields.FIELD_KIND),
    "amplitude": (SOLVE, "solve.f.amplitude", math.inf, lambda v: named_field(G, "sinsin", v), "amplitude", grid.FINITE),
    "manufactured": (
        study("convergence"), "study.manufactured", "bogus", lambda v: manufactured_pair(G, v), "kind",
        fields.MANUFACTURED_KIND,
    ),
    "tol": (
        SOLVE, "solve.tol", -1.0, lambda v: solve_dirichlet(G, named_field(G, "sinsin"), v), "tol",
        grid.FINITE_POSITIVE,
    ),
    **{
        f"levels-{kind}": (study(kind), "study.levels", BAD_LEVELS[kind], call, "levels", analysis.LEVELS[kind])
        for kind, call in STUDY_CALLS.items()
    },
    "levels-verify": (VERIFY, "verify.levels", [32], STUDY_CALLS["energy"], "levels", analysis.LEVELS["energy"]),
    "n_samples-coercivity": (
        study("coercivity"), "study.n_samples", 0, lambda v: coercivity_check(v, seed=1), "n_samples",
        grid.AT_LEAST_ONE,
    ),
    "n_samples-embedding": (
        study("embedding"), "study.n_samples", 0, lambda v: embedding_study(levels=[8, 16], n_samples=v),
        "n_samples", grid.AT_LEAST_ONE,
    ),
    "seed": (GAME, "seed", -1, lambda v: dataclasses.replace(shipped_game(n=16), seed=v), "seed", grid.SEED),
    "seed-bumps": (
        study("coercivity"), "seed", -1, lambda v: coercivity_check(2, seed=v, nx=8, ny=8), "seed", grid.SEED,
    ),
    "m1": (
        GAME, "game.m1", -1.0, lambda v: dataclasses.replace(shipped_game(n=16), m1=v), "m1",
        grid.FINITE_NONNEGATIVE,
    ),
}


def with_value(config: dict, path: str, value) -> str:
    """The YAML text of config with the key at path set to value."""
    config = copy.deepcopy(config)
    *sections, key = path.split(".")
    node = config
    for name in sections:
        node = node[name]
    node[key] = value
    return yaml.safe_dump(config)


@pytest.mark.parametrize("case", CASES)
def test_config_and_library_reject_by_one_rule(case):
    config, path, bad, call, name, rule = CASES[case]
    where = path if "." in path else f"config.{path}"
    with pytest.raises(ConfigError) as config_error:
        parse_config(with_value(config, path, bad))
    assert str(config_error.value).startswith(f"{where}: {rule.text}, got ")
    with pytest.raises(ValueError) as library_error:
        call(bad)
    assert type(library_error.value) is ValueError
    assert str(library_error.value).startswith(f"{name} {rule.text}, got ")


@pytest.mark.parametrize("seed", [True, 1.5])
@pytest.mark.parametrize(
    "call", [lambda s: bump_parameter_sets(2, s), lambda s: dataclasses.replace(shipped_game(n=16), seed=s)]
)
def test_seed_rule_rejects_what_numpy_would_take_or_misname(call, seed):
    # numpy seeds with True as with 1, and fails on 1.5 with its own TypeError
    with pytest.raises(ValueError, match=f"^seed {grid.SEED.text}, got {seed!r}$"):
        call(seed)


# A library call per numeric rule, and the parameter its error names; each
# call would run with True as 1 if the rule let it through.
BOOLEANS = {
    "alpha": (lambda v: build_grid(4, 4, v), "alpha", grid.ALPHA),
    "tol": (lambda v: solve_dirichlet(G, named_field(G, "sinsin"), tol=v), "tol", grid.FINITE_POSITIVE),
    "amplitude": (lambda v: named_field(G, "sinsin", v), "amplitude", grid.FINITE),
    "theta": (lambda v: weighted_inner(ONE, ONE, 0.0, theta=v), "theta", grid.FINITE_NONNEGATIVE),
    "n_samples": (lambda v: coercivity_check(v, seed=1, nx=8, ny=8), "n_samples", grid.AT_LEAST_ONE),
    "m1": (lambda v: dataclasses.replace(shipped_game(n=16), m1=v), "m1", grid.FINITE_NONNEGATIVE),
    "q": (lambda v: lq_norm(ONE, v), "q", norms.LQ_Q),
    "exponent": (lambda v: cell_weights(G, v), "exponent", grid.FINITE),
    "pairing_exponent": (lambda v: weighted_inner(ONE, ONE, v), "exponent", grid.FINITE),
    "weight_exponent": (lambda v: muckenhoupt_panel((0.5, v)), "weight exponent", grid.FINITE),
    "factor": (lambda v: ONE * v, "factor", grid.FINITE),
    "left_factor": (lambda v: v * ONE, "factor", grid.FINITE),
}
# rectangles whose booleans, read as 0 and 1, would be the whole square;
# the rule sees and echoes the corner list
RECTANGLES = {
    "rectangle_x1": lambda v: [0.0, v, 0.0, 1.0],
    "rectangle_y1": lambda v: [0.0, 1.0, 0.0, v],
    "rectangle_x0_false": lambda v: [not v, v, 0.0, 1.0],
}
BOOLEANS |= {
    case: (lambda v, c=corners: rect_mask(G, *c(v)), "rectangle", grid.RECT, corners)
    for case, corners in RECTANGLES.items()
}


@pytest.mark.parametrize("value", [True, np.True_], ids=["bool", "numpy-bool"])
@pytest.mark.parametrize("case", BOOLEANS)
def test_numeric_rule_rejects_a_boolean(case, value):
    call, name, rule, *seen = BOOLEANS[case]
    got = re.escape(repr(seen[0](value))) if seen else r"(np\.)?True_?"
    with pytest.raises(ValueError, match=rf"^{name} {re.escape(rule.text)}, got {got}$"):
        call(value)


# theta = 0 is the unweighted pairing, and False must not pass for it
@pytest.mark.parametrize("value", [False, np.False_], ids=["bool", "numpy-bool"])
def test_theta_rule_rejects_false(value):
    text = re.escape(grid.FINITE_NONNEGATIVE.text)
    for call in (lambda: weighted_inner(ONE, ONE, 0.0, theta=value), lambda: cell_weights(G, 0.0, value)):
        with pytest.raises(ValueError, match=rf"^theta {text}, got (np\.)?False_?$"):
            call()


GAME_RULES = {f.name: f.metadata["rule"] for f in dataclasses.fields(game.GameConfig) if "rule" in f.metadata}
SHARED = {
    "grid.alpha": (cli.GRID["alpha"].rule, grid.ALPHA),
    "grid.nx": (cli.GRID["nx"].rule, grid.NODES),
    "grid.ny": (cli.GRID["ny"].rule, grid.NODES),
    **{f"game.{r}": (cli.SECTIONS["game"][r].rule, grid.RECT) for r in ("omega", "omega1", "omega2", "g1_obs", "g2_obs")},
    **{f"game.{m}": (cli.SECTIONS["game"][m].rule, GAME_RULES[m]) for m in ("m1", "m2")},
    "field.kind": (cli.FIELD["kind"].rule, fields.FIELD_KIND),
    "field.amplitude": (cli.FIELD["amplitude"].rule, grid.FINITE),
    "verify.levels": (cli.SECTIONS["verify"]["levels"].rule, analysis.LEVELS["energy"]),
    "config.seed": (cli.TOP["seed"].rule, grid.SEED),
    "solve.tol": (cli.SECTIONS["solve"]["tol"].rule, grid.FINITE_POSITIVE),
    "convergence.manufactured": (cli.STUDIES["convergence"]["manufactured"].rule, fields.MANUFACTURED_KIND),
    **{f"{kind}.levels": (cli.STUDIES[kind]["levels"].rule, rule) for kind, rule in analysis.LEVELS.items()},
    "coercivity.n_samples": (cli.STUDIES["coercivity"]["n_samples"].rule, grid.AT_LEAST_ONE),
    "embedding.n_samples": (cli.STUDIES["embedding"]["n_samples"].rule, grid.AT_LEAST_ONE),
}


@pytest.mark.parametrize("key", SHARED)
def test_config_table_holds_the_library_rule(key):
    table_rule, library_rule = SHARED[key]
    assert table_rule is library_rule


def table_rules(table: dict):
    for key in table.values():
        if isinstance(key.read, dict):
            yield from table_rules(key.read)
        elif key.rule is not None:
            yield key.rule


def test_config_states_no_rule_of_its_own():
    # only the command and the study kind are the CLI's own
    library = [v for m in (grid, fields, analysis, game) for v in vars(m).values() if isinstance(v, grid.Rule)]
    library += [*analysis.LEVELS.values(), *GAME_RULES.values()]
    own = [cli.TOP["command"].rule, cli.STUDY_KIND.rule]
    tables = [cli.TOP, cli.GRID, *cli.SECTIONS.values(), *cli.STUDIES.values()]
    for rule in (rule for table in tables for rule in table_rules(table)):
        assert any(rule is r for r in library + own), rule.text
