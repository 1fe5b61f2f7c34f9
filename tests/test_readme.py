"""The README's statements of module constants, level rules and config
keys match the code."""

import ast
import re
from pathlib import Path

import pytest

import degenash.analysis as analysis
import degenash.cli as cli
import degenash.game as game
import degenash.operators as operators

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

# Each constant whose value the README states as `NAME = value`.
CONSTANTS = {
    **dict.fromkeys(("BR_TOL", "BR_MAX_ITERS", "INNER_TOL", "INNER_MAX_ITERS", "DEVIATION_SAMPLES", "DEVIATION_SEED"), game),
    **dict.fromkeys(
        ("RATIO_CAP", "SAFETY", "GROWTH_CAP", "ORDER_THRESHOLD", "THETA", "Q_VALUES", "COERCIVITY_SAMPLES",
         "EMBEDDING_SAMPLES", "COERCIVITY_SEED", "EMBEDDING_SEED"),
        analysis,
    ),
    "RESIDUAL_TOL": operators,
    "CHUNK_ROWS": cli,
}


@pytest.mark.parametrize("name", sorted(CONSTANTS))
def test_readme_states_the_constant_in_the_code(name):
    stated = re.findall(rf"`{name} = ([^`]+)`", README)
    assert stated, f"README states no value for {name}"
    value = getattr(CONSTANTS[name], name)
    for text in stated:
        stated_value = ast.literal_eval(text)
        assert (stated_value, type(stated_value)) == (value, type(value)), text


def least_levels(rule) -> int:
    """The fewest strictly increasing levels the rule accepts."""
    return next(n for n in range(10) if rule.holds(list(range(2, 2 + n))))


def test_readme_states_each_studys_least_levels():
    # the grammar block's `# kind: K` line, then its `levels: ... # at least N`
    stated = dict(re.findall(r"# kind: (\w+)[^\n]*\n\s*#\s+levels: [^\n#]*# at least (\d+)", README))
    assert stated.keys() == analysis.LEVELS.keys()
    for kind, rule in analysis.LEVELS.items():
        assert int(stated[kind]) == least_levels(rule), kind


def grammar_keys() -> dict[str, list[str]]:
    """The keys the README's config grammar block names: the top-level keys
    under "config", then the keys of each section and each study kind."""
    block = re.search(r"### Config grammar\n.*?```yaml\n(.*?)```", README, re.S)[1]
    keys: dict[str, list[str]] = {"config": []}
    for line in block.splitlines():
        if top := re.match(r"(\w+):([^#]*)", line):
            keys["config"].append(top[1])
            value = top[2].strip()
            if not value or value.startswith("{"):  # a section, in block or flow style
                section = top[1]
                keys[section] = re.findall(r"(\w+):", value)
        elif kind := re.match(r"  # kind: (\w+)", line):
            section = kind[1]
            keys[section] = []
        elif key := re.match(r"  (?:#   )?(\w+):", line):
            keys[section].append(key[1])
    return keys


def test_readme_grammar_names_the_keys_of_each_table():
    tables = {
        "config": [*cli.TOP, "grid", *cli.SECTIONS, "study"],
        "grid": list(cli.GRID),
        **{name: list(table) for name, table in cli.SECTIONS.items()},
        "study": ["kind"],
        **{kind: list(table) for kind, table in cli.STUDIES.items()},
    }
    stated = grammar_keys()
    assert stated.keys() == tables.keys()
    for name, keys in tables.items():
        assert sorted(stated[name]) == sorted(keys), name
