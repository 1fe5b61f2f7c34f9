"""The CI workflow gates every benchmark workload, pins the numpy and
scipy series and runs on the Python the golden table digests were
recorded on, and its lowest Python is the package's floor.  Its installed
package loads no scipy.linalg at import, and its console script runs a
solve, the game twice, a study, the coercivity study and verify under
two seeds each, and the embedding study twice, and it checks, before any test, that PyYAML has the libyaml
loader the CLI reads configs with, and, after every step, that the
checkout is as it was.  Its token may only read the repository's
contents."""

import json
import re
import tomllib
from pathlib import Path

import yaml

from test_golden_tables import RECORDED_WITH

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
JOB = WORKFLOW["jobs"]["tests"]


def test_workflow_token_only_reads_the_contents():
    # the job reads the checkout and writes nothing back to the repository
    assert WORKFLOW["permissions"] == {"contents": "read"}
    assert "permissions" not in JOB


def test_benchmark_gate_loops_over_exactly_the_benchmark_workloads():
    (gate,) = [step["run"] for step in JOB["steps"] if step.get("name", "").startswith("Benchmark gate")]
    looped = re.search(r"for workload in ([^;]+);", gate)[1].split()
    declared = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert sorted(looped) == sorted(declared)


def test_matrix_runs_the_python_the_golden_digests_were_recorded_on():
    # tests/test_golden_tables.py's digests were recorded on Python 3.11
    assert "3.11" in JOB["strategy"]["matrix"]["python-version"]


def test_lowest_matrix_python_is_the_requires_python_floor():
    floor = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["requires-python"]
    lowest = min(JOB["strategy"]["matrix"]["python-version"], key=lambda v: tuple(map(int, v.split("."))))
    assert floor == f">={lowest}"


def test_install_step_pins_the_series_the_golden_digests_were_recorded_with():
    (install,) = [step["run"] for step in JOB["steps"] if step.get("name") == "Install dependencies"]
    pins = dict(re.findall(r"\b(numpy|scipy)==([\d.]+)\.\*", install))
    assert pins == RECORDED_WITH


def test_console_script_step_runs_the_solve_game_study_and_verify_verbs():
    # the installed entry point reaches a study verdict, also of the
    # coercivity study, whose section holds only its kind, and the
    # weak-form check; no run reads a seed, so each table is the same
    # under two seeds
    (step,) = [step["run"] for step in JOB["steps"] if step.get("name") == "Console script"]
    verbs = re.findall(r"^degenash (\w+) --config configs/\S+\.yaml", step, re.M)
    assert verbs == ["solve", "game", "game", "study", "study", "study", "study", "study", "verify", "verify"]
    coercivity = "degenash study --config configs/study_coercivity.yaml --level-override 16"
    assert (
        f"\n{coercivity} --seed 1 --out out/c1\n{coercivity} --seed 2 --out out/c2\n"
        "cmp out/c1/study_samples.tsv out/c2/study_samples.tsv\n"
    ) in step
    verify = "degenash verify --config configs/verify_weak_form.yaml"
    assert f"{verify} --seed 1 --out v1\n{verify} --seed 2 --out v2\n" in step
    assert step.rstrip().splitlines()[-1] == "cmp v1/verify_residuals.tsv v2/verify_residuals.tsv"


def test_console_script_step_writes_the_same_embedding_table_twice():
    # the installed embedding study, its bumps' factors formed in chunks,
    # writes a byte-identical table in two runs
    (step,) = [step["run"] for step in JOB["steps"] if step.get("name") == "Console script"]
    embedding = "degenash study --config configs/study_embedding.yaml"
    assert (
        f"\n{embedding} --out out/e1\n{embedding} --out out/e2\n"
        "cmp out/e1/study_levels.tsv out/e2/study_levels.tsv\n"
    ) in step


def test_console_script_step_writes_the_same_game_table_twice():
    # the installed game's table, grid columns rendered once per column,
    # is byte-identical in two runs
    (step,) = [step["run"] for step in JOB["steps"] if step.get("name") == "Console script"]
    game = "degenash game --config configs/benchmark_game.yaml --level-override 16"
    assert f"\n{game} --out out/g1\n{game} --out out/g2\ncmp out/g1/game_fields.tsv out/g2/game_fields.tsv\n" in step


def test_installed_package_is_imported_without_scipy_linalg_right_after_its_install():
    # the march's direct _flapack load, checked from the installed package
    # on each matrix Python, not only from src/
    (step,) = [step["run"] for step in JOB["steps"] if step.get("name") == "Console script"]
    lines = step.splitlines()
    check = lines[lines.index("python -m pip install .") + 1]
    assert check == 'python -c "import sys, degenash.cli; assert \'scipy.linalg\' not in sys.modules"'


def test_libyaml_is_asserted_right_after_the_install_step():
    names = [step.get("name") for step in JOB["steps"]]
    check = JOB["steps"][names.index("Install dependencies") + 1]
    assert check["name"] == "PyYAML has libyaml"
    assert re.fullmatch(r'python -c "import yaml; assert yaml\.__with_libyaml__\b[^"]*"', check["run"].strip())


def test_last_step_fails_on_any_change_to_the_checkout():
    # a tracked file changed or an unignored file written by any step
    last = JOB["steps"][-1]["run"].strip().splitlines()[-1]
    assert last == 'test -z "$(git status --porcelain --untracked-files=all)"'
