"""Fast checks of the benchmark itself: it reaches the code it claims (pinned
traced counts), its correctness gate rejects wrong answers that the
program's own certificate accepts, and it refuses to run without the
program's sources.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

SEED = 1


@pytest.fixture(scope="module")
def degenash():
    return bench.load_program()


def traced(degenash, tmp_path_factory, name):
    run_dir = tmp_path_factory.mktemp(name)
    wl = bench.setup(name, SEED, run_dir)
    op_dir = run_dir / "op0"
    _, codes, err, layer = bench.run_traced_op(bench.Tracer(), wl, op_dir, 0)
    assert bench.check_op(wl, op_dir, codes) == [], err
    return wl, op_dir, layer


@pytest.fixture(scope="module")
def nash(degenash, tmp_path_factory):
    return traced(degenash, tmp_path_factory, "nash-128")


def test_nash_128_counts(nash):
    _, _, m = nash
    assert m["operators.forward_solves"] == 487
    assert m["operators.adjoint_solves"] == 36
    assert m["operators.factorizations"] == 1
    assert m["game.cost.calls"] == 450
    assert m["game.gradient.calls"] == 36
    assert m["game.project_ball.calls"] == 76
    assert m["game.project_ball.active_ratio"] == 0.0
    assert m["game.certify.cost_calls"] == 404


def test_tracer_wraps_every_binding_site_and_restores_them(degenash):
    originals = (degenash.cli.nash_solve, degenash.analysis.solve_dirichlet, degenash.nash_solve)
    tracer = bench.Tracer()
    tracer.install()
    try:
        wrapped = (degenash.cli.nash_solve, degenash.analysis.solve_dirichlet, degenash.nash_solve)
        assert all(w is not o and w.__wrapped__ is o for w, o in zip(wrapped, originals))
        assert degenash.game.nash_solve is degenash.cli.nash_solve
        assert degenash.operators.solve_dirichlet is degenash.analysis.solve_dirichlet
    finally:
        tracer.uninstall()
    assert (degenash.cli.nash_solve, degenash.analysis.solve_dirichlet, degenash.nash_solve) == originals


def test_per_layer_metrics_match_benchmark_json(nash):
    _, _, layer = nash
    ops = [{"traced": False, "s": 1.0}, {"traced": True, "s": 1.0, "layer": layer}]
    metrics = bench.trace_metrics(ops, {"workset.unknowns": 1, "workset.field_bytes": 8, "workset.operator_nnz": 1})
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {n: v["unit"] for n, v in metrics.items()}


def test_nash_128_self_times_cover_the_op(nash):
    _, _, m = nash
    layers = sum(m[f"{layer}.self_s"] for layer in bench.LAYERS)
    game_and_solver = m["game.self_s"] + m["operators.self_s"]
    assert game_and_solver > 0.8 * layers


def test_nash_active_128_counts(degenash, tmp_path_factory):
    _, _, m = traced(degenash, tmp_path_factory, "nash-active-128")
    assert m["operators.forward_solves"] == 431
    assert m["operators.adjoint_solves"] == 12
    assert m["game.project_ball.calls"] == 20
    assert m["game.project_ball.active_ratio"] == 1.0


def test_studies_counts(degenash, tmp_path_factory):
    _, _, m = traced(degenash, tmp_path_factory, "studies")
    assert m["operators.factorizations"] == 26
    assert m["norms.norms_of.calls"] == 825
    assert m["norms.embedding_ratio.calls"] == 600
    assert m["game.cost.calls"] == 0


def test_gate_rejects_halved_equilibrium_that_certify_accepts(degenash, nash, tmp_path):
    """Halving f1* leaves a consistent but suboptimal candidate."""
    import numpy as np
    from degenash.game import certify, control_norm, cost
    from degenash.grid import GridFunction

    wl, op_dir, _ = nash
    game = wl.context["game"]
    wrong = tmp_path / "wrong"
    shutil.copytree(op_dir, wrong)
    table = wrong / "game" / "game_fields.tsv"
    cols = bench.read_columns(table)
    f1 = GridFunction(game.grid, 0.5 * np.array(cols["f1"]))
    f2 = GridFunction(game.grid, np.array(cols["f2"]))
    assert certify(game, f1, f2)[0], "certify now rejects the halved candidate; strengthen this test"

    lines = table.read_text().splitlines()
    col = lines[0].split("\t").index("f1")
    for k, value in enumerate(f1.values, start=1):
        row = lines[k].split("\t")
        row[col] = repr(float(value))
        lines[k] = "\t".join(row)
    table.write_text("\n".join(lines) + "\n")
    report_path = wrong / "game" / "report.json"
    report = json.loads(report_path.read_text())
    report["results"].update(
        j1=cost(game, 1, f1, f2), j2=cost(game, 2, f1, f2), f1_norm=control_norm(f1, game.grid.alpha)
    )
    report_path.write_text(json.dumps(report))

    bad = bench.check_op(wl, wrong, [0])
    assert any(b.startswith("j1=") for b in bad), bad
    assert any(b.startswith("f1_norm=") for b in bad), bad


def test_gate_rejects_perturbed_reference(nash):
    wl, op_dir, _ = nash
    perturbed = bench.Workload(**{**vars(wl), "refs": {**wl.refs, "j1": wl.refs["j1"] * (1 + 1e-5)}})
    assert any(b.startswith("j1=") for b in bench.check_op(perturbed, op_dir, [0]))


def test_gate_rejects_broken_residual_contract(degenash, tmp_path):
    wl = bench.setup("solve-512", SEED, tmp_path)
    out = tmp_path / "op" / "solve"
    out.mkdir(parents=True)
    limit = wl.context["tol"] * max(1.0, wl.context["f_norm"])
    results = {"residual_norm": 2 * limit, "norms": {"w11": wl.refs["w11"]}}
    (out / "report.json").write_text(json.dumps({"verdict": "pass", "results": results}))
    bad = bench.check_op(wl, tmp_path / "op", [0])
    assert len(bad) == 1 and bad[0].startswith("residual"), bad


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nash-128", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
