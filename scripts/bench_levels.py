#!/usr/bin/env python3
"""Time each shipped config and nash_solve across grid levels, with the solve
counts beside the times, and run perfbench in alternating pairs of two trees.

    python3 scripts/bench_levels.py levels [--levels 64 128 256 512] [--repeats 3]
                                           [--targets NAME ...] [--out BENCH_levels.json]
    python3 scripts/bench_levels.py pairs --base DIR [--tree DIR] --workload NAME
                                          [--pairs 10] [--seconds 20] [--seed 501] --label LABEL

``levels`` runs every configs/*.yaml through degenash.cli.main at
``--level-override L`` and nash_solve directly on the shipped game at L x L.
A run's row holds the median wall time of its repeats, its exit code and
its calls of DirichletSolver.solve and solve_adjoint, solve_dirichlet, cost
and gradient, and its runs of the difference and cell-average kernels,
counted by counting() in one more run made for counting only,
in which the rows the solver's forward and adjoint solves march (their
dpttrs calls) are counted and the time in certify is taken.  The tests read
counting() too and pin its counts (tests/test_game.py::TestSolveCounts).
Run as a script, it sets one BLAS thread, as perfbench/run.py does; an
import leaves the environment as it is.  The start of a process that
imports degenash.cli is a row of its own.  The commit, the sha256 of the
src/ files (src_digest), which names the code of an uncommitted tree, and
the numpy and scipy versions head the file.  A levels run times one tree
in one process, in whatever phase the host is in, so two levels files taken apart compare host phases, not
trees: nash_solve at 64 x 64 read 94.0 ms in BENCH_levels_d572267.json
and 54.8 ms in BENCH_levels.json on the same game code.  A pairs run, which alternates
the two trees, is the before-and-after evidence for a change.

``pairs`` runs the unchanged perfbench/run.py of the base tree and of this
tree (or --tree) in alternating order, the same seed for both runs of a
pair and the next seed for the next pair, and writes each run's raw and
reported op_s samples and end-to-end metrics to BENCH_pairs_<label>.json.
Next to each tree's commit it records a sha256 of the tree's src/ files
(src_digest), which names the code even where the commit reads null or
-dirty.

Both files are data, not gates: the script reads no reference and decides
nothing.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# run from a source checkout without installing, as pytest does via pyproject.toml
sys.path.insert(0, str(ROOT / "src"))
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":  # before numpy loads its BLAS
    for _var in THREAD_ENV:
        os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from degenash import cli, game, grid, operators  # noqa: E402

END_TO_END = ("setup_s", "op_s_p50", "wall_s", "peak_rss_mb")
COUNTS = ("forward_solves", "adjoint_solves", "one_shot_solves", "cost_calls", "gradient_calls",
          "certify_forward_solves", "certify_cost_calls", "forward_rows", "adjoint_rows",
          "difference_runs", "cell_average_runs")


def commit(tree: Path) -> str | None:
    """The tree's short commit, with -dirty when tracked files differ from it."""
    try:
        head = subprocess.run(["git", "-C", str(tree), "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(tree), "status", "--porcelain", "--untracked-files=no"],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + ("-dirty" if dirty else "")


def src_digest(tree: Path) -> str:
    """sha256 of the tree's src/ files: each relative path, sorted, and its
    bytes, skipping __pycache__; it names the code compared where the
    commit cannot (a base copied outside git, or an uncommitted tree)."""
    src = tree / "src"
    digest = hashlib.sha256()
    for path in sorted(p.relative_to(src).as_posix() for p in src.rglob("*")
                       if p.is_file() and "__pycache__" not in p.relative_to(src).parts):
        digest.update(path.encode() + b"\0" + (src / path).read_bytes() + b"\0")
    return digest.hexdigest()


@contextlib.contextmanager
def counting():
    """Count solves, game calls and the runs of the two field kernels,
    operators._diff_along (difference_runs) and grid._cell_sums
    (cell_average_runs), at every binding site in degenash; certify_*
    counts those made inside certify, whose time goes to certify_s, and
    *_rows the dpttrs calls made inside a solver's solves."""
    counts, certifying, marching = Counter(), [], []

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            if certifying:
                counts[f"certify_{name}"] += 1
            return fn(*args, **kwargs)
        return call

    def rows_of(name, fn):
        def call(*args, **kwargs):
            marching.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                marching.pop()
        return call

    def dpttrs(*args):
        if marching:
            counts[marching[-1]] += 1
        return operators_dpttrs(*args)

    def certify(*args):
        certifying.append(True)
        start = time.perf_counter()
        try:
            return original_certify(*args)
        finally:
            counts["certify_s"] += time.perf_counter() - start
            certifying.pop()

    original_certify, operators_dpttrs = game.certify, operators.dpttrs
    functions = {
        operators.solve_dirichlet: counted("one_shot_solves", operators.solve_dirichlet),
        game.cost: counted("cost_calls", game.cost),
        game.gradient: counted("gradient_calls", game.gradient),
        game.certify: certify,
        operators._diff_along: counted("difference_runs", operators._diff_along),
        grid._cell_sums: counted("cell_average_runs", grid._cell_sums),
    }
    solver = operators.DirichletSolver
    patches = [(solver, "solve", rows_of("forward_rows", counted("forward_solves", solver.solve))),
               (solver, "solve_adjoint", rows_of("adjoint_rows", counted("adjoint_solves", solver.solve_adjoint))),
               (operators, "dpttrs", dpttrs)]
    for module in [m for n, m in sys.modules.items() if n == "degenash" or n.startswith("degenash.")]:
        patches += [(module, attr, functions[obj]) for attr, obj in vars(module).items()
                    if callable(obj) and obj in functions]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    for owner, attr, wrapper in patches:
        setattr(owner, attr, wrapper)
    try:
        yield counts
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def run_cli(argv: list[str]) -> tuple[int, str | None]:
    """cli.main(argv) into a fresh output directory: its exit code and the
    first line it wrote to stderr."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--out", out])
    return code, (err.getvalue().splitlines() or [None])[0]


def run_nash(text: str, level: int) -> tuple[int, str | None]:
    """nash_solve on the config's game at level x level; the game, and so
    its factorization, is new on every call."""
    cfg = cli.parse_config(text)
    cfg.nx = cfg.ny = level
    try:
        game.nash_solve(cli.build_game_config(cfg))
    except Exception as exc:  # a row records the failure, it does not stop the sweep
        return 1, f"{type(exc).__name__}: {exc}"
    return 0, None


def measure(kind: str, target: str, level: int, call, repeats: int) -> dict:
    """One row: call() once under counting(), then `repeats` timed calls."""
    with counting() as counts:
        code, error = call()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    certify_s = counts.pop("certify_s", 0.0)
    return {
        "kind": kind, "target": target, "level": level, "exit_code": code, "error": error,
        "wall_s": statistics.median(samples), "samples_s": samples,
        "counts": {name: counts[name] for name in sorted(COUNTS)}, "certify_s": certify_s,
    }


def import_row(code: str, target: str, repeats: int) -> dict:
    """Median wall time of `python -c code` in a new process."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    samples, status = [], 0
    for _ in range(repeats):
        start = time.perf_counter()
        status = max(status, subprocess.run([sys.executable, "-c", code], env=env).returncode)
        samples.append(time.perf_counter() - start)
    return {"kind": "import", "target": target, "level": None, "exit_code": status, "error": None,
            "wall_s": statistics.median(samples), "samples_s": samples}


def levels_mode(args) -> dict:
    configs = {p.stem: p for p in sorted((ROOT / "configs").glob("*.yaml"))}
    targets = args.targets or [*configs, "nash_solve"]
    unknown = set(targets) - {*configs, "nash_solve"}
    if unknown:
        raise SystemExit(f"unknown targets {sorted(unknown)}; known: {[*configs, 'nash_solve']}")
    rows = [import_row("pass", "python", args.repeats), import_row("import degenash.cli", "degenash.cli", args.repeats)]
    game_text = configs["benchmark_game"].read_text()
    for level in args.levels:
        for target in targets:
            if target == "nash_solve":
                row = measure("nash_solve", "benchmark_game", level, lambda: run_nash(game_text, level), args.repeats)
            else:
                verb = re.search(r"^command: *(\w+)", configs[target].read_text(), re.M)[1]
                argv = [verb, "--config", str(configs[target]), "--level-override", str(level)]
                row = measure("cli", target, level, lambda: run_cli(argv), args.repeats)
            rows.append(row)
            print(f"{target} @ {level}: exit {row['exit_code']}, {row['wall_s']:.4f} s", file=sys.stderr)
    return {
        "commit": commit(ROOT), "src_sha256": src_digest(ROOT), "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(), "cpus": os.cpu_count(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_ENV}, "repeats": args.repeats, "rows": rows,
    }


def perfbench_run(tree: Path, args, seed: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}

    def samples(pattern):
        found = re.search(pattern, proc.stdout, re.M)
        return ast.literal_eval(found[1]) if found else None

    return {
        "seed": seed, "returncode": proc.returncode, "correct": result.get("correct"),
        "op_s": samples(r"^reported: op_s=(\[[^\]]*\])"), "raw_op_s": samples(r"raw_op_s=(\[[^\]]*\])"),
        "metrics": {m: result.get("metrics", {}).get(m, {}).get("value") for m in END_TO_END},
    }


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def pairs_mode(args) -> dict:
    trees = {"base": args.base.resolve(), "tree": args.tree.resolve()}
    pairs = []
    for k in range(args.pairs):
        seed = args.seed + k
        order = ["base", "tree"] if k % 2 == 0 else ["tree", "base"]
        runs = {side: perfbench_run(trees[side], args, seed) for side in order}
        pairs.append({"order": order, **runs})
        summary = ", ".join(f"{side} {runs[side]['metrics']['op_s_p50']}" for side in order)
        print(f"pair {k} (seed {seed}): op_s_p50 {summary}", file=sys.stderr)
    summary = {}
    for m in END_TO_END:
        values = {side: [p[side]["metrics"][m] for p in pairs] for side in trees}
        if any(v is None for side in trees for v in values[side]):
            continue
        summary[m] = {
            **{f"{side}_quartiles": quartiles(values[side]) for side in trees},
            "tree_lower_in_pairs": sum(t < b for b, t in zip(values["base"], values["tree"])),
        }
    return {
        "workload": args.workload, "seconds": args.seconds, "first_seed": args.seed,
        "base_commit": commit(trees["base"]), "base_src_sha256": src_digest(trees["base"]),
        "tree_commit": commit(trees["tree"]), "tree_src_sha256": src_digest(trees["tree"]),
        "pairs": pairs, "summary": summary,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    lv = sub.add_parser("levels", help="time each shipped config and nash_solve per level")
    lv.add_argument("--levels", type=int, nargs="+", default=[64, 128, 256, 512])
    lv.add_argument("--repeats", type=int, default=3, help="timed runs per row; the median is reported")
    lv.add_argument("--targets", nargs="+", help="config stems and/or nash_solve (default: all)")
    lv.add_argument("--out", type=Path, default=ROOT / "BENCH_levels.json")
    pr = sub.add_parser("pairs", help="run perfbench/run.py in alternating pairs of two trees")
    pr.add_argument("--base", type=Path, required=True, help="root of the checkout compared against")
    pr.add_argument("--tree", type=Path, default=ROOT, help="root of the checkout measured (default: this one)")
    pr.add_argument("--workload", required=True)
    pr.add_argument("--pairs", type=int, default=10)
    pr.add_argument("--seconds", type=float, default=20.0)
    pr.add_argument("--seed", type=int, default=501, help="seed of the first pair; pair k runs seed + k")
    pr.add_argument("--label", required=True)
    pr.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    if args.mode == "levels":
        record, out = levels_mode(args), args.out
    else:
        record, out = pairs_mode(args), args.out_dir / f"BENCH_pairs_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
