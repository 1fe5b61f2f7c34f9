#!/usr/bin/env python3
"""Benchmark harness for degenash: one workload per process, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The program is imported from
``src/`` of that checkout and driven in process through its CLI entry
point ``degenash.cli.main`` with ``--out`` pointing into ``.perfbench_out/``.
One client runs whole operations back to back; no threads or worker
processes carry load (BLAS is pinned to one thread).  Set-up is timed in
short-lived child processes before the load starts, one at a time.

Each run does a fixed amount of work: ``round(seconds / NOMINAL_OP_S)``
operations (at least two), where NOMINAL_OP_S is the operation's time on
the reference machine.  A run on a faster or slower commit therefore
measures the same operations, so ``wall_s`` compares like with like.
Operation times of the CPU-bound workloads are scaled by SpeedProbe to the
reference machine's speed; README.md gives the reasons and the numbers.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced operations and prints per-layer metrics taken from
spans recorded by wrappers that this file installs around the public
functions of the program's modules.  Every operation's answer is checked
against references.json and the determinism contract; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import inspect
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
OUT = ROOT / ".perfbench_out"
REFERENCES = HERE / "references.json"

# Seconds per operation on the reference machine; sets the fixed work per run.
NOMINAL_OP_S = {"nash-128": 2.6, "nash-active-128": 2.5, "studies": 2.0, "solve-512": 4.0}
SETUP_PROBES = 5
# SpeedProbe seconds on the reference machine in a quiet phase.
CALIBRATION_S = 0.15
# An interpreter that imports a few stdlib modules, started like a set-up
# child; its median start time on the reference machine.
SPAWN_CODE = "import argparse, dataclasses, json, pathlib, re, subprocess, sys, time; print(time.perf_counter() - float(sys.argv[1]))"
SPAWN_S = 0.07
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LAYERS = ("grid", "fields", "operators", "norms", "analysis", "game", "cli")
STUDY_KINDS = ("convergence", "energy", "coercivity", "inclusion", "embedding", "muckenhoupt")
STUDY_FUNCTIONS = {
    "convergence_study", "energy_estimate_study", "coercivity_check",
    "strict_inclusion_demo", "embedding_study", "muckenhoupt_study",
}
REL_TOL = 1e-7  # references are deterministic; this leaves room for BLAS rounding only


class ProgramMissing(RuntimeError):
    """The checkout does not hold the program's sources."""


def load_program():
    """Import degenash from this checkout's src/, never from site-packages."""
    init = SRC / "degenash" / "__init__.py"
    if not init.is_file() or not CONFIGS.is_dir():
        raise ProgramMissing(f"no program sources under {ROOT}: need src/degenash and configs/")
    sys.path.insert(0, str(SRC))
    import degenash
    import degenash.cli

    if Path(degenash.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"degenash was imported from {degenash.__file__}, not {init}")
    return degenash


# ---------------------------------------------------------------------------
# Workloads: inputs, one operation's CLI calls, and the correctness gate.
# ---------------------------------------------------------------------------


@dataclass
class Workload:
    name: str
    calls: list[tuple[str, list[str]]]  # (output subdirectory, argv without --out)
    refs: dict
    context: dict
    field_level: int  # largest grid a field lives on
    operator_level: int  # largest grid an operator is assembled on
    # Scale op times by SpeedProbe.  Off for solve-512: its factorization is
    # bound by memory, the CPU-bound probe does not track its slowdowns, and
    # scaling measured twice the spread of raw times.
    calibrate: bool = True


def program_seed(seed: int) -> int:
    return seed % 2**32  # numpy seeds must be non-negative


def active_game_yaml() -> str:
    """The shipped game with both admissible balls shrunk below the
    unconstrained equilibrium norms (~3e-4), so project_ball binds."""
    text = (CONFIGS / "benchmark_game.yaml").read_text()
    for key in ("m1", "m2"):
        line = f"  {key}: 1.0\n"
        if line not in text:
            raise ValueError(f"configs/benchmark_game.yaml has no line {line.strip()!r}")
        text = text.replace(line, f"  {key}: 1.0e-4\n")
    return text


def setup(name: str, seed: int, run_dir: Path) -> Workload:
    """Parse the configs and generate the inputs of one workload."""
    from degenash import cli, fields, grid

    refs = json.loads(REFERENCES.read_text())[name]
    s = str(program_seed(seed))
    context: dict = {}
    if name in ("nash-128", "nash-active-128"):
        if name == "nash-128":
            config = CONFIGS / "benchmark_game.yaml"
        else:
            config = run_dir / "nash_active.yaml"
            config.write_text(active_game_yaml())
        cfg = cli.parse_config(config.read_text())
        cfg.nx = cfg.ny = 128
        context["game"] = cli.build_game_config(cfg)
        calls = [("game", ["game", "--config", str(config), "--seed", s, "--level-override", "128"])]
        return Workload(name, calls, refs, context, 128, 128)
    if name == "studies":
        calls = [("verify", ["verify", "--config", str(CONFIGS / "verify_weak_form.yaml"), "--seed", s])]
        for kind in STUDY_KINDS:
            calls.append((kind, ["study", "--config", str(CONFIGS / f"study_{kind}.yaml"), "--seed", s]))
        for _, argv in calls:
            cli.parse_config(Path(argv[2]).read_text())
        return Workload(name, calls, refs, context, 256, 128)
    if name == "solve-512":
        config = CONFIGS / "solve_example.yaml"
        cfg = cli.parse_config(config.read_text())
        g = grid.build_grid(512, 512, cfg.alpha)
        f = fields.named_field(g, cfg.solve["f"]["kind"], cfg.solve["f"]["amplitude"])
        context["f_norm"] = math.sqrt(float(f.values @ f.values))
        context["tol"] = cfg.solve["tol"]
        calls = [("solve", ["solve", "--config", str(config), "--seed", s, "--level-override", "512"])]
        return Workload(name, calls, refs, context, 512, 512, calibrate=False)
    raise ValueError(f"unknown workload {name!r}; known: {sorted(NOMINAL_OP_S)}")


def close(value: float, ref: float, rel: float = REL_TOL) -> bool:
    return math.isfinite(value) and abs(value - ref) <= rel * abs(ref)


def read_report(op_dir: Path, sub: str) -> dict:
    return json.loads((op_dir / sub / "report.json").read_text())


def read_columns(path: Path) -> dict[str, list[float]]:
    lines = path.read_text().splitlines()
    header = lines[0].split("\t")
    rows = [line.split("\t") for line in lines[1:]]
    return {h: [float(r[k]) for r in rows] for k, h in enumerate(header)}


def gate_game(wl: Workload, op_dir: Path) -> list[str]:
    """The equilibrium's costs and control norms must match the references,
    and the field table must agree with the report.  certify alone is not
    trusted: it passes suboptimal candidates."""
    import numpy as np
    from degenash.game import control_norm
    from degenash.grid import GridFunction

    bad = []
    res = read_report(op_dir, "game")["results"]
    for flag in ("converged", "certified"):
        if res.get(flag) is not True:
            bad.append(f"{flag} is {res.get(flag)!r}")
    for key in ("j1", "j2", "f1_norm", "f2_norm"):
        if not close(res[key], wl.refs[key]):
            bad.append(f"{key}={res[key]!r}, reference {wl.refs[key]!r}")
    game = wl.context["game"]
    cols = read_columns(op_dir / "game" / "game_fields.tsv")
    for i, m in ((1, game.m1), (2, game.m2)):
        f = GridFunction(game.grid, np.array(cols[f"f{i}"]))
        norm = control_norm(f, game.grid.alpha)
        if not close(norm, res[f"f{i}_norm"], 1e-12):
            bad.append(f"f{i} in game_fields.tsv has norm {norm!r}, report says {res[f'f{i}_norm']!r}")
        if wl.refs.get("ball_active") and not close(norm, m, 1e-12):
            bad.append(f"active ball: ||f{i}|| = {norm!r}, radius {m!r}")
    return bad


def gate_studies(wl: Workload, op_dir: Path) -> list[str]:
    """Verdicts, seed-independent headline metrics against references, and
    seed-dependent ones against bounds that hold for every seed."""
    bad = []
    reports = {sub: read_report(op_dir, sub)["results"] for sub, _ in wl.calls}
    for kind in ("convergence", "energy", "inclusion"):
        for key, ref in wl.refs[kind].items():
            metric, _, index = key.rpartition("@")
            series = reports[kind]["observed_orders"] if metric == "order" else reports[kind]["metrics"][metric]
            if not close(series[int(index)], ref):
                bad.append(f"{kind}.{key}={series[int(index)]!r}, reference {ref!r}")
    verify = reports["verify"]["max_residual_by_level"]
    if not all(math.isfinite(v) and v > 0 for v in verify):
        bad.append(f"verify residuals not finite and positive: {verify!r}")
    co = {k: v[0] for k, v in reports["coercivity"]["metrics"].items()}
    safety = reports["coercivity"]["thresholds"]["safety"]
    # mu_h is safety times a sampled Poincare quotient ||v||^2/||v_x||^2 <= 1/pi^2
    if not (co["violations"] == 0 and co["min_margin"] > 0 and 0 < co["mu_h"] <= 1.05 * safety / math.pi**2):
        bad.append(f"coercivity metrics out of bounds: {co!r}")
    for key, series in reports["embedding"]["metrics"].items():
        if not all(math.isfinite(v) and v > 0 for v in series):
            bad.append(f"embedding {key} not finite and positive: {series!r}")
    mk = read_columns(op_dir / "muckenhoupt" / "study_samples.tsv")
    # A_p constants are >= 1; the constant weight has exactly 1, x^-3 diverges
    c, d = mk["constant"], mk["diverged"]
    if not (abs(c[0] - 1.0) <= 1e-9 and math.isfinite(c[1]) and c[1] >= 1.0 and d == [0.0, 0.0, 1.0]):
        bad.append(f"muckenhoupt panel wrong: constant={c!r} diverged={d!r}")
    return bad


def gate_solve(wl: Workload, op_dir: Path) -> list[str]:
    """Residual contract ||A u - f|| <= tol * max(1, ||f||) and the W11 norm."""
    bad = []
    res = read_report(op_dir, "solve")["results"]
    limit = wl.context["tol"] * max(1.0, wl.context["f_norm"])
    if not res["residual_norm"] <= limit:
        bad.append(f"residual {res['residual_norm']!r} above contract {limit!r}")
    if not close(res["norms"]["w11"], wl.refs["w11"]):
        bad.append(f"w11={res['norms']['w11']!r}, reference {wl.refs['w11']!r}")
    return bad


GATES = {"nash-128": gate_game, "nash-active-128": gate_game, "studies": gate_studies, "solve-512": gate_solve}


def check_op(wl: Workload, op_dir: Path, codes: list[int]) -> list[str]:
    """Every reason this operation failed; empty when its answer is right."""
    bad = [f"{sub}: exit code {c}" for (sub, _), c in zip(wl.calls, codes) if c != 0]
    try:
        for sub, _ in wl.calls:
            verdict = read_report(op_dir, sub)["verdict"]
            if verdict != "pass":
                bad.append(f"{sub}: verdict {verdict!r}")
        bad += GATES[wl.name](wl, op_dir)
    except (OSError, KeyError, IndexError, ValueError, TypeError) as exc:
        bad.append(f"output unreadable: {type(exc).__name__}: {exc}")
    return bad


def table_digest(op_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(op_dir.rglob("*.tsv")):
        h.update(str(path.relative_to(op_dir)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def output_bytes(op_dir: Path) -> int:
    return sum(p.stat().st_size for p in op_dir.rglob("*") if p.is_file())


def run_op(wl: Workload, op_dir: Path) -> tuple[float, list[int], str]:
    """One operation: every CLI call of the workload, back to back."""
    from degenash import cli

    codes = []
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        for sub, argv in wl.calls:
            codes.append(cli.main(argv + ["--out", str(op_dir / sub)]))
        elapsed = time.perf_counter() - start
    return elapsed, codes, err.getvalue()


# ---------------------------------------------------------------------------
# Tracing: spans around every binding site of the public functions.
# ---------------------------------------------------------------------------


class Tracer:
    """Installs and removes span-recording wrappers; keeps spans in memory.

    A span is (name, start, end, parent index, op index).  Self time is a
    span's duration minus the durations of its direct wrapped children.
    """

    def __init__(self):
        self.spans: list = []
        self.child_s: list[float] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.max_rel_residual = 0.0
        self.op = -1
        self._wrappers: dict | None = None
        self._patches: list = []

    def wrap(self, name, fn, hook=None):
        spans, child_s, stack, clock = self.spans, self.child_s, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            child_s.append(0.0)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
                if parent >= 0:
                    child_s[parent] += end - start
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def _build(self):
        from degenash.grid import GridFunction
        from degenash.operators import DirichletSolver

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"degenash.{layer}"]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj, HOOKS.get(f"{layer}.{attr}"))
        methods = [
            (DirichletSolver, "__init__", self.wrap("operators.factor", DirichletSolver.__init__)),
            (DirichletSolver, "solve", self.wrap("operators.forward_solve", DirichletSolver.solve)),
            (DirichletSolver, "solve_adjoint", self.wrap("operators.adjoint_solve", DirichletSolver.solve_adjoint)),
            (GridFunction, "__post_init__", self._counter("grid.gridfunction.constructed", GridFunction.__post_init__)),
        ]
        return wrappers, methods

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        if self._wrappers is None:
            self._wrappers = self._build()
        functions, methods = self._wrappers
        modules = [m for n, m in list(sys.modules.items()) if n == "degenash" or n.startswith("degenash.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in functions:
                    setattr(module, attr, functions[obj])
                    self._patches.append((module, attr, obj))
        for owner, attr, wrapper in methods:
            self._patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _hook_project_ball(tracer, args, kwargs, result):
    import numpy as np

    f, mask = args[0], args[2]
    if not np.array_equal(result.values, np.where(mask.indicator, f.values, 0.0)):
        tracer.counts["game.project_ball.active"] += 1


def _hook_solve_dirichlet(tracer, args, kwargs, result):
    import numpy as np

    f = args[1] if len(args) > 1 else kwargs["f"]
    report = result[1]
    rel = report.residual_norm / max(1.0, float(np.linalg.norm(f.values)))
    tracer.max_rel_residual = max(tracer.max_rel_residual, rel)
    if report.iterations > 0:
        tracer.counts["operators.solve_dirichlet.fallbacks"] += 1


def _hook_nash_solve(tracer, args, kwargs, result):
    tracer.counts["game.nash.sweeps"] += result.br_iterations


HOOKS = {
    "game.project_ball": _hook_project_ball,
    "operators.solve_dirichlet": _hook_solve_dirichlet,
    "game.nash_solve": _hook_nash_solve,
}


def op_layer_metrics(tracer: Tracer, first: int, last: int) -> dict[str, float]:
    """Per-layer metrics of one traced operation from spans[first:last]."""
    spans, child_s = tracer.spans, tracer.child_s
    self_s: Counter = Counter()
    calls: Counter = Counter()
    under: dict[str, Counter] = {"game.certify": Counter(), "game.best_response": Counter()}
    flags: dict[int, set] = {}
    study_of: dict[int, str] = {}
    analysis_s: Counter = Counter()
    for i in range(first, last):
        name, start, end, parent, _ = spans[i]
        own = end - start - child_s[i]
        self_s[name] += own
        calls[name] += 1
        inherited = flags.get(parent, set())
        flags[i] = inherited | ({name} & under.keys())
        for scope in inherited:
            under[scope][name] += 1
        fn = name.partition(".")[2]
        study_of[i] = fn if fn in STUDY_FUNCTIONS else study_of.get(parent)
        if name.startswith("analysis.") and study_of[i]:
            analysis_s[study_of[i]] += own

    def layer_self(layer):
        return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

    def ratio(a, b):
        return a / b if b else 0.0

    derivatives = ("operators.dx", "operators.dy", "operators.dxdy")
    m = {
        "operators.forward_solves": calls["operators.forward_solve"],
        "operators.adjoint_solves": calls["operators.adjoint_solve"],
        "operators.forward_solve.self_s": self_s["operators.forward_solve"],
        "operators.adjoint_solve.self_s": self_s["operators.adjoint_solve"],
        "operators.factorizations": calls["operators.factor"] + calls["operators.solve_dirichlet"],
        "operators.factor.self_s": self_s["operators.factor"],
        "operators.solve_dirichlet.calls": calls["operators.solve_dirichlet"],
        "operators.solve_dirichlet.self_s": self_s["operators.solve_dirichlet"],
        "operators.solve_dirichlet.max_rel_residual": tracer.max_rel_residual,
        "operators.solve_dirichlet.fallbacks": tracer.counts["operators.solve_dirichlet.fallbacks"],
        "operators.assemble.self_s": self_s["operators.assemble"],
        "operators.derivatives.calls": sum(calls[d] for d in derivatives),
        "operators.derivatives.self_s": sum(self_s[d] for d in derivatives),
        "operators.weak_form.self_s": self_s["operators.weak_form_residual"] + self_s["operators.theta_weak_form_residual"],
        "game.certify.self_s": self_s["game.certify"],
        "game.certify.cost_calls": under["game.certify"]["game.cost"],
        "game.certify.forward_solves": under["game.certify"]["operators.forward_solve"],
        "game.best_response.calls": calls["game.best_response"],
        "game.best_response.self_s": self_s["game.best_response"],
        "game.best_response.cost_per_gradient": ratio(
            under["game.best_response"]["game.cost"], under["game.best_response"]["game.gradient"]
        ),
        "game.cost.calls": calls["game.cost"],
        "game.cost.self_s": self_s["game.cost"],
        "game.gradient.calls": calls["game.gradient"],
        "game.gradient.self_s": self_s["game.gradient"],
        "game.state_solve.calls": calls["game.state_solve"],
        "game.nash.sweeps": tracer.counts["game.nash.sweeps"],
        "game.project_ball.calls": calls["game.project_ball"],
        "game.project_ball.active_ratio": ratio(tracer.counts["game.project_ball.active"], calls["game.project_ball"]),
        "grid.gridfunction.constructed": tracer.counts["grid.gridfunction.constructed"],
        "grid.weighted_inner.calls": calls["grid.weighted_inner"],
        "grid.weighted_inner.self_s": self_s["grid.weighted_inner"],
        "norms.norms_of.calls": calls["norms.norms_of"],
        "norms.norms_of.self_s": self_s["norms.norms_of"],
        "norms.embedding_ratio.calls": calls["norms.embedding_ratio"],
        "norms.lq_norm.self_s": self_s["norms.lq_norm"],
        "norms.muckenhoupt_ap.self_s": self_s["norms.muckenhoupt_ap"],
        "fields.bump_from_parameters.calls": calls["fields.bump_from_parameters"],
        "cli.parse_config.self_s": self_s["cli.parse_config"],
        "cli.run.self_s": self_s["cli.run"],
        "trace.spans": last - first,
    }
    for study in sorted(STUDY_FUNCTIONS):
        m[f"analysis.{study}.self_s"] = analysis_s[study]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self(layer)
    return m


def run_traced_op(tracer: Tracer, wl: Workload, op_dir: Path, k: int):
    """One operation with the wrappers installed; returns its layer metrics too."""
    first = len(tracer.spans)
    tracer.op, tracer.max_rel_residual = k, 0.0
    tracer.counts.clear()
    tracer.install()
    try:
        elapsed, codes, err = run_op(wl, op_dir)
    finally:
        tracer.uninstall()
    layer = op_layer_metrics(tracer, first, len(tracer.spans))
    layer["cli.output_bytes"] = output_bytes(op_dir)
    return elapsed, codes, err, layer


# ---------------------------------------------------------------------------
# Machine and working-set record.
# ---------------------------------------------------------------------------


def cache_sizes() -> dict[str, int]:
    """Unified L2 and L3 sizes in bytes, read from /sys (read-only)."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Unified" and size.endswith("K"):
            out[f"L{level}_bytes"] = int(size[:-1]) * 1024
    return out


def machine_record() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ.get(v) for v in THREAD_ENV},
        **cache_sizes(),
    }


def working_set(wl: Workload) -> dict[str, int]:
    """Computed, not measured: unknowns x 8 B per field and the operator's nnz."""
    from degenash.operators import assemble
    from degenash.grid import build_grid

    unknowns = wl.field_level**2
    op = assemble(build_grid(wl.operator_level, wl.operator_level, 0.5))
    return {
        "workset.unknowns": unknowns,
        "workset.field_bytes": unknowns * 8,
        "workset.operator_nnz": int(op.matrix.nnz),
    }


# ---------------------------------------------------------------------------
# Running a workload.
# ---------------------------------------------------------------------------


def child_s(args: list[str]) -> float:
    """Seconds from spawning ``python args <now>`` until the child prints how
    long it took to get ready, read on the shared monotonic clock."""
    cmd = [sys.executable, *args, repr(time.perf_counter())]
    proc = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120, cwd=ROOT)
    return float(proc.stdout.split()[-1])


def setup_times(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up children, each between two bare interpreter starts.

    Set-up time does not follow SpeedProbe (correlation 0.09 over 30 runs)
    but does follow how long the host takes to start an interpreter
    (correlation 0.71): scaled by SPAWN_CODE's start time, its spread over
    30 children fell from 18 % to 7 %.  The bare start runs no program code.
    """
    probe = [str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    bare = ["-c", SPAWN_CODE]
    setups, spawns = [], [child_s(bare)]
    for _ in range(SETUP_PROBES):
        setups.append(child_s(probe))
        spawns.append(child_s(bare))
    return setups, spawns


class SpeedProbe:
    """Fixed CPU-bound work, independent of degenash, whose time tracks how
    fast the machine runs at the moment.

    The reference machine shares its host: the same nash-128 operation takes
    from 1.2 s to 3 s depending on other tenants, in phases lasting from
    seconds to minutes, so medians of raw times differ by a fifth to a third
    between runs.  A probe runs before the first and after every timed
    operation, and each operation is scaled by CALIBRATION_S over the mean of
    its two probes: times are reported in seconds at the reference machine's
    speed.  The probe mixes, in about equal time, the kinds of work the
    program does: sparse LU triangular solves, a small sparse factorization,
    elementwise numpy on grid-sized vectors and on small arrays, an
    interpreted loop, and float formatting as in the TSV tables.
    """

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        def upwind(n):
            h = 1.0 / (n + 1)
            d2 = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]) / (2 * h * h)
            d1 = sp.diags([-np.ones(n - 1), np.ones(n)], [-1, 0]) / h
            x = np.arange(1, n + 1) * h
            return (sp.kron(d2, sp.identity(n)) + sp.kron(sp.diags(np.sqrt(x)), d1)).tocsc()

        self._np, self._splu = np, spla.splu
        self._lu = spla.splu(upwind(128))
        self._small_matrix = upwind(80)
        self._rhs = np.sin(np.arange(128 * 128, dtype=float))
        self._vectors = [np.cos(np.arange(128 * 128, dtype=float) + k) for k in range(3)]
        self._cells = [np.cos(np.arange(65 * 65, dtype=float) + k) for k in range(3)]
        self._floats = [float(v) for v in np.sin(np.arange(10000, dtype=float))]

    def __call__(self) -> float:
        np = self._np
        start = time.perf_counter()
        v = self._rhs
        for _ in range(7):
            v = self._lu.solve(v)
            v = v / np.linalg.norm(v)
        self._splu(self._small_matrix)
        a, b, c = self._vectors
        for _ in range(350):
            float(np.sum(np.where(a > 0, a * b - c, 0.0) ** 2))
        a, b, c = self._cells
        for _ in range(900):
            float(np.sum(np.exp(-(a * b) ** 2) * c))
        total = 0
        for i in range(375000):
            total += i & 7
        "\n".join(f"{k}\t{x!r}" for k, x in enumerate(self._floats))
        return time.perf_counter() - start


def calibrated(intervals: list[float], probes: list[float], reference: float) -> list[float]:
    """Interval k scaled by reference / mean(probe k, probe k+1)."""
    return [t * reference * 2.0 / (a + b) for t, a, b in zip(intervals, probes, probes[1:])]


def n_ops(workload: str, seconds: float) -> int:
    return max(2, round(seconds / NOMINAL_OP_S[workload]))


def metric(value, unit):
    return {"value": value, "unit": unit}


UNIT_SUFFIXES = {"_s": "s", "bytes": "B", "_ratio": "ratio", "cost_per_gradient": "ratio", "max_rel_residual": "ratio"}


def unit_of(name: str) -> str:
    for suffix, unit in UNIT_SUFFIXES.items():
        if name.endswith(suffix):
            return unit
    return "count"


def counts_of(layer: dict) -> dict:
    return {n: v for n, v in layer.items() if unit_of(n) == "count"}


def trace_metrics(ops: list[dict], working: dict) -> dict:
    """Per-layer metrics: counts of the first traced op (all traced ops must
    agree), median self times, and the tracing overhead, i.e. the traced
    ops' wall time minus that of as many untraced ops."""
    traced = [op for op in ops if op["traced"]]
    untraced = [op for op in ops if not op["traced"]]
    metrics = {}
    for name in traced[0]["layer"]:
        values = [op["layer"][name] for op in traced]
        unit = unit_of(name)
        metrics[name] = metric(values[0] if unit == "count" else statistics.median(values), unit)
    metrics["trace.op_s"] = metric(statistics.median(op["s"] for op in traced), "s")
    metrics["trace.overhead_s"] = metric(sum(op["s"] for op in traced) - sum(op["s"] for op in untraced), "s")
    for name, value in working.items():
        metrics[name] = metric(value, unit_of(name))
    return metrics


def execute(args) -> dict:
    load_program()
    run_dir = OUT / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    setup_raw, spawns = ([], []) if args.trace else setup_times(args.workload, args.seed)
    wl = setup(args.workload, args.seed, run_dir)
    speed = SpeedProbe() if wl.calibrate and not args.trace else None
    record = {"workload": wl.name, "machine": machine_record(), "working_set_computed": working_set(wl)}
    print("machine: " + json.dumps(record, sort_keys=True))

    count = n_ops(wl.name, args.seconds)
    tracer = Tracer() if args.trace else None
    # trace mode alternates untraced and traced ops, starting untraced, at least two of each
    plan = [k % 2 == 1 for k in range(2 * max(2, count // 2))] if args.trace else [False] * count
    ops = []
    op_speed = [speed()] if speed else []
    for k, traced in enumerate(plan):
        op_dir = run_dir / "ops" / f"op{k}"
        if traced:
            elapsed, codes, err, layer = run_traced_op(tracer, wl, op_dir, k)
        else:
            (elapsed, codes, err), layer = run_op(wl, op_dir), None
        ops.append({"dir": op_dir, "s": elapsed, "codes": codes, "err": err, "traced": traced, "layer": layer})
        if speed:
            op_speed.append(speed())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = 0
    first_digest = table_digest(ops[0]["dir"])
    first_counts = next((counts_of(op["layer"]) for op in ops if op["traced"]), None)
    for k, op in enumerate(ops):
        bad = check_op(wl, op["dir"], op["codes"])
        if table_digest(op["dir"]) != first_digest:
            bad.append("TSV tables differ from op 0 (determinism)")
        if op["traced"] and counts_of(op["layer"]) != first_counts:
            diff = {n: (first_counts[n], v) for n, v in counts_of(op["layer"]).items() if first_counts[n] != v}
            bad.append(f"traced counts differ from the first traced op: {diff}")
        if bad:
            failed += 1
            print(f"op {k} FAILED: " + "; ".join(bad) + (f" | stderr: {op['err'].strip()}" if op["err"] else ""))
    shutil.rmtree(run_dir / "ops" if args.trace else run_dir, ignore_errors=True)

    op_times = [op["s"] for op in ops if not op["traced"]]
    print(f"summary: workload={wl.name} seed={args.seed} ops={len(ops)} failed={failed} "
          f"failed_frac={failed / len(ops):.3f} raw_op_s={[round(t, 3) for t in op_times]}")
    if args.trace:
        metrics = trace_metrics(ops, record["working_set_computed"])
        (run_dir / "spans.json").write_text(json.dumps({"record": record, "spans": tracer.spans}))
    else:
        op_s = calibrated(op_times, op_speed, CALIBRATION_S) if speed else op_times
        setup_s = calibrated(setup_raw, spawns, SPAWN_S)
        print(f"reported: op_s={[round(t, 3) for t in op_s]} setup_s={[round(t, 3) for t in setup_s]} "
              f"raw_setup_s={[round(t, 3) for t in setup_raw]} spawn_s={[round(t, 4) for t in spawns]} "
              f"speed_probe_s={[round(t, 4) for t in op_speed]}")
        metrics = {
            "setup_s": metric(statistics.median(setup_s), "s"),
            "op_s_p50": metric(statistics.median(op_s), "s"),
            "wall_s": metric(sum(op_s), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_OP_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for var in THREAD_ENV:
        os.environ.setdefault(var, "1")
    try:
        if args.setup_probe is not None:  # the parent's clock reading at spawn
            load_program()
            run_dir = OUT / args.workload
            run_dir.mkdir(parents=True, exist_ok=True)
            setup(args.workload, args.seed, run_dir)
            print(repr(time.perf_counter() - args.setup_probe))
            return 0
        result = execute(args)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
