import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import degenash.norms as norms_mod
from degenash.cli import build_game_config, parse_config
from degenash.grid import GridFunction, build_grid

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


@pytest.fixture
def small_grid():
    return build_grid(12, 12, 0.5)


def random_field(grid, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return GridFunction(grid, scale * rng.standard_normal(grid.n))


def shipped_game(n=None, ny=None, **game):
    """The game of configs/benchmark_game.yaml, built as the CLI builds it,
    on an n x n grid, or n x ny given ny, with the given game keys (None
    keeps the config's value)."""
    cfg = parse_config((CONFIG_DIR / "benchmark_game.yaml").read_text())
    if n is not None:
        cfg.nx = cfg.ny = n
    if ny is not None:
        cfg.ny = ny
    cfg.game.update(game)
    return build_game_config(cfg)


def load_script(name):
    """scripts/<name>.py, imported as a module by its file location."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def peak_bytes(fn):
    """Peak traced allocation of fn(), after a first call fills the
    per-grid caches."""
    fn()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def half_disk_constant(monkeypatch, r, e):
    """The A_2 constant muckenhoupt_panel reads for x**e when its one ball
    is the half-disk B((0, 0.5), r) cap Omega."""
    ball = (np.array([0.0]), np.array([0.5]), np.array([r]))
    monkeypatch.setattr(norms_mod, "_lattice", lambda: ball)
    return norms_mod.muckenhoupt_panel((e,))[0].constant


def half_disk_closed_form(e):
    """avg(x**e) * avg(x**-e) on every half-disk B((0, 0.5), r), r < 1/2:
    B((1+e)/2, 3/2) * B((1-e)/2, 3/2) / (pi/2)**2, for |e| < 1."""
    beta = lambda a, b: math.gamma(a) * math.gamma(b) / math.gamma(a + b)
    return beta((1 + e) / 2, 1.5) * beta((1 - e) / 2, 1.5) / (math.pi / 2) ** 2
