import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from degenash.cli import build_game_config, parse_config
from degenash.grid import GridFunction, build_grid

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture
def small_grid():
    return build_grid(12, 12, 0.5)


def random_field(grid, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return GridFunction(grid, scale * rng.standard_normal(grid.n))


def shipped_game(n=None, seed=None, **game):
    """The game of configs/benchmark_game.yaml, built as the CLI builds it,
    on an n x n grid with the given seed and game keys (None keeps the
    config's value)."""
    cfg = parse_config((CONFIG_DIR / "benchmark_game.yaml").read_text())
    if n is not None:
        cfg.nx = cfg.ny = n
    if seed is not None:
        cfg.seed = seed
    cfg.game.update(game)
    return build_game_config(cfg)


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
