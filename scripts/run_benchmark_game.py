#!/usr/bin/env python3
"""Run the shipped Stackelberg-Nash benchmark and print the equilibrium summary."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# run from a source checkout without installing, as pytest does via pyproject.toml
sys.path.insert(0, str(ROOT / "src"))

from degenash.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["game", "--config", str(ROOT / "configs" / "benchmark_game.yaml")]))
