#!/usr/bin/env python3
"""Run every shipped study config and print one verdict line per study."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# run from a source checkout without installing, as pytest does via pyproject.toml
sys.path.insert(0, str(ROOT / "src"))

from degenash.cli import main  # noqa: E402

if __name__ == "__main__":
    worst = 0
    for config in sorted((ROOT / "configs").glob("study_*.yaml")):
        worst = max(worst, main(["study", "--config", str(config)]))
    sys.exit(worst)
