#!/usr/bin/env python3
"""Run every shipped study config and print one verdict line per study."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# run from a source checkout without installing, as pytest does via pyproject.toml
sys.path.insert(0, str(ROOT / "src"))

from degenash.cli import main  # noqa: E402

STUDIES = [
    "study_convergence.yaml",
    "study_energy.yaml",
    "study_coercivity.yaml",
    "study_inclusion.yaml",
    "study_embedding.yaml",
    "study_muckenhoupt.yaml",
]

if __name__ == "__main__":
    worst = 0
    for name in STUDIES:
        code = main(["study", "--config", str(ROOT / "configs" / name)])
        worst = max(worst, code)
    sys.exit(worst)
