"""Byte-identical tables (acceptance criterion 10 across changes).

Every shipped config runs through the CLI at its own seed, as shipped,
except the game, which runs at --level-override 24 to keep the test
short.  The sha256 of every TSV it writes must equal the digest recorded
here.  The digests were recorded with numpy 2.4 and scipy 1.17 on
x86-64; a change that moves one of them changes a shipped result and
must say why.
"""

import hashlib

import pytest
import yaml

from conftest import CONFIG_DIR
from degenash.cli import main

GAME_LEVEL = 24

DIGESTS = {
    "benchmark_game": {
        "game_fields.tsv": "fc93b5861bac16faffe18adfeb735f70b6983cd7a87f9f1085a907c5ef4c8606",
        "game_residuals.tsv": "06097f504632cab90d64c1d216971e49e87f2dc7985ac36cf041983c9b204ff9",
    },
    "solve_example": {
        "solve_norms.tsv": "523ef140ccee41914bb14cd1a411ce8ab529fffe46bf591f76adf1c485c47369",
    },
    "study_coercivity": {
        "study_levels.tsv": "e2ee9731e410cb2fab42c9184ec8e8095958f27643618a63b765573359f9d362",
        "study_samples.tsv": "ad6122e80e5402964ca3cd21fe7fcd9e9c4b2144b7f56de696e77d07f53e5459",
    },
    "study_convergence": {
        "study_levels.tsv": "30f55fe3db805e12583fce772b167b294f7753c49b3093bb592e61888ce925db",
        "study_orders.tsv": "6efc6298b4d1c330e9d8e315aff16e6438f87acd5b3665669ec5bee0ae436472",
        "study_samples.tsv": "7f633497dd7b80457bd088ec1b43bca3bd1e882d7afdcf7ae280e0ed4933b433",
    },
    "study_embedding": {
        "study_levels.tsv": "8ec2793ec0bb4a3068ed54fd251f78964c25c8973b23d7adf6cf9864e9fa1723",
    },
    "study_energy": {
        "study_levels.tsv": "68263ae2afd1aadbd0e000611526101722e084059d07e091fe4bb1b9b09eb01e",
    },
    "study_inclusion": {
        "study_levels.tsv": "804b9e2dcb224712eb299db157f47a06e619d9a8ec6c379ef541192554141839",
    },
    "study_muckenhoupt": {
        "study_levels.tsv": "7174cd6112d2742641c8ff101da2c08fcc940269a4823a4bf461a98a0867246f",
        "study_samples.tsv": "239d5db34f5882c0b4dc66aeca7b84f48be42cd8038744b5611eb754f9dc0ab2",
    },
    "verify_weak_form": {
        "verify_residuals.tsv": "7be5b8ea2338d9837d81ebb70bcbfd3d7afb5dbcf19db8d63482569287ce355e",
    },
}


def test_every_shipped_config_has_digests():
    assert {p.stem for p in CONFIG_DIR.glob("*.yaml")} == set(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_shipped_config_tables_are_byte_identical(tmp_path, name):
    config = CONFIG_DIR / f"{name}.yaml"
    verb = yaml.safe_load(config.read_text())["command"]
    argv = [verb, "--config", str(config), "--out", str(tmp_path)]
    if verb == "game":
        argv += ["--level-override", str(GAME_LEVEL)]
    assert main(argv) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.tsv")}
    assert digests == DIGESTS[name]
