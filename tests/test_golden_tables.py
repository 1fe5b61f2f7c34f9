"""Byte-identical tables (acceptance criterion 10 across changes).

Every shipped config runs through the CLI as shipped, except the game,
which runs at --level-override 24 to keep the test short.  The solve example also runs at --level-override 512, the grid
the solve benchmark times.  The sha256 of every TSV it writes must equal
the digest recorded here, and the results of its report.json, less the
solve's wall time, must equal those recorded here; the results also hold
the values no table shows, such as the game's certification margin and
the thresholds a study checks against.  The digests and results were
recorded with the numpy and scipy series in RECORDED_WITH on x86-64, the
series the CI workflow pins; a change that moves one of them changes a
shipped result and must say why.
"""

import hashlib
import json

import pytest
import yaml

from conftest import CONFIG_DIR
from degenash.cli import main

# the numpy and scipy release series the digests and results were recorded with
RECORDED_WITH = {"numpy": "2.4", "scipy": "1.17"}
GAME_LEVEL = 24
SOLVE_LEVEL = 512

DIGESTS = {
    "benchmark_game": {
        "game_fields.tsv": "9e4418b7fc136cce62490255f89c5eebb2cae15de198c4ee9d233e6a4b1cbd00",
        "game_residuals.tsv": "06097f504632cab90d64c1d216971e49e87f2dc7985ac36cf041983c9b204ff9",
    },
    "solve_example": {
        "solve_norms.tsv": "b225c8bb20aaf7c856334ae489a6a309a89b1bf8a8231c801f53bd8e50625c7d",
    },
    "study_coercivity": {
        "study_levels.tsv": "b3cd7aa266db7f9b9edea146cbc7c7a4aab612219806e0539ddd126dbaf99477",
        "study_samples.tsv": "b8e18346c1131ea16e334fe3a086a43ac44725a03e00975e7887d09a8b7f8788",
    },
    "study_convergence": {
        "study_levels.tsv": "c84da106731eccb1f6181391b36df76c9768e22ca524895b2035a8fb3ac7e62d",
        "study_orders.tsv": "e5bcb2f62a75d69070a88dbb0ddf743862bb7cad459da048c3c7c612756a469c",
        "study_samples.tsv": "bfc99db4c1cc2ecf9466c7397c891fe1c44848c6fc49552268fe5ab41cced774",
    },
    "study_embedding": {
        "study_levels.tsv": "8ec1dff9025ceb5145aa15234963b3f776f3dc3dc8ad1a99b81f3bccd29d9855",
    },
    "study_energy": {
        "study_levels.tsv": "3e6bb079e4c3e51f99f86ae42e73aef3008d8786958b5ac47de807f462d2818a",
    },
    "study_inclusion": {
        "study_levels.tsv": "bca3dfd012c8217c672db66ba6bd348d3ad5b47f4a8827b5bdf41e3ecda44fa6",
    },
    "study_muckenhoupt": {
        "study_levels.tsv": "4f060a581959ade02c1335578a80c8d65329a4a10b99fe96dbf2958becb33b84",
        "study_samples.tsv": "8522aee21ab32df5f0b3affe94d46f3e849b7c8cd90ff4ad3e461098d54ed1ff",
    },
    "verify_weak_form": {
        "verify_residuals.tsv": "873433eab8b39055b07e6afe43525a985fa0d44e0b16dc3aa7aafdd6a3830284",
    },
}

RESULTS = {
    "benchmark_game": {
        "br_iterations": 2,
        "br_residuals": [0.00035316362105929555, 0.0],
        "certification_margin": 5.3779363155603355e-08,
        "certified": True,
        "converged": True,
        "f1_norm": 0.00023185203904719083,
        "f2_norm": 0.00026640040395872825,
        "j1": 0.00012420758152875783,
        "j2": 0.00020652709413655768,
    },
    "solve_example": {
        "iterations": 0,
        "norms": {
            "dx_l2": 0.28502327788627335,
            "l2": 0.092901728277221,
            "mixed_l2": 0.7008101931274361,
            "v_norm": 0.785464466324832,
            "w11": 0.3547104467980029,
            "weighted_dy_l2": 0.18960617345885245,
        },
        "residual_norm": 2.3600070494914674e-12,
    },
    "study_coercivity": {
        "kind": "coercivity",
        "levels": [64],
        "metrics": {
            "delta_h": [0.04598493014643029],
            "mean_margin": [0.2938194884056694],
            "min_margin": [0.16324195626481997],
            "mu_h": [0.09431511806261067],
            "violations": [0.0],
        },
        "observed_orders": [],
        "thresholds": {
            "safety": 1.5,
            "theta": 1.0,
        },
    },
    "study_convergence": {
        "kind": "convergence",
        "levels": [16, 32, 64, 128],
        "metrics": {
            "l2_err": [
                0.01705038334918788,
                0.00923078143870554,
                0.004808591865411055,
                0.0024549255279041485,
            ],
            "max_err": [
                0.03419162653862373,
                0.018442184625360625,
                0.009605618790157311,
                0.004902699401118982,
            ],
        },
        "observed_orders": [0.9251233665956888, 0.9620282329640233, 0.9808625771902864],
        "thresholds": {
            "order_threshold": 0.9,
        },
    },
    "study_embedding": {
        "kind": "embedding",
        "levels": [64, 128],
        "metrics": {
            "max_ratio_q2": [0.18539639616453954, 0.18364673686699906],
            "max_ratio_q3": [0.23227662997738613, 0.23086969868454935],
            "max_ratio_q4": [0.2698394129496536, 0.26823013793082706],
        },
        "observed_orders": [],
        "thresholds": {
            "growth_cap": 1.1,
        },
    },
    "study_energy": {
        "kind": "energy",
        "levels": [16, 32, 64, 128],
        "metrics": {
            "ratio_0": [0.5008043223997728, 0.531529467786743, 0.5464693257917739, 0.553839995405767],
            "ratio_1": [0.38406889586042975, 0.4129893863877501, 0.4287876003559825, 0.43743190350916544],
            "ratio_2": [0.5200700140877548, 0.5530958946811552, 0.5696037559048186, 0.5779320364092153],
            "ratio_3": [0.5288918518684712, 0.5611194897030695, 0.5773202052891611, 0.5855032695432683],
            "ratio_4": [0.4954666804296629, 0.5267181766409632, 0.5418500395524455, 0.5493104348135724],
        },
        "observed_orders": [],
        "thresholds": {
            "ratio_cap": 1.2,
        },
    },
    "study_inclusion": {
        "kind": "inclusion",
        "levels": [16, 32, 64, 128, 256],
        "metrics": {
            "dy_l2": [
                0.37598200803390497,
                0.43329202053888066,
                0.4838824719187692,
                0.5292266144262537,
                0.5704947168738452,
            ],
            "w11": [
                0.945345264797969,
                0.9963709932485024,
                1.0257670395176168,
                1.0430664118512432,
                1.053700226634875,
            ],
        },
        "observed_orders": [],
        "thresholds": {
            "w11_exact": 1.0837663899276202,
        },
    },
    "study_muckenhoupt": {
        "kind": "muckenhoupt",
        "levels": [93],
        "metrics": {
            "closed_form": [1.3581221810508404],
            "n_balls": [93.0],
        },
        "observed_orders": [],
        "thresholds": {
            "closed_form_tol": 1e-10,
            "p": 2.0,
            "unit_tol": 1e-09,
        },
    },
    "verify_weak_form": {
        "levels": [32, 64],
        "max_residual_by_level": [0.009530982118245539, 0.004729867278182198],
        "observed_orders": [1.0335913828729189],
        "theta": 1.0,
    },
}


def test_every_shipped_config_has_digests():
    assert {p.stem for p in CONFIG_DIR.glob("*.yaml")} == set(DIGESTS) == set(RESULTS)


def _run(tmp_path, name, level=None):
    """Run a shipped config through the CLI; sha256 of each TSV it writes."""
    config = CONFIG_DIR / f"{name}.yaml"
    verb = yaml.safe_load(config.read_text())["command"]
    argv = [verb, "--config", str(config), "--out", str(tmp_path)]
    if level is not None:
        argv += ["--level-override", str(level)]
    assert main(argv) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.tsv")}


def _results(tmp_path):
    """The results of the report.json a run wrote, less the solve's wall
    time, which no two runs share."""
    results = json.loads((tmp_path / "report.json").read_text())["results"]
    results.pop("wall_time", None)
    return results


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_shipped_config_tables_are_byte_identical(tmp_path, name):
    level = GAME_LEVEL if name == "benchmark_game" else None
    assert _run(tmp_path, name, level) == DIGESTS[name]
    assert _results(tmp_path) == RESULTS[name]


def test_solve_example_at_512_is_byte_identical(tmp_path):
    assert _run(tmp_path, "solve_example", SOLVE_LEVEL) == {
        "solve_norms.tsv": "ffa8682ff63c3d8d447360ef4328b63c40d294657ca7d4db2a741fdf5400f3cd",
    }
    assert _results(tmp_path) == {
        "iterations": 0,
        "norms": {
            "dx_l2": 0.29321427519871124,
            "l2": 0.09357145998086622,
            "mixed_l2": 0.7317998976298634,
            "v_norm": 0.8172151569115281,
            "w11": 0.3637437594170586,
            "weighted_dy_l2": 0.19385379338975703,
        },
        "residual_norm": 1.168907475429942e-09,
    }
