"""Golden artifact digests: the behaviour gate for refactors.

One small fixed `experiment` run covering all five metrics, all four
methods and two expansion sizes, plus `score --kernel-csv` and `train` on
the same config. Their artifacts must match the sha256 digests below byte
for byte. A change that moves one of them either is a bug or names the
change and its reason in CHANGES.md and records the new digest here. The
digests were recorded with numpy 2.4 and OpenBLAS 0.3.31 on x86-64;
another numpy or BLAS build may round differently.
"""

import hashlib
import json

import pytest

from steinunlearn import cli, stein

from test_config_cli import mini_config_dict

GOLDEN_DIGESTS = {
    "report.csv": "e6d9e062aabc13b2a77e54dd8787343c7630e80b85b996da4416a880f756f698",
    "reports.jsonl": "621320e02442efc8cd63d20a36d35d56e9861febf5c3700cdde7e7620e6e4676",
    "aggregate.csv": "f7113084f68a951c49c4edaa2a3b3bb5e0605e5e33e34ff259bbd0d5442ef3c8",
    "config.json": "0815291f74ae7da2e70636337cf38102ef3b6984da5aef73e0cb2a14cb768bd5",
    "rankings-s0.csv": "ab6ba4423cc50e382b669017bab9e980f2bd07c9e19b43cb1f98f826148d0891",
    "model-s0.json": "c02bdab985579609a18c620f09b02302ac0872648a1822596ecef36b4502d3d4",
    "trainlog-s0.csv": "048fe154938db8425b30021a0dc6693155b3dfac1d78e0c4213b26116e61371d",
}

# `score --kernel-csv` on the same config.
SCORE_DIGESTS = {
    "rankings-s0.csv": GOLDEN_DIGESTS["rankings-s0.csv"],
    "kernel-s0.csv": "f8d1787c669240467ca005165f005d9d0fa430e4d5c3aa51ba7cca620c8571cc",
}

# `train` on the same config.
TRAIN_DIGESTS = {
    name: GOLDEN_DIGESTS[name] for name in ("model-s0.json", "trainlog-s0.csv")
}


@pytest.fixture
def golden_config(tmp_path, monkeypatch):
    """Write the golden config to cfg.json in a fresh working directory."""
    # output_dir is recorded in config.json, so it stays the relative "out"
    monkeypatch.chdir(tmp_path)
    cfg = mini_config_dict(
        metrics=["MKSD", "MSKSD", "SSN", "EMSKSD", "PC"],
        methods=[
            {"method": "grad_ascent", "lr": 0.05, "epochs": 50,
             "overfit_threshold": 5.0},
            {"method": "fine_tune", "lr": 0.05, "epochs": 5, "batch_size": 16},
            {"method": "fisher", "alpha": 1e-5},
            {"method": "retrain", "lr": 0.05, "epochs": 30, "batch_size": 16},
        ],
        expansion_ks=[0, 2],
    )
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    return tmp_path


def _digests(out, names):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in names}


def test_experiment_artifacts_match_golden_digests(golden_config):
    assert cli.main(["experiment", "--config", "cfg.json"]) == 0
    assert _digests(golden_config / "out", GOLDEN_DIGESTS) == GOLDEN_DIGESTS


def test_score_kernel_csv_artifacts_match_golden_digests(golden_config):
    assert cli.main(["score", "--config", "cfg.json", "--kernel-csv"]) == 0
    assert _digests(golden_config / "out", SCORE_DIGESTS) == SCORE_DIGESTS


def test_train_builds_no_stein_kernel(golden_config, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("train built a Stein kernel")

    monkeypatch.setattr(stein, "stein_kernel_matrix", refuse)
    assert cli.main(["train", "--config", "cfg.json"]) == 0
    assert _digests(golden_config / "out", TRAIN_DIGESTS) == TRAIN_DIGESTS
