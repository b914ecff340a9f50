"""Golden artifact digests: the behaviour gate for refactors.

One small fixed `experiment` run covering all five metrics, all four
methods and two expansion sizes. Its artifacts must match the sha256
digests below byte for byte. A change that moves one of them either is a
bug or names the change and its reason in CHANGES.md and records the new
digest here. The digests were recorded with numpy 2.4 and OpenBLAS 0.3.31
on x86-64; another numpy or BLAS build may round differently.
"""

import hashlib
import json

from steinunlearn import cli

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


def test_experiment_artifacts_match_golden_digests(tmp_path, monkeypatch):
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
    assert cli.main(["experiment", "--config", "cfg.json"]) == 0
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
               for name in GOLDEN_DIGESTS}
    assert digests == GOLDEN_DIGESTS
