"""Golden artifact digests: the behaviour gate for refactors.

One small fixed `experiment` run covering all five metrics, all four
methods and two expansion sizes, the same run over two seeds, plus
`score --kernel-csv`, `train`, one `unlearn` and one `evaluate` of its
unlearned model on the same config. Their
artifacts must match the sha256 digests below byte for byte. A change that
moves one of them either is a bug or names the change and its reason in
CHANGES.md and records the new digest here. The digests were recorded with
numpy 2.4 and OpenBLAS 0.3.31 on x86-64; another numpy or BLAS build may
round differently.
"""

import hashlib
import json

import pytest

from steinunlearn import cli, scoring, stein

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

# `experiment` on the same config with seeds [0, 1]; seed 0's files match the
# one-seed run.
TWO_SEED_DIGESTS = {
    "report.csv": "80aa05587d1b952a9f1fa4dfd9ee55db3b01c92bfc1b722255798c06294fc774",
    "reports.jsonl": "fb864f0e2d45a35156a70fb7bbf63134d4ff7d367f2034aac82e935d76fd4503",
    "aggregate.csv": "bb17cd5d33d86cfb6b08dda1f52e461be6130e21ff8aeb92ef1069d6a2964d52",
    "config.json": "856940a432171c3aa924fef78b1482be9e73eda4d748ff7b5b202d469d612c95",
    "rankings-s0.csv": GOLDEN_DIGESTS["rankings-s0.csv"],
    "model-s0.json": GOLDEN_DIGESTS["model-s0.json"],
    "trainlog-s0.csv": GOLDEN_DIGESTS["trainlog-s0.csv"],
    "rankings-s1.csv": "7e29dc32112fabb8ef97a679b0645738ed249d5281640d068410297de9dc9946",
    "model-s1.json": "c6f088ff5553bebe01e5b80d0c2b7c52475818a1cc322969148221ea9cc30967",
    "trainlog-s1.csv": "9f67473e5d3eda82d90f12e1af797b352c9142d0fca8fb775a74cc160d92a624",
}

# `unlearn --method grad_ascent --target 3 --k 2` on the same config.
UNLEARN_DIGESTS = {
    "unlearned-s0-grad_ascent-t3-k2.json":
        "8ed78164dd9551c3b45a6a9fa84237bc68a6210df0c4497cf6745f59e6642acb",
    "unlearn-s0-grad_ascent-t3-k2.jsonl":
        "3dc020c532c3dce599cfa1da3af16a8e11d6adc43dd5ab87ddfb0a7b3e7aa424",
}

# `evaluate` of that unlearned model against the trained one, forgetting 3.
EVALUATE_DIGESTS = {
    "evaluate.jsonl":
        "265613cf45aba32907e429b210e6db8e2090dfe95c7a1282c33650451b211a8f",
}

UNLEARN_ARGS = ["unlearn", "--config", "cfg.json", "--method", "grad_ascent",
                "--target", "3", "--k", "2"]


def golden_config_dict(**overrides):
    """The golden run's config: every metric and method, two expansion sizes."""
    return mini_config_dict(
        metrics=["MKSD", "MSKSD", "SSN", "EMSKSD", "PC"],
        methods=[
            {"method": "grad_ascent", "lr": 0.05, "epochs": 50,
             "overfit_threshold": 5.0},
            {"method": "fine_tune", "lr": 0.05, "epochs": 5, "batch_size": 16},
            {"method": "fisher", "alpha": 1e-5},
            {"method": "retrain", "lr": 0.05, "epochs": 30, "batch_size": 16},
        ],
        expansion_ks=[0, 2],
        **overrides,
    )


def _write_config(directory, **overrides):
    (directory / "cfg.json").write_text(json.dumps(golden_config_dict(**overrides)))


@pytest.fixture
def golden_config(tmp_path, monkeypatch):
    """Write the golden config to cfg.json in a fresh working directory."""
    # output_dir is recorded in config.json, so it stays the relative "out"
    monkeypatch.chdir(tmp_path)
    _write_config(tmp_path)
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


def test_two_seed_experiment_artifacts_match_golden_digests(golden_config):
    _write_config(golden_config, seeds=[0, 1])
    assert cli.main(["experiment", "--config", "cfg.json"]) == 0
    assert _digests(golden_config / "out", TWO_SEED_DIGESTS) == TWO_SEED_DIGESTS


def test_unlearn_ranks_no_metric(golden_config, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("unlearn ranked a metric")

    monkeypatch.setattr(scoring, "compute_metric", refuse)
    assert cli.main(UNLEARN_ARGS) == 0
    assert _digests(golden_config / "out", UNLEARN_DIGESTS) == UNLEARN_DIGESTS


def test_evaluate_report_matches_golden_digest(golden_config):
    assert cli.main(["train", "--config", "cfg.json"]) == 0
    assert cli.main(UNLEARN_ARGS) == 0
    assert cli.main(["evaluate", "--config", "cfg.json",
                     "--original", "out/model-s0.json",
                     "--unlearned", "out/unlearned-s0-grad_ascent-t3-k2.json",
                     "--targets", "3"]) == 0
    assert _digests(golden_config / "out", EVALUATE_DIGESTS) == EVALUATE_DIGESTS
