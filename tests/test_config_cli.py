"""Config validation, canonicalization, CLI subcommands, pipeline behavior."""

import argparse
import csv
import gc
import itertools
import json
import math
import re
import struct
import tempfile
import types
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinunlearn import cli, diffnet, experiment, stein, unlearn
from steinunlearn.config import ExperimentConfig, dump_config, load_config
from steinunlearn.data import split
from steinunlearn.errors import ConfigurationError, NumericalError
from steinunlearn.experiment import REPORT_COLUMNS


def mini_config_dict(**overrides):
    cfg = {
        "dataset": {
            "type": "blobs",
            "n_per_class": 30,
            "centers": [[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]],
            "std": 0.8,
        },
        "network": {"layer_sizes": [2, 8, 3], "activation": "relu"},
        "training": {"lr": 0.05, "epochs": 30, "batch_size": 16},
        "test_fraction": 0.2,
        "metrics": ["EMSKSD"],
        "methods": [
            {"method": "grad_ascent", "lr": 0.05, "epochs": 50,
             "overfit_threshold": 5.0},
        ],
        "top_k_each_end": 5,
        "expansion_ks": [0],
        "epsilon": 0.05,
        "seeds": [0],
        "output_dir": "out",
    }
    cfg.update(overrides)
    return cfg


_MINI = mini_config_dict()
_GA = _MINI["methods"][0]

# Each case: what to override in mini_config_dict, and the dotted path the
# error must name.
BAD_CONFIGS = [
    pytest.param({"dataset": {**_MINI["dataset"], "standardise": True}},
                 r"dataset: unknown fields \['standardise'\]", id="typo-standardise"),
    pytest.param({"training": {**_MINI["training"], "batchsize": 16}},
                 r"training: unknown fields \['batchsize'\]", id="typo-batchsize"),
    pytest.param({"network": {"layer_sizes": [2, 8, 3], "activaton": "relu"}},
                 r"network: unknown fields \['activaton'\]", id="typo-activaton"),
    pytest.param({"dataset": {**_MINI["dataset"], "standardize": "false"}},
                 r"dataset\.standardize: expected true or false", id="string-bool"),
    pytest.param({"msksd_global": "no"},
                 r"msksd_global: expected true or false", id="string-bool-top"),
    pytest.param({"methods": [{"method": "fisher", "alpha": 1e-5, "lr": 0.1}]},
                 r"methods\[0\]: unknown fields \['lr'\]", id="field-of-other-method"),
    pytest.param({"methods": [{**_GA, "lr": "0.1"}]},
                 r"methods\[0\]\.lr: expected a finite number", id="string-lr"),
    pytest.param({"dataset": {**_MINI["dataset"],
                              "centers": [["a", 0], [4, 0], [0, 4]]}},
                 r"dataset\.centers\[0\]\[0\]: expected a finite number",
                 id="string-center"),
    pytest.param({"methods": [{**_GA, "epochs": 2.5}]},
                 r"methods\[0\]\.epochs: expected an integer", id="fractional-epochs"),
    pytest.param({"dataset": {**_MINI["dataset"], "centers": [[0, 0], [1]]}},
                 r"dataset\.centers: expected at least 2 coordinate lists of one length",
                 id="ragged-centers"),
    pytest.param({"seeds": [-1]}, r"seeds\[0\]: must be >= 0", id="negative-seed"),
    pytest.param({"methods": [{**_GA, "seed": -1}]},
                 r"methods\[0\]\.seed: must be >= 0", id="negative-method-seed"),
    pytest.param({"epsilon": float("nan")}, r"epsilon: expected a finite number",
                 id="nan-epsilon"),
    pytest.param({"output_dir": 5}, r"output_dir: expected a string", id="number-path"),
    pytest.param({"output_dir": ""}, r"output_dir: must not be empty", id="empty-path"),
    pytest.param({"seeds": [0, 0]}, r"seeds\[1\]: repeats an earlier entry",
                 id="repeated-seed"),
    pytest.param({"metrics": ["PC", "PC"]}, r"metrics\[1\]: repeats an earlier entry",
                 id="repeated-metric"),
    pytest.param({"expansion_ks": [0, 0]},
                 r"expansion_ks\[1\]: repeats an earlier entry", id="repeated-k"),
    pytest.param({"methods": [_GA, {**_GA, "lr": 1.0}]},
                 r"methods\[1\]: repeats an earlier entry", id="repeated-method"),
]


def write_config(tmp_path, name="cfg.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(mini_config_dict(**overrides)))
    return path


class TestConfigValidation:
    def test_valid_config_parses(self):
        cfg = ExperimentConfig.from_dict(mini_config_dict())
        assert cfg.metrics == ("EMSKSD",)
        assert cfg.methods[0].method == "grad_ascent"

    def test_missing_dataset_names_field(self):
        raw = mini_config_dict()
        del raw["dataset"]
        with pytest.raises(ConfigurationError, match="dataset"):
            ExperimentConfig.from_dict(raw)

    def test_bad_std_names_path(self):
        raw = mini_config_dict()
        raw["dataset"]["std"] = -1.0
        with pytest.raises(ConfigurationError, match="dataset.std"):
            ExperimentConfig.from_dict(raw)

    def test_unknown_metric(self):
        raw = mini_config_dict(metrics=["XYZ"])
        with pytest.raises(ConfigurationError, match="XYZ"):
            ExperimentConfig.from_dict(raw)

    def test_unknown_method_field(self):
        raw = mini_config_dict()
        raw["methods"][0]["momentum"] = 0.9
        with pytest.raises(ConfigurationError, match="methods\\[0\\]"):
            ExperimentConfig.from_dict(raw)

    def test_unsorted_expansion_ks(self):
        raw = mini_config_dict(expansion_ks=[5, 0])
        with pytest.raises(ConfigurationError, match="expansion_ks"):
            ExperimentConfig.from_dict(raw)

    def test_empty_metrics(self):
        raw = mini_config_dict(metrics=[])
        with pytest.raises(ConfigurationError, match="metrics"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("overrides, match", BAD_CONFIGS)
    def test_bad_input_rejected_with_dotted_path(self, overrides, match, tmp_path,
                                                 capsys):
        raw = mini_config_dict(**overrides)
        with pytest.raises(ConfigurationError, match=match):
            ExperimentConfig.from_dict(raw)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["experiment", "--config", str(path)]) == 1
        assert re.search(match, capsys.readouterr().err)

    def test_byte_order_mark_is_accepted(self, tmp_path):
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        plain.write_text(json.dumps(mini_config_dict()), encoding="utf-8")
        marked.write_text(json.dumps(mini_config_dict()), encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_config(marked) == load_config(plain)

    def test_method_numbers_canonicalise_as_floats(self):
        as_int = mini_config_dict(methods=[{**_GA, "lr": 1}])
        as_float = mini_config_dict(methods=[{**_GA, "lr": 1.0}])
        dumped = dump_config(ExperimentConfig.from_dict(as_int))
        assert dumped == dump_config(ExperimentConfig.from_dict(as_float))
        assert '"lr": 1.0' in dumped

    def test_round_trip_is_fixpoint(self):
        cfg = ExperimentConfig.from_dict(mini_config_dict())
        canonical = dump_config(cfg)
        reparsed = ExperimentConfig.from_dict(json.loads(canonical))
        assert dump_config(reparsed) == canonical


class TestTrainCommand:
    def test_writes_model_and_log(self, tmp_path):
        cfg_path = write_config(tmp_path, output_dir=str(tmp_path / "out"))
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        model_file = tmp_path / "out" / "model-s0.json"
        log_file = tmp_path / "out" / "trainlog-s0.csv"
        assert model_file.exists() and log_file.exists()
        lines = log_file.read_text().strip().split("\n")
        assert lines[0] == "epoch,train_loss,train_acc"
        assert lines[1].startswith("0,")
        final_acc = float(lines[-1].split(",")[2])
        assert final_acc >= 0.95

    def test_rerun_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, output_dir=str(tmp_path / "out"))
        cli.main(["train", "--config", str(cfg_path)])
        blob1 = (tmp_path / "out" / "model-s0.json").read_bytes()
        cli.main(["train", "--config", str(cfg_path)])
        blob2 = (tmp_path / "out" / "model-s0.json").read_bytes()
        assert blob1 == blob2

    def test_missing_dataset_block_exits_1(self, tmp_path):
        raw = mini_config_dict()
        del raw["dataset"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["train", "--config", str(path)]) == 1


class TestScoreCommand:
    def test_five_metrics_full_cardinality(self, tmp_path):
        cfg_path = write_config(
            tmp_path, metrics=["MKSD", "MSKSD", "SSN", "EMSKSD", "PC"],
            output_dir=str(tmp_path / "out"),
        )
        assert cli.main(["score", "--config", str(cfg_path)]) == 0
        lines = (tmp_path / "out" / "rankings-s0.csv").read_text().strip().split("\n")
        n_train = 90 - 18  # 90 samples, 20% test
        assert len(lines) == 1 + 5 * n_train

    def test_rank_column_is_permutation(self, tmp_path):
        cfg_path = write_config(tmp_path, output_dir=str(tmp_path / "out"))
        cli.main(["score", "--config", str(cfg_path)])
        lines = (tmp_path / "out" / "rankings-s0.csv").read_text().strip().split("\n")
        ranks = sorted(int(line.split(",")[3]) for line in lines[1:])
        assert ranks == list(range(len(lines) - 1))

    def test_model_flag_scores_without_training(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, output_dir=str(out))
        cli.main(["train", "--config", str(cfg_path)])
        cli.main(["score", "--config", str(cfg_path)])
        trained = (out / "rankings-s0.csv").read_bytes()

        def no_training(*args, **kwargs):
            raise AssertionError("score --model must not train")

        monkeypatch.setattr(diffnet, "train", no_training)
        assert cli.main(["score", "--config", str(cfg_path),
                         "--model", str(out / "model-s0.json")]) == 0
        assert (out / "rankings-s0.csv").read_bytes() == trained

    def test_rerun_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, output_dir=str(tmp_path / "out"))
        cli.main(["score", "--config", str(cfg_path), "--kernel-csv"])
        r1 = (tmp_path / "out" / "rankings-s0.csv").read_bytes()
        k1 = (tmp_path / "out" / "kernel-s0.csv").read_bytes()
        cli.main(["score", "--config", str(cfg_path), "--kernel-csv"])
        assert (tmp_path / "out" / "rankings-s0.csv").read_bytes() == r1
        assert (tmp_path / "out" / "kernel-s0.csv").read_bytes() == k1


# Each case: a network that does not fit mini_config_dict's 2-D, 3-class
# blobs, and the error that names it.
NETWORK_MISFITS = [
    pytest.param([5, 8, 3],
                 "network.layer_sizes: input size 5 differs from the dataset's 2 features",
                 id="input-size"),
    pytest.param([2, 8, 2],
                 "network.layer_sizes: output size 2 is less than the dataset's "
                 "3 classes", id="output-size"),
]


class TestNetworkFitsDataset:
    @pytest.mark.parametrize("command", ["train", "experiment"])
    @pytest.mark.parametrize("layer_sizes, message", NETWORK_MISFITS)
    def test_misfit_exits_1_naming_the_field(self, tmp_path, capsys, command,
                                             layer_sizes, message):
        cfg_path = write_config(
            tmp_path, output_dir=str(tmp_path / "out"),
            network={"layer_sizes": layer_sizes, "activation": "relu"},
        )
        assert cli.main([command, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n", err

    @pytest.mark.parametrize("flag", ["--model", "--original", "--unlearned"])
    @pytest.mark.parametrize("layer_sizes, message", NETWORK_MISFITS)
    def test_misfit_model_file_exits_1_naming_the_file(self, tmp_path, capsys, flag,
                                                       layer_sizes, message):
        cfg_path = write_config(tmp_path, output_dir=str(tmp_path / "out"))
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        for path, sizes in ((good, (2, 8, 3)), (bad, layer_sizes)):
            spec = diffnet.NetworkSpec(tuple(sizes), "relu")
            experiment.write_model_json(diffnet.init_network(spec, 0), path)
        if flag == "--model":
            argv = ["score", "--config", str(cfg_path), "--model", str(bad)]
        else:
            models = {"--original": str(good), "--unlearned": str(good), flag: str(bad)}
            argv = ["evaluate", "--config", str(cfg_path), "--targets", "0",
                    *(arg for pair in models.items() for arg in pair)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad}: {message}\n", err

    def test_evaluate_models_of_different_networks_exit_1_naming_both(self, tmp_path,
                                                                       capsys):
        cfg_path = write_config(tmp_path, output_dir=str(tmp_path / "out"))
        original, unlearned = tmp_path / "original.json", tmp_path / "unlearned.json"
        for path, sizes in ((original, (2, 8, 3)), (unlearned, (2, 16, 3))):
            spec = diffnet.NetworkSpec(sizes, "relu")
            experiment.write_model_json(diffnet.init_network(spec, 0), path)
        argv = ["evaluate", "--config", str(cfg_path), "--targets", "0",
                "--original", str(original), "--unlearned", str(unlearned)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {unlearned}: ") and f"{original}'s" in err, err
        assert "(2, 16, 3)" in err and "(2, 8, 3)" in err, err

    def test_wider_output_layer_trains(self, tmp_path):
        cfg_path = write_config(
            tmp_path, output_dir=str(tmp_path / "out"),
            network={"layer_sizes": [2, 8, 4], "activation": "relu"},
        )
        assert cli.main(["train", "--config", str(cfg_path)]) == 0


def _write_idx_dataset(tmp_path, n_per_class=12, side=2):
    """An IDX image/label pair of 3 classes told apart by pixel brightness."""
    rng = np.random.default_rng(0)
    labels = np.repeat(np.arange(3, dtype=np.uint8), n_per_class)
    pixels = 40 + 80 * labels[:, None] + rng.integers(0, 30, (labels.size, side * side))
    images, label_file = tmp_path / "images.idx", tmp_path / "labels.idx"
    images.write_bytes(struct.pack(">IIII", 0x803, labels.size, side, side)
                       + pixels.astype(np.uint8).tobytes())
    label_file.write_bytes(struct.pack(">II", 0x801, labels.size) + labels.tobytes())
    return {"type": "idx", "images": str(images), "labels": str(label_file)}


@pytest.fixture
def built_kernels(monkeypatch):
    """Weak references to the Stein kernel matrices built while the test runs."""
    refs = []
    real = stein.stein_kernel_matrix

    def spy(*args, **kwargs):
        kernel = real(*args, **kwargs)
        refs.append(weakref.ref(kernel))
        return kernel

    monkeypatch.setattr(stein, "stein_kernel_matrix", spy)
    return refs


def _reachable_arrays(root):
    """Every ndarray reachable from `root` through containers, instance
    attributes and array bases, but not through classes, modules or functions."""
    skipped = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    arrays, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skipped):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
            stack.append(obj.base)
        stack.extend(gc.get_referents(obj))
    return arrays


class TestExperimentCommand:
    @pytest.mark.parametrize("dataset", ["idx", "standardized-blobs"])
    def test_dataset_variant_runs_every_row(self, tmp_path, dataset):
        if dataset == "idx":
            overrides = {"dataset": _write_idx_dataset(tmp_path),
                         "network": {"layer_sizes": [4, 8, 3], "activation": "relu"}}
        else:
            overrides = {"dataset": {**_MINI["dataset"], "standardize": True}}
        cfg_path = write_config(tmp_path, output_dir=str(tmp_path / "out"),
                                top_k_each_end=2, **overrides)
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 0
        with (tmp_path / "out" / "report.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["status"] for row in rows] == ["ok"] * 4

    def test_row_cardinality(self, tmp_path):
        cfg_path = write_config(tmp_path, output_dir=str(tmp_path / "out"))
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 0
        lines = (tmp_path / "out" / "report.csv").read_text().strip().split("\n")
        # 1 seed x 1 metric x 2 ends x 5 targets x 1 method x 1 k
        assert len(lines) == 1 + 10

    def test_aggregate_equals_mean_of_rows(self, tmp_path):
        cfg_path = write_config(tmp_path, output_dir=str(tmp_path / "out"))
        cli.main(["experiment", "--config", str(cfg_path)])
        report = (tmp_path / "out" / "report.csv").read_text().strip().split("\n")
        header = report[0].split(",")
        fa = header.index("forget_acc")
        end_col = header.index("easy_or_difficult")
        easy_vals = [float(r.split(",")[fa]) for r in report[1:]
                     if r.split(",")[end_col] == "easy"]
        agg = (tmp_path / "out" / "aggregate.csv").read_text().strip().split("\n")
        aheader = agg[0].split(",")
        mfa = aheader.index("mean_forget_acc")
        aend = aheader.index("easy_or_difficult")
        easy_agg = [float(r.split(",")[mfa]) for r in agg[1:]
                    if r.split(",")[aend] == "easy"]
        assert easy_agg[0] == pytest.approx(np.mean(easy_vals))

    def test_pipeline_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, output_dir=str(tmp_path / "out"))
        cli.main(["experiment", "--config", str(cfg_path)])
        files = ["report.csv", "reports.jsonl", "aggregate.csv", "config.json"]
        blobs = {f: (tmp_path / "out" / f).read_bytes() for f in files}
        cli.main(["experiment", "--config", str(cfg_path)])
        for f in files:
            assert (tmp_path / "out" / f).read_bytes() == blobs[f], f

    def test_partial_failure_isolated(self, tmp_path, monkeypatch):
        def exploding(model, ds, plan, cfg):
            raise NumericalError("synthetic divergence")

        monkeypatch.setattr(unlearn, "fisher_forget", exploding)
        cfg_path = write_config(
            tmp_path,
            methods=[
                {"method": "grad_ascent", "lr": 0.05, "epochs": 50,
                 "overfit_threshold": 5.0},
                {"method": "fisher", "alpha": 1e-5},
            ],
            output_dir=str(tmp_path / "out"),
        )
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 2
        import csv as csv_mod

        with (tmp_path / "out" / "report.csv").open(newline="") as fh:
            rows = list(csv_mod.DictReader(fh))
        assert len(rows) == 20  # both methods still produce all rows
        for row in rows:
            if row["method"] == "fisher":
                assert row["status"].startswith("error")
            else:
                assert row["status"] == "ok"

    def test_non_finite_measurements_fail_their_rows(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            network={"layer_sizes": [2, 32, 32, 3], "activation": "relu"},
            methods=[{"method": "fisher", "alpha": 1e300}],
            output_dir=str(tmp_path / "out"),
        )
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 2
        lines = (tmp_path / "out" / "report.csv").read_text().strip().split("\n")
        statuses = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert len(lines) == 11
        assert all(s.startswith("error: non-finite ") for s in statuses), statuses

    def test_k_beyond_training_size_fails_its_rows(self, tmp_path):
        cfg_path = write_config(tmp_path, expansion_ks=[0, 1000],
                                output_dir=str(tmp_path / "out"))
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 2
        with (tmp_path / "out" / "report.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 20
        for row in rows:
            if row["k_expansion"] == "0":
                assert row["status"] == "ok"
            else:
                assert row["status"] == "error: k=1000 exceeds training size 72"
                assert [row[c] for c in REPORT_COLUMNS[6:]] == [""] * 11

    def test_each_base_is_freed_before_the_next_is_built(self, tmp_path,
                                                         monkeypatch, built_kernels):
        real = experiment.train_base
        bases, alive_at_build = [], []

        def tracking(config, seed, **options):
            gc.collect()
            alive_at_build.append(sum(ref() is not None
                                      for ref in bases + built_kernels))
            base = real(config, seed, **options)
            bases.append(weakref.ref(base))
            return base

        monkeypatch.setattr(experiment, "train_base", tracking)
        cfg_path = write_config(tmp_path, seeds=[0, 1, 2],
                                output_dir=str(tmp_path / "out"))
        for command in ("experiment", "score", "rank"):
            bases.clear()
            built_kernels.clear()
            alive_at_build.clear()
            assert cli.main([command, "--config", str(cfg_path)]) == 0
            assert alive_at_build == [0, 0, 0], command

    @pytest.mark.parametrize("argv", [
        pytest.param(["experiment"], id="experiment"),
        pytest.param(["score", "--kernel-csv"], id="score-kernel-csv"),
        pytest.param(["rank"], id="rank"),
        pytest.param(["unlearn", "--method", "grad_ascent", "--target", "0",
                      "--k", "2"], id="unlearn"),
    ])
    def test_kernel_dies_with_scoring(self, tmp_path, monkeypatch, built_kernels,
                                      argv):
        real = experiment.train_base
        checked = []

        def checking(config, seed, **options):
            base = real(config, seed, **options)
            gc.collect()
            assert len(built_kernels) == 1 and built_kernels[0]() is None
            arrays = _reachable_arrays(base)
            assert any(a is base.model.params for a in arrays)
            n_train = base.plan.train_ids.size
            assert all(a.size != n_train * n_train for a in arrays)
            checked.append(seed)
            return base

        monkeypatch.setattr(experiment, "train_base", checking)
        cfg_path = write_config(tmp_path, output_dir=str(tmp_path / "out"))
        assert cli.main([argv[0], "--config", str(cfg_path), *argv[1:]]) == 0
        assert checked == [0]

    def test_seed_override(self, tmp_path):
        cfg_path = write_config(tmp_path, seeds=[0, 1],
                                output_dir=str(tmp_path / "out"))
        cli.main(["experiment", "--config", str(cfg_path), "--seed", "1"])
        lines = (tmp_path / "out" / "report.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 10
        assert all(line.startswith("s1-") for line in lines[1:])

    def test_methods_override_unknown_exits_1(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert cli.main(
            ["experiment", "--config", str(cfg_path), "--methods", "nonsense"]
        ) == 1

    def test_repeated_metrics_override_exits_1(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, output_dir=str(tmp_path / "out"))
        assert cli.main(
            ["experiment", "--config", str(cfg_path), "--metrics", "PC,PC"]
        ) == 1
        assert "metrics[1]: repeats an earlier entry" in capsys.readouterr().err


class TestRankAndUnlearnCommands:
    def test_rank_prints_both_ends(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, output_dir=str(tmp_path / "out"))
        assert cli.main(["rank", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "easiest=" in out and "most_difficult=" in out

    def test_unlearn_and_evaluate_roundtrip(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, output_dir=str(out))
        cli.main(["train", "--config", str(cfg_path)])
        code = cli.main([
            "unlearn", "--config", str(cfg_path), "--method", "grad_ascent",
            "--target", "0", "--k", "2",
        ])
        assert code == 0
        jsonl = list(out.glob("unlearn-*.jsonl"))
        assert jsonl
        row = json.loads(jsonl[0].read_text().strip())
        assert row["status"] == "ok"
        assert row["k_expansion"] == 2
        assert row["report"]["forget_acc"] is not None
        model_files = list(out.glob("unlearned-*.json"))
        assert model_files
        reloaded = experiment.read_model_json(model_files[0])
        assert reloaded.spec.layer_sizes == (2, 8, 3)

    @pytest.mark.parametrize("target, k, message", [
        pytest.param(None, 0, "sample id {} not in kernel matrix", id="test-split-id"),
        pytest.param(0, -1, "k must be >= 0, got -1", id="negative-k"),
        pytest.param(0, 1000, "k=1000 exceeds training size 72", id="k-too-large"),
    ])
    def test_unlearn_error_exits_1(self, tmp_path, capsys, monkeypatch,
                                   target, k, message):
        # the split alone decides each error, so none may wait for training
        cfg_path = write_config(tmp_path, output_dir=str(tmp_path / "out"))
        if target is None:
            config = load_config(cfg_path)
            ds = config.dataset.build(0)
            target = int(split(ds, config.test_fraction, 0).test_ids[0])

        def no_training(*args, **kwargs):
            raise AssertionError("unlearn must reject its arguments before training")

        monkeypatch.setattr(diffnet, "train", no_training)
        assert cli.main(["unlearn", "--config", str(cfg_path), "--method",
                         "grad_ascent", "--target", str(target), "--k", str(k)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message.format(target)}\n", err

    def test_negative_k_rejected_before_training(self, tmp_path, capsys, monkeypatch):
        cfg_path = write_config(tmp_path, output_dir=str(tmp_path / "out"))

        def no_training(*args, **kwargs):
            raise AssertionError("unlearn --k -1 must fail before training")

        monkeypatch.setattr(diffnet, "train", no_training)
        assert cli.main(["unlearn", "--config", str(cfg_path), "--method",
                         "grad_ascent", "--target", "0", "--k", "-1"]) == 1
        assert capsys.readouterr().err == "error: k must be >= 0, got -1\n"

    def test_evaluate_k_expansion_counts_distinct_targets(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, output_dir=str(out))
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        model = str(out / "model-s0.json")
        assert cli.main(["evaluate", "--config", str(cfg_path), "--original", model,
                         "--unlearned", model, "--targets", "3,3,3"]) == 0
        row = json.loads((out / "evaluate.jsonl").read_text())
        assert row["target_id"] == 3
        assert row["k_expansion"] == 0


_MODEL_SPEC = {"layer_sizes": [2, 8, 3], "activation": "relu"}

# Each case: the text of a file passed as a model, and what the error must say.
BAD_MODEL_FILES = [
    pytest.param("not json", r"not a model file", id="not-json"),
    pytest.param(json.dumps(_MINI), r"not a model file: no 'layer_sizes' field",
                 id="config-file"),
    pytest.param(json.dumps({**_MODEL_SPEC, "params": ["a"] * 51}),
                 r"params: expected a list of numbers", id="string-params"),
    pytest.param(json.dumps({**_MODEL_SPEC, "params": ["0.5"] + [0.0] * 50}),
                 r"params: expected a list of numbers", id="string-param"),
    pytest.param(json.dumps({**_MODEL_SPEC, "params": [True] + [0.0] * 50}),
                 r"params: expected a list of numbers", id="bool-param"),
    pytest.param(json.dumps({**_MODEL_SPEC, "params": [10**400] + [0.0] * 50}),
                 r"params: int too large to convert to float", id="huge-int-param"),
    pytest.param(json.dumps({**_MODEL_SPEC, "params": [0.0] * 50}),
                 r"params: expected 51 parameters", id="short-params"),
    pytest.param(json.dumps({**_MODEL_SPEC, "layer_sizes": ["a", 3], "params": []}),
                 r"layer_sizes: expected a list of integers", id="string-layer-size"),
    pytest.param(json.dumps({**_MODEL_SPEC, "layer_sizes": [2.9, 8, 3],
                             "params": [0.0] * 51}),
                 r"layer_sizes: expected a list of integers",
                 id="fractional-layer-size"),
    pytest.param(json.dumps({**_MODEL_SPEC, "layer_sizes": ["2", 8, 3],
                             "params": [0.0] * 51}),
                 r"layer_sizes: expected a list of integers",
                 id="numeric-string-layer-size"),
]


class TestBadCommandInput:
    @pytest.mark.parametrize("targets", ["a", "", "1,,2"])
    def test_bad_targets_exit_1(self, tmp_path, capsys, targets):
        cfg_path = write_config(tmp_path, output_dir=str(tmp_path / "out"))
        code = cli.main(["evaluate", "--config", str(cfg_path), "--original", "m.json",
                         "--unlearned", "m.json", "--targets", targets])
        assert code == 1
        assert (f"--targets: expected comma-separated sample ids, got {targets!r}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("flag", ["--model", "--original", "--unlearned"])
    @pytest.mark.parametrize("text, match", BAD_MODEL_FILES)
    def test_bad_model_file_exits_1(self, tmp_path, capsys, text, match, flag):
        cfg_path = write_config(tmp_path, output_dir=str(tmp_path / "out"))
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        experiment.write_model_json(
            diffnet.init_network(diffnet.NetworkSpec((2, 8, 3)), 0), good
        )
        bad.write_text(text)
        if flag == "--model":
            argv = ["score", "--config", str(cfg_path), "--model", str(bad)]
        else:
            models = {"--original": str(good), "--unlearned": str(good), flag: str(bad)}
            argv = ["evaluate", "--config", str(cfg_path), "--targets", "0",
                    *(arg for pair in models.items() for arg in pair)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and re.search(match, err), err

    def test_overflowing_kernel_exits_1_without_warning(self, tmp_path, capsys):
        # finite scores of order 1e200 whose Gram products overflow
        cfg_path = write_config(tmp_path, output_dir=str(tmp_path / "out"))
        params = np.random.default_rng(0).uniform(-1.0, 1.0, 9) * 1e200
        model = tmp_path / "huge.json"
        experiment.write_model_json(
            diffnet.MlpModel(diffnet.NetworkSpec((2, 3)), params), model
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["score", "--config", str(cfg_path), "--model", str(model)])
        assert code == 1
        assert "error: kernel matrix contains non-finite values" in capsys.readouterr().err

    def test_overflowing_blob_std_exits_1_with_one_line(self, tmp_path, capsys):
        dataset = {**_MINI["dataset"], "std": 1e308}
        cfg_path = write_config(tmp_path, dataset=dataset,
                                output_dir=str(tmp_path / "out"))
        with warnings.catch_warnings():
            warnings.simplefilter("always")  # a warning would print to stderr
            assert cli.main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err == ("error: std 1e+308 with these centers overflows "
                       "the features\n"), err

    @pytest.mark.parametrize("target", ["config", "dataset"])
    def test_non_utf8_file_exits_1(self, tmp_path, capsys, target):
        # UTF-16 text, which starts with the byte order mark ff fe
        bad = tmp_path / "utf16.txt"
        bad.write_text("x,label\n1.0,0\n", encoding="utf-16")
        cfg_path = bad
        if target == "dataset":
            cfg_path = write_config(
                tmp_path, output_dir=str(tmp_path / "out"),
                dataset={"type": "csv", "path": str(bad), "label_column": "label"},
            )
        assert cli.main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert f"{bad}: not UTF-8 text" in err and "Traceback" not in err, err

    @pytest.mark.parametrize("argv", [
        pytest.param(["rank", "--bogus"], id="unknown-flag"),
        pytest.param(["unlearn", "--target", "3"], id="missing-required-flag"),
        pytest.param(["unlearn", "--method", "nope", "--target", "3"],
                     id="bad-choice"),
        pytest.param(["train", "--seed", "one"], id="bad-type"),
        pytest.param([], id="missing-command"),
    ])
    def test_usage_error_exits_1(self, tmp_path, capsys, argv):
        cfg_path = write_config(tmp_path, output_dir=str(tmp_path / "out"))
        assert cli.main([*argv, "--config", str(cfg_path)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["--help"], ["rank", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        assert cli.main(argv) == 0
        assert "usage:" in capsys.readouterr().out


README = Path(__file__).resolve().parents[1] / "README.md"

# The overrides each subcommand reads, in the README's CLI table, and a value
# for each override.
ACCEPTED_OVERRIDES = {
    "train": ("--out", "--seed"),
    "score": ("--out", "--seed", "--metrics"),
    "rank": ("--seed", "--metrics"),
    "unlearn": ("--out", "--seed"),
    "evaluate": ("--out", "--seed"),
    "experiment": ("--out", "--seed", "--metrics", "--methods"),
}
OVERRIDE_VALUES = {"--out": "flag-out", "--seed": "1", "--metrics": "PC",
                   "--methods": "fisher"}
UNREAD_OVERRIDES = [(command, flag) for command, flags in ACCEPTED_OVERRIDES.items()
                    for flag in OVERRIDE_VALUES if flag not in flags]


@pytest.fixture
def override_dir(tmp_path, monkeypatch):
    """A two-seed, two-metric, two-method config in cfg.json, a model file,
    and a target that is a training sample of both seeds."""
    monkeypatch.chdir(tmp_path)
    cfg_path = write_config(
        tmp_path, seeds=[0, 1], metrics=["EMSKSD", "PC"], top_k_each_end=1,
        methods=[*_MINI["methods"], {"method": "fisher", "alpha": 1e-5}],
        output_dir="cfg-out",
    )
    experiment.write_model_json(
        diffnet.init_network(diffnet.NetworkSpec((2, 8, 3)), 0),
        tmp_path / "model.json",
    )
    config = load_config(cfg_path)
    train_ids = [
        set(split(config.dataset.build(seed), config.test_fraction, seed)
            .train_ids.tolist())
        for seed in config.seeds
    ]
    return tmp_path, min(set.intersection(*train_ids))


def _command_argv(command, target):
    extra = {
        "unlearn": ["--method", "grad_ascent", "--target", str(target)],
        "evaluate": ["--original", "model.json", "--unlearned", "model.json",
                     "--targets", str(target)],
    }.get(command, [])
    return [command, "--config", "cfg.json", *extra]


def _csv_column(path, column):
    with path.open(newline="") as fh:
        return {row[column] for row in csv.DictReader(fh)}


class TestOverrides:
    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in ACCEPTED_OVERRIDES.items()
        for flag in flags
    ])
    def test_override_takes_effect(self, override_dir, capsys, command, flag):
        root, target = override_dir
        argv = [*_command_argv(command, target), flag, OVERRIDE_VALUES[flag]]
        assert cli.main(argv) == 0
        printed = capsys.readouterr().out.strip().split("\n")
        written = [p.relative_to(root) for p in root.rglob("*") if p.is_file()
                   and p.name not in ("cfg.json", "model.json")]
        if flag == "--out":
            assert written
            assert all(p.parts[0] == "flag-out" for p in written), written
        elif flag == "--seed" and command == "rank":
            assert len(printed) == 2  # one line per metric
            assert all(line.startswith("seed 1 ") for line in printed), printed
        elif flag == "--seed" and command == "evaluate":
            row = json.loads((root / "cfg-out" / "evaluate.jsonl").read_text())
            assert (row["seed"], row["run_id"]) == (1, "s1-evaluate")
        elif flag == "--seed":
            seeded = [p.name for p in written if re.search(r"-s\d", p.name)]
            assert seeded
            assert all("-s1" in name for name in seeded), seeded
        elif flag == "--metrics" and command == "rank":
            assert len(printed) == 2  # one line per seed
            assert all(" PC: " in line for line in printed), printed
        elif flag == "--metrics" and command == "score":
            for seed in (0, 1):
                path = root / "cfg-out" / f"rankings-s{seed}.csv"
                assert _csv_column(path, "metric") == {"PC"}
        elif flag == "--metrics":
            assert _csv_column(root / "cfg-out" / "report.csv", "metric") == {"PC"}
        else:
            assert _csv_column(root / "cfg-out" / "report.csv", "method") == {"fisher"}

    @pytest.mark.parametrize("command, flag", UNREAD_OVERRIDES)
    def test_unread_override_is_a_usage_error(self, override_dir, capsys,
                                              command, flag):
        root, target = override_dir
        argv = [*_command_argv(command, target), flag, OVERRIDE_VALUES[flag]]
        assert cli.main(argv) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (root / "cfg-out").exists()

    @pytest.mark.parametrize("command, flag, message", [
        pytest.param("rank", "--metrics", "metrics[0]: unknown metric", id="rank-metrics"),
        pytest.param("score", "--metrics", "metrics[0]: unknown metric",
                     id="score-metrics"),
        pytest.param("experiment", "--methods", "--methods: [''] have no config block",
                     id="experiment-methods"),
        pytest.param("train", "--out", "output_dir: must not be empty", id="train-out"),
        pytest.param("experiment", "--out", "output_dir: must not be empty",
                     id="experiment-out"),
    ])
    def test_empty_override_is_checked_like_the_file(self, override_dir, capsys,
                                                      command, flag, message):
        # an empty value is a value: it must not fall back to the file's
        root, target = override_dir
        assert cli.main([*_command_argv(command, target), flag, ""]) == 1
        assert message in capsys.readouterr().err
        written = [p.name for p in root.rglob("*") if p.is_file()]
        assert sorted(written) == ["cfg.json", "model.json"], written

    def test_readme_cli_table_matches_the_parser(self):
        lines = README.read_text(encoding="utf-8").splitlines()
        start = lines.index("| subcommand | overrides |") + 2  # skip the rule
        table = {}
        for line in itertools.takewhile(lambda l: l.startswith("|"), lines[start:]):
            command, flags = (cell.strip(" `") for cell in line.strip("|").split("|"))
            table[command] = tuple(f.strip(" `") for f in flags.split(",") if f.strip())
        subcommands = next(action.choices for action in cli.build_parser()._actions
                           if isinstance(action, argparse._SubParsersAction))
        assert list(table.items()) == list(ACCEPTED_OVERRIDES.items())
        assert list(table) == list(subcommands)


class TestFiniteOrFailed:
    @given(ga_lr=st.floats(1e-3, 1e6), ft_lr=st.floats(1e-3, 1e3),
           alpha=st.floats(0.0, 1e300))
    @settings(max_examples=10, deadline=None)
    def test_every_row_is_finite_and_ok_or_failed(self, ga_lr, ft_lr, alpha):
        raw = mini_config_dict(
            dataset={**_MINI["dataset"], "n_per_class": 8},
            training={"lr": 0.05, "epochs": 5, "batch_size": 8},
            metrics=["MKSD"],
            methods=[
                {"method": "grad_ascent", "lr": ga_lr, "epochs": 20,
                 "overfit_threshold": 1e9},
                {"method": "fine_tune", "lr": ft_lr, "epochs": 2, "batch_size": 8},
                {"method": "fisher", "alpha": alpha},
            ],
            top_k_each_end=1,
            expansion_ks=[0, 1],
        )
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            cfg_path = Path(tmp) / "cfg.json"
            cfg_path.write_text(json.dumps({**raw, "output_dir": str(out)}))
            code = cli.main(["experiment", "--config", str(cfg_path)])
            rows = [json.loads(line)
                    for line in (out / "reports.jsonl").read_text().splitlines()]
        assert len(rows) == 12
        for row in rows:
            if row["status"] == "ok":
                values = [v for v in row["report"].values() if not isinstance(v, list)]
                values += row["report"]["layer_distances"]
                assert all(math.isfinite(v) for v in values), row
            else:
                assert row["status"].startswith("error: "), row
        assert code == (0 if all(r["status"] == "ok" for r in rows) else 2)
