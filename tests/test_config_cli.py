"""Config validation, canonicalization, CLI subcommands, pipeline behavior."""

import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinunlearn import cli, diffnet, experiment
from steinunlearn.config import ExperimentConfig, dump_config, load_config
from steinunlearn.errors import ConfigurationError, NumericalError


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


class TestExperimentCommand:
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

        monkeypatch.setitem(experiment.METHOD_RUNNERS, "fisher", exploding)
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


_MODEL_SPEC = {"layer_sizes": [2, 8, 3], "activation": "relu"}

# Each case: the text of a file passed as a model, and what the error must say.
BAD_MODEL_FILES = [
    pytest.param("not json", r"not a model file", id="not-json"),
    pytest.param(json.dumps(_MINI), r"not a model file: no 'layer_sizes' field",
                 id="config-file"),
    pytest.param(json.dumps({**_MODEL_SPEC, "params": ["a"] * 51}),
                 r"params: could not convert", id="string-params"),
    pytest.param(json.dumps({**_MODEL_SPEC, "layer_sizes": ["a", 3], "params": []}),
                 r"layer_sizes: expected a list of integers", id="string-layer-size"),
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
