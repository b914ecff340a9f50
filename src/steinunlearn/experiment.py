"""End-to-end pipeline: train, score, rank, unlearn each target, evaluate.

One base model per seed is trained, scored, and ranked; then every
(metric, easy/difficult end, target, method, expansion size) combination is
unlearned from that same starting point and measured (`run_base`). Rows are
produced in run-key order and failures are isolated per row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, product
from pathlib import Path

import numpy as np

from . import diffnet, scoring, stein, unlearn
from .config import ExperimentConfig
from .data import LabeledDataset, SplitPlan, gather, split, write_csv, write_json_lines
from .errors import (
    ConfigurationError, DataError, NumericalError, ShapeError, SteinUnlearnError,
)
from .evaluation import UnlearnReport, accuracy, verdict

EASY = "easy"
DIFFICULT = "difficult"

# The run key (the first six, all RunRow fields), then the UnlearnReport fields.
REPORT_COLUMNS = (
    "run_id", "metric", "target_id", "easy_or_difficult", "method", "k_expansion",
    "forget_acc", "retain_acc", "test_acc", "forget_loss", "retain_loss",
    "test_loss", "total_param_distance", "activation_distance", "mia_efficacy",
    "steps_taken", "success",
)
REPORT_CSV_COLUMNS = REPORT_COLUMNS + ("status",)

# aggregate.csv groups rows by AGGREGATE_KEY and averages the report fields
# AGGREGATE_MEANS, in column order.
AGGREGATE_KEY = ("metric", "easy_or_difficult", "method", "k_expansion")
AGGREGATE_MEANS = (
    "forget_acc", "retain_acc", "test_acc", "forget_loss", "test_loss",
    "mia_efficacy", "total_param_distance",
)

@dataclass
class TrainedBase:
    """Everything the per-seed unlearning loop starts from (but not the kernel)."""

    seed: int
    ds: LabeledDataset
    plan: SplitPlan
    model: diffnet.MlpModel
    rankings: dict[str, scoring.DifficultyRanking]
    # metric -> {EASY: top-k easiest ids, DIFFICULT: top-k most difficult}, extremes first
    targets: dict[str, dict[str, np.ndarray]]
    # target id -> every other training id, most Stein-similar first
    neighbours: dict[int, np.ndarray]
    train_log: list[dict]


@dataclass
class RunRow:
    """One report row: run key, measurements, and a status."""

    run_id: str
    seed: int
    metric: str
    target_id: int
    easy_or_difficult: str
    method: str
    k_expansion: int
    report: UnlearnReport | None
    status: str

    def to_csv_values(self) -> list:
        """The REPORT_CSV_COLUMNS values; a row without a report leaves the
        measured columns blank."""
        run_key = [getattr(self, c) for c in REPORT_COLUMNS[:6]]
        measured = [getattr(self.report, c) if self.report else ""
                    for c in REPORT_COLUMNS[6:]]
        return run_key + measured + [self.status]


def check_fits(
    spec: diffnet.NetworkSpec, ds: LabeledDataset, source: str | Path | None
) -> None:
    """Reject a network whose input size differs from the dataset's feature
    count or whose output layer has fewer units than it has classes.

    `source` is the model file the spec came from, or None for the config's
    network: a config misfit is a ConfigurationError, a file's a DataError
    that names the file.
    """
    sizes, n_features = spec.layer_sizes, ds.features.shape[1]
    if sizes[0] != n_features:
        problem = (f"input size {sizes[0]} differs from the dataset's "
                   f"{n_features} features")
    elif sizes[-1] < ds.n_classes:
        problem = (f"output size {sizes[-1]} is less than the dataset's "
                   f"{ds.n_classes} classes")
    else:
        return
    if source is None:
        raise ConfigurationError(f"network.layer_sizes: {problem}")
    raise DataError(f"{source}: network.layer_sizes: {problem}")


def seed_split(config: ExperimentConfig, seed: int) -> tuple[LabeledDataset, SplitPlan]:
    """The seed's dataset and its train/test split: every command makes them here."""
    ds = config.dataset.build(seed)
    return ds, split(ds, config.test_fraction, seed)


def train_model(
    config: ExperimentConfig, seed: int
) -> tuple[LabeledDataset, SplitPlan, diffnet.MlpModel, list[dict]]:
    """Build the dataset and split, and train the base model with its log."""
    ds, plan = seed_split(config, seed)
    check_fits(config.network, ds, None)
    model = diffnet.init_network(config.network, seed)

    train_X, train_y = gather(ds, plan.train_ids)
    log: list[dict] = []

    def record(epoch: int, snapshot: diffnet.MlpModel) -> None:
        trace = diffnet.forward(snapshot, train_X)
        log.append({
            "epoch": epoch,
            "train_loss": float(trace.nll(train_y).mean()),
            "train_acc": accuracy(trace.probs, train_y),
        })

    tr = config.training
    model = diffnet.train(
        model, train_X, train_y, tr.lr, tr.epochs, tr.batch_size, seed,
        on_epoch=record,
    )
    return ds, plan, model, log


def train_base(config: ExperimentConfig, seed: int, **options) -> TrainedBase:
    """Train the base model, then score it: score_base, with its `options`."""
    return score_base(config, seed, *train_model(config, seed), **options)


def score_base(
    config: ExperimentConfig,
    seed: int,
    ds: LabeledDataset,
    plan: SplitPlan,
    model: diffnet.MlpModel,
    train_log: list[dict],
    named: tuple[int, ...] = (),
    kernel_csv: Path | None = None,
) -> TrainedBase:
    """Score `model` on the training split of `plan` and rank every metric.

    The Stein kernel dies with this call: it leaves only the neighbour order of
    each metric's targets and of the `named` ids (and `kernel_csv`, if given).
    """
    train_X, train_y = gather(ds, plan.train_ids)
    bandwidth = stein.median_bandwidth(train_X)
    table = stein.score_table(model, train_X, train_y, plan.train_ids)
    kernel = stein.stein_kernel_matrix(
        train_X, table.input_scores, bandwidth, plan.train_ids
    )
    # MSKSD and EMSKSD share one MSKSD vector
    msksd_scores = (
        scoring.msksd(kernel, config.msksd_global)
        if {"MSKSD", "EMSKSD"} & set(config.metrics) else None
    )
    rankings = {
        metric: scoring.compute_metric(
            metric, table, kernel, train_y, msksd_scores, config.entropy_floor
        )
        for metric in config.metrics
    }
    top_k = config.top_k_each_end
    targets = {m: {EASY: r.easy_to_hard[:top_k], DIFFICULT: r.easy_to_hard[::-1][:top_k]}
               for m, r in rankings.items()}
    selected = [ids.tolist() for ends in targets.values() for ids in ends.values()]
    neighbours = {t: kernel.neighbours(t) for t in dict.fromkeys(chain(named, *selected))}
    if kernel_csv is not None:
        stein.kernel_matrix_to_csv(kernel, kernel_csv)
    return TrainedBase(seed, ds, plan, model, rankings, targets, neighbours, train_log)


def run_single(
    base: TrainedBase,
    target_id: int,
    method_cfg: unlearn.UnlearnConfig,
    k: int,
    config: ExperimentConfig,
) -> tuple[UnlearnReport, np.ndarray, unlearn.UnlearnOutcome]:
    """Unlearn one expanded target set and measure the outcome."""
    forget_ids = unlearn.expand_forget_set(target_id, base.neighbours[target_id], k)
    plan = base.plan.with_forget(forget_ids)
    method = getattr(unlearn, unlearn.METHOD_FUNCTIONS[method_cfg.method])
    outcome = method(base.model, base.ds, plan, method_cfg)
    return measure(base.model, outcome, base.ds, plan, config), forget_ids, outcome


def measure(
    original: diffnet.MlpModel,
    outcome: unlearn.UnlearnOutcome,
    ds: LabeledDataset,
    plan: SplitPlan,
    config: ExperimentConfig,
) -> UnlearnReport:
    """The verdict on `outcome` over the forget, retain and test splits of `plan`."""
    return verdict(
        original,
        outcome,
        forget=gather(ds, plan.forget_ids),
        retain=gather(ds, plan.retain_ids),
        test=gather(ds, plan.test_ids),
        epsilon=config.epsilon,
        calibrate_on_original=config.mia_calibrate_on_original,
    )


def run_base(config: ExperimentConfig, base: TrainedBase) -> list[RunRow]:
    """Every run of one base, in deterministic run-key order; a failed row
    has no report and a status naming the error."""
    rows: list[RunRow] = []
    for metric in config.metrics:
        for end in (EASY, DIFFICULT):
            for target, method_cfg, k in product(
                base.targets[metric][end].tolist(), config.methods, config.expansion_ks
            ):
                try:
                    report = run_single(base, target, method_cfg, k, config)[0]
                    status = "ok"
                except (SteinUnlearnError, FloatingPointError) as exc:
                    report, status = None, f"error: {exc}"
                rows.append(RunRow(
                    f"s{base.seed}-{metric}-{end}-t{target}-{method_cfg.method}-k{k}",
                    base.seed, metric, target, end, method_cfg.method, k,
                    report, status,
                ))
    return rows


def aggregate_rows(rows: list[RunRow]) -> list[dict]:
    """Mean outcome per (metric, end, method, k) over all successful runs."""
    groups: dict[tuple, list[UnlearnReport]] = {}  # in first-seen order
    for row in rows:
        if row.report is not None:
            key = tuple(getattr(row, c) for c in AGGREGATE_KEY)
            groups.setdefault(key, []).append(row.report)
    return [
        {
            **dict(zip(AGGREGATE_KEY, key)),
            "n_runs": len(reports),
            **{f"mean_{name}": float(np.mean([getattr(r, name) for r in reports]))
               for name in AGGREGATE_MEANS},
            "success_rate": float(np.mean([r.success for r in reports])),
        }
        for key, reports in groups.items()
    ]


def write_report_csv(rows: list[RunRow], path: str | Path) -> None:
    write_csv(path, REPORT_CSV_COLUMNS, (row.to_csv_values() for row in rows))


def write_reports_jsonl(rows: list[RunRow], path: str | Path) -> None:
    """One JSON object per run, in row order."""
    write_json_lines(path, (
        {**vars(row), "report": vars(row.report) if row.report else None}
        for row in rows
    ))


def write_aggregate_csv(aggregates: list[dict], path: str | Path) -> None:
    """The aggregates as CSV; an empty file when no row succeeded."""
    if not aggregates:
        Path(path).write_text("", encoding="utf-8")
        return
    write_csv(path, aggregates[0].keys(), (agg.values() for agg in aggregates))


def write_train_log_csv(log: list[dict], path: str | Path) -> None:
    columns = ("epoch", "train_loss", "train_acc")
    write_csv(path, columns, ([entry[c] for c in columns] for entry in log))


def write_model_json(model: diffnet.MlpModel, path: str | Path) -> None:
    write_json_lines(path, [{
        "layer_sizes": list(model.spec.layer_sizes),
        "activation": model.spec.activation,
        "params": model.params.tolist(),
    }])


def _is_number_list(value, types) -> bool:
    """Whether value is a JSON list of numbers of the given types; a bool is none."""
    return isinstance(value, list) and all(
        isinstance(v, types) and not isinstance(v, bool) for v in value
    )


def read_model_json(path: str | Path) -> diffnet.MlpModel:
    """Load a model written by write_model_json; DataError names what is wrong."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise DataError(f"{path}: not a model file: {exc}") from exc
    for key in ("layer_sizes", "activation", "params"):
        if not isinstance(obj, dict) or key not in obj:
            raise DataError(f"{path}: not a model file: no {key!r} field")
    if not _is_number_list(obj["layer_sizes"], int):
        raise DataError(f"{path}: layer_sizes: expected a list of integers")
    try:
        spec = diffnet.NetworkSpec(tuple(obj["layer_sizes"]), obj["activation"])
    except ConfigurationError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if not _is_number_list(obj["params"], (int, float)):
        raise DataError(f"{path}: params: expected a list of numbers")
    try:
        return diffnet.MlpModel(spec, np.asarray(obj["params"], dtype=np.float64))
    except (OverflowError, ShapeError, NumericalError) as exc:
        raise DataError(f"{path}: params: {exc}") from exc
