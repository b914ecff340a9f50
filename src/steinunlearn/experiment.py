"""End-to-end pipeline: train, score, rank, unlearn each target, evaluate.

One base model per seed is trained, scored, and ranked; then every
(metric, easy/difficult end, target, method, expansion size) combination is
unlearned from that same starting point and measured. Rows are produced in
run-key order and failures are isolated per row.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import diffnet, scoring, stein, unlearn
from .config import ExperimentConfig
from .data import LabeledDataset, SplitPlan, gather, split
from .errors import (
    ConfigurationError, DataError, NumericalError, SteinUnlearnError,
)
from .evaluation import REPORT_COLUMNS, UnlearnReport, accuracy, verdict

EASY = "easy"
DIFFICULT = "difficult"

REPORT_CSV_COLUMNS = REPORT_COLUMNS + ("status",)

# Indirection point for the four unlearning procedures; tests may patch
# entries to inject failures.
METHOD_RUNNERS = {
    "grad_ascent": lambda model, ds, plan, cfg: unlearn.grad_ascent(
        model, ds, plan.forget_ids, cfg
    ),
    "fine_tune": lambda model, ds, plan, cfg: unlearn.fine_tune(
        model, ds, plan.retain_ids, cfg
    ),
    "fisher": lambda model, ds, plan, cfg: unlearn.fisher_forget(
        model, ds, plan.retain_ids, cfg
    ),
    "retrain": lambda model, ds, plan, cfg: unlearn.retrain(
        model.spec, ds, plan.retain_ids, cfg
    ),
}


@dataclass
class TrainedBase:
    """Everything the per-seed unlearning loop starts from."""

    seed: int
    ds: LabeledDataset
    plan: SplitPlan
    model: diffnet.MlpModel
    bandwidth: float
    table: stein.ScoreTable
    kernel: stein.SteinKernelMatrix
    rankings: dict[str, scoring.DifficultyRanking]
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
        base = [self.run_id, self.metric, self.target_id, self.easy_or_difficult,
                self.method, self.k_expansion]
        if self.report is None:
            values = base + [""] * 11
        else:
            r = self.report
            values = base + [
                repr(r.forget_acc), repr(r.retain_acc), repr(r.test_acc),
                repr(r.forget_loss), repr(r.retain_loss), repr(r.test_loss),
                repr(r.total_param_distance), repr(r.activation_distance),
                repr(r.mia_efficacy), r.steps_taken, r.success,
            ]
        values.append(self.status)
        return values


def train_base(config: ExperimentConfig, seed: int) -> TrainedBase:
    """Build the dataset, train the base model, score and rank every metric."""
    ds = config.dataset.build(seed)
    plan = split(ds, config.test_fraction, seed)
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
    return score_base(config, seed, ds, plan, model, log)


def score_base(
    config: ExperimentConfig,
    seed: int,
    ds: LabeledDataset,
    plan: SplitPlan,
    model: diffnet.MlpModel,
    train_log: list[dict],
) -> TrainedBase:
    """Score `model` on the training split of `plan` and rank every metric."""
    train_X, train_y = gather(ds, plan.train_ids)
    bandwidth = stein.median_bandwidth(train_X)
    table = stein.score_table(model, ds, plan.train_ids)
    kernel = stein.stein_kernel_matrix(ds, table, bandwidth)
    rankings = {
        metric: scoring.compute_metric(
            metric, table, kernel, train_y,
            entropy_floor=config.entropy_floor, msksd_global=config.msksd_global,
        )
        for metric in config.metrics
    }
    return TrainedBase(
        seed, ds, plan, model, bandwidth, table, kernel, rankings, train_log
    )


def select_targets(
    ranking: scoring.DifficultyRanking, top_k: int
) -> dict[str, np.ndarray]:
    """Top-k easiest and top-k most difficult sample ids, extremes first."""
    return {EASY: ranking.easiest(top_k), DIFFICULT: ranking.hardest(top_k)}


def run_single(
    base: TrainedBase,
    target_id: int,
    method_cfg: unlearn.UnlearnConfig,
    k: int,
    epsilon: float,
    calibrate_on_original: bool = False,
) -> tuple[UnlearnReport, np.ndarray, unlearn.UnlearnOutcome]:
    """Unlearn one expanded target set and measure the outcome."""
    forget_ids = unlearn.expand_forget_set(target_id, base.kernel, k)
    plan = base.plan.with_forget(forget_ids)
    runner = METHOD_RUNNERS[method_cfg.method]
    outcome = runner(base.model, base.ds, plan, method_cfg)
    report = verdict(
        base.model,
        outcome,
        forget=gather(base.ds, plan.forget_ids),
        retain=gather(base.ds, plan.retain_ids),
        test=gather(base.ds, plan.test_ids),
        epsilon=epsilon,
        calibrate_on_original=calibrate_on_original,
    )
    return report, forget_ids, outcome


def run_experiment(
    config: ExperimentConfig,
    bases: list[TrainedBase] | None = None,
) -> list[RunRow]:
    """All runs for all seeds, in deterministic run-key order."""
    if bases is None:
        bases = [train_base(config, seed) for seed in config.seeds]
    rows: list[RunRow] = []
    for base in bases:
        max_k = base.plan.train_ids.size - 1
        for metric in config.metrics:
            targets = select_targets(base.rankings[metric], config.top_k_each_end)
            for end in (EASY, DIFFICULT):
                for target in targets[end]:
                    for method_cfg in config.methods:
                        for k in config.expansion_ks:
                            run_id = (
                                f"s{base.seed}-{metric}-{end}-t{int(target)}-"
                                f"{method_cfg.method}-k{k}"
                            )
                            if k > max_k:
                                rows.append(RunRow(
                                    run_id, base.seed, metric, int(target), end,
                                    method_cfg.method, k, None,
                                    f"error: k={k} exceeds training size {max_k + 1}",
                                ))
                                continue
                            try:
                                report, _, _ = run_single(
                                    base, int(target), method_cfg, k, config.epsilon,
                                    config.mia_calibrate_on_original,
                                )
                                rows.append(RunRow(
                                    run_id, base.seed, metric, int(target), end,
                                    method_cfg.method, k, report, "ok",
                                ))
                            except (SteinUnlearnError, FloatingPointError) as exc:
                                rows.append(RunRow(
                                    run_id, base.seed, metric, int(target), end,
                                    method_cfg.method, k, None, f"error: {exc}",
                                ))
    return rows


def aggregate_rows(rows: list[RunRow]) -> list[dict]:
    """Mean outcome per (metric, end, method, k) over all successful runs."""
    groups: dict[tuple, list[UnlearnReport]] = {}
    order: list[tuple] = []
    for row in rows:
        if row.report is None:
            continue
        key = (row.metric, row.easy_or_difficult, row.method, row.k_expansion)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row.report)
    out = []
    for key in order:
        reports = groups[key]
        out.append({
            "metric": key[0],
            "easy_or_difficult": key[1],
            "method": key[2],
            "k_expansion": key[3],
            "n_runs": len(reports),
            "mean_forget_acc": float(np.mean([r.forget_acc for r in reports])),
            "mean_retain_acc": float(np.mean([r.retain_acc for r in reports])),
            "mean_test_acc": float(np.mean([r.test_acc for r in reports])),
            "mean_forget_loss": float(np.mean([r.forget_loss for r in reports])),
            "mean_test_loss": float(np.mean([r.test_loss for r in reports])),
            "mean_mia_efficacy": float(np.mean([r.mia_efficacy for r in reports])),
            "mean_total_param_distance": float(
                np.mean([r.total_param_distance for r in reports])
            ),
            "success_rate": float(np.mean([r.success for r in reports])),
        })
    return out


def write_report_csv(rows: list[RunRow], path: str | Path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_CSV_COLUMNS)
        for row in rows:
            writer.writerow(row.to_csv_values())


def write_reports_jsonl(rows: list[RunRow], path: str | Path) -> None:
    """One JSON object per run, in row order."""
    lines = []
    for row in rows:
        obj = {
            "run_id": row.run_id,
            "seed": row.seed,
            "metric": row.metric,
            "target_id": row.target_id,
            "easy_or_difficult": row.easy_or_difficult,
            "method": row.method,
            "k_expansion": row.k_expansion,
            "status": row.status,
            "report": row.report.to_json_dict() if row.report else None,
        }
        lines.append(json.dumps(obj, sort_keys=True))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_aggregate_csv(aggregates: list[dict], path: str | Path) -> None:
    if not aggregates:
        Path(path).write_text("", encoding="utf-8")
        return
    columns = list(aggregates[0].keys())
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for agg in aggregates:
            writer.writerow(
                [repr(v) if isinstance(v, float) else v
                 for v in (agg[c] for c in columns)]
            )


def write_train_log_csv(log: list[dict], path: str | Path) -> None:
    lines = ["epoch,train_loss,train_acc"]
    for entry in log:
        lines.append(
            f"{entry['epoch']},{repr(float(entry['train_loss']))},"
            f"{repr(float(entry['train_acc']))}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_model_json(model: diffnet.MlpModel, path: str | Path) -> None:
    obj = {
        "layer_sizes": list(model.spec.layer_sizes),
        "activation": model.spec.activation,
        "params": [float(v) for v in model.params],
    }
    Path(path).write_text(
        json.dumps(obj, sort_keys=True) + "\n", encoding="utf-8", newline="\n"
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
    try:
        spec = diffnet.NetworkSpec(tuple(obj["layer_sizes"]), obj["activation"])
    except ConfigurationError as exc:
        raise DataError(f"{path}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: layer_sizes: expected a list of integers") from exc
    try:
        params = np.asarray(obj["params"], dtype=np.float64)
        return diffnet.MlpModel(spec, params, diffnet.build_layout(spec))
    except (TypeError, ValueError, NumericalError) as exc:
        raise DataError(f"{path}: params: {exc}") from exc
