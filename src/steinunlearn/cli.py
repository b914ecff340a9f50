"""Command-line entry points.

Subcommands: train, score, rank, unlearn, evaluate, experiment. Exit codes:
0 full success, 1 configuration or IO failure, 2 when some experiment rows
failed but the run completed.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import experiment as exp
from . import scoring, stein, unlearn
from .config import ExperimentConfig, dump_config, load_config
from .data import gather, split
from .errors import ConfigurationError, SteinUnlearnError
from .evaluation import verdict

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PARTIAL = 2


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    """The config with the command-line overrides applied.

    dataclasses.replace runs ExperimentConfig's own value checks, so an
    override is validated exactly like the same value in the file.
    """
    changes = {}
    if getattr(args, "seed", None) is not None:
        changes["seeds"] = (args.seed,)
    if getattr(args, "metrics", None):
        changes["metrics"] = tuple(m.strip() for m in args.metrics.split(","))
    if getattr(args, "methods", None):
        wanted = {m.strip() for m in args.methods.split(",")}
        kept = tuple(m for m in config.methods if m.method in wanted)
        missing = wanted - {m.method for m in kept}
        if missing:
            raise ConfigurationError(
                f"--methods: {sorted(missing)} have no config block in the file"
            )
        changes["methods"] = kept
    if getattr(args, "out", None):
        changes["output_dir"] = args.out
    return dataclasses.replace(config, **changes) if changes else config


def _out_dir(config: ExperimentConfig) -> Path:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_train(config: ExperimentConfig) -> int:
    out = _out_dir(config)
    for seed in config.seeds:
        base = exp.train_base(config, seed)
        exp.write_model_json(base.model, out / f"model-s{seed}.json")
        exp.write_train_log_csv(base.train_log, out / f"trainlog-s{seed}.csv")
        final = base.train_log[-1] if base.train_log else {"train_acc": float("nan")}
        print(f"seed {seed}: trained, final train_acc="
              f"{final['train_acc']:.4f} -> {out / f'model-s{seed}.json'}")
    return EXIT_OK


def cmd_score(config: ExperimentConfig, model_path: str | None,
              kernel_csv: bool) -> int:
    out = _out_dir(config)
    for seed in config.seeds:
        if model_path:
            ds = config.dataset.build(seed)
            plan = split(ds, config.test_fraction, seed)
            model = exp.read_model_json(model_path)
            base = exp.score_base(config, seed, ds, plan, model, [])
        else:
            base = exp.train_base(config, seed)
        path = out / f"rankings-s{seed}.csv"
        scoring.rankings_to_csv([base.rankings[m] for m in config.metrics], path)
        if kernel_csv:
            stein.kernel_matrix_to_csv(base.kernel, out / f"kernel-s{seed}.csv")
        print(f"seed {seed}: wrote {path}")
    return EXIT_OK


def cmd_rank(config: ExperimentConfig) -> int:
    for seed in config.seeds:
        base = exp.train_base(config, seed)
        for metric in config.metrics:
            targets = exp.select_targets(base.rankings[metric], config.top_k_each_end)
            easy = ",".join(str(int(i)) for i in targets[exp.EASY])
            hard = ",".join(str(int(i)) for i in targets[exp.DIFFICULT])
            print(f"seed {seed} {metric}: easiest=[{easy}] most_difficult=[{hard}]")
    return EXIT_OK


def cmd_unlearn(config: ExperimentConfig, method: str, target: int, k: int) -> int:
    blocks = [m for m in config.methods if m.method == method]
    if not blocks:
        raise ConfigurationError(f"no config block for method {method!r}")
    out = _out_dir(config)
    seed = config.seeds[0]
    base = exp.train_base(config, seed)
    report, forget_ids, outcome = exp.run_single(
        base, target, blocks[0], k, config.epsilon,
        config.mia_calibrate_on_original,
    )
    model_path = out / f"unlearned-s{seed}-{method}-t{target}-k{k}.json"
    exp.write_model_json(outcome.unlearned, model_path)
    rows = [exp.RunRow(
        run_id=f"s{seed}-manual-t{target}-{method}-k{k}",
        seed=seed, metric="manual", target_id=target,
        easy_or_difficult="manual", method=method, k_expansion=k,
        report=report, status="ok",
    )]
    exp.write_reports_jsonl(rows, out / f"unlearn-s{seed}-{method}-t{target}-k{k}.jsonl")
    forget = ",".join(str(int(i)) for i in forget_ids)
    print(f"unlearned target {target} (forget set [{forget}]): "
          f"forget_acc={report.forget_acc:.2f} test_acc={report.test_acc:.4f} "
          f"success={report.success}")
    print(f"wrote {model_path}")
    return EXIT_OK


def cmd_evaluate(config: ExperimentConfig, original_path: str,
                 unlearned_path: str, target_text: str) -> int:
    try:
        targets = [int(t) for t in target_text.split(",")]
    except ValueError:
        raise ConfigurationError(
            f"--targets: expected comma-separated sample ids, got {target_text!r}"
        ) from None
    out = _out_dir(config)
    seed = config.seeds[0]
    ds = config.dataset.build(seed)
    plan = split(ds, config.test_fraction, seed).with_forget(
        np.asarray(targets, dtype=np.int64)
    )
    original = exp.read_model_json(original_path)
    unlearned = exp.read_model_json(unlearned_path)
    outcome = unlearn.UnlearnOutcome(unlearned, 0, 0.0)
    report = verdict(
        original, outcome,
        forget=gather(ds, plan.forget_ids),
        retain=gather(ds, plan.retain_ids),
        test=gather(ds, plan.test_ids),
        epsilon=config.epsilon,
        calibrate_on_original=config.mia_calibrate_on_original,
    )
    rows = [exp.RunRow(
        run_id=f"s{seed}-evaluate", seed=seed, metric="manual",
        target_id=targets[0], easy_or_difficult="manual", method="manual",
        k_expansion=len(targets) - 1, report=report, status="ok",
    )]
    exp.write_reports_jsonl(rows, out / "evaluate.jsonl")
    print(f"forget_acc={report.forget_acc:.2f} retain_acc={report.retain_acc:.4f} "
          f"test_acc={report.test_acc:.4f} mia={report.mia_efficacy:.2f} "
          f"success={report.success}")
    return EXIT_OK


def cmd_experiment(config: ExperimentConfig) -> int:
    out = _out_dir(config)
    bases = [exp.train_base(config, seed) for seed in config.seeds]
    for base in bases:
        exp.write_model_json(base.model, out / f"model-s{base.seed}.json")
        exp.write_train_log_csv(base.train_log, out / f"trainlog-s{base.seed}.csv")
        scoring.rankings_to_csv(
            [base.rankings[m] for m in config.metrics],
            out / f"rankings-s{base.seed}.csv",
        )
    rows = exp.run_experiment(config, bases)
    exp.write_report_csv(rows, out / "report.csv")
    exp.write_reports_jsonl(rows, out / "reports.jsonl")
    exp.write_aggregate_csv(exp.aggregate_rows(rows), out / "aggregate.csv")
    (out / "config.json").write_text(dump_config(config), encoding="utf-8")
    failures = sum(1 for r in rows if r.status != "ok")
    print(f"{len(rows)} runs, {failures} failed -> {out / 'report.csv'}")
    return EXIT_PARTIAL if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinunlearn",
        description="Score per-sample unlearning difficulty and validate it by "
                    "running unlearning methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="single seed (overrides config)")
        p.add_argument("--metrics", help="comma-separated metric override")
        p.add_argument("--methods", help="comma-separated method override")

    common(sub.add_parser("train", help="train the base model per seed"))

    p_score = sub.add_parser("score", help="write per-sample difficulty rankings")
    common(p_score)
    p_score.add_argument("--model", help="score an existing model file instead")
    p_score.add_argument("--kernel-csv", action="store_true",
                         help="also dump the Stein kernel matrix")

    common(sub.add_parser("rank", help="print top-k easiest/most difficult ids"))

    p_unlearn = sub.add_parser("unlearn", help="unlearn one target sample")
    common(p_unlearn)
    p_unlearn.add_argument("--method", required=True, choices=unlearn.METHODS)
    p_unlearn.add_argument("--target", required=True, type=int)
    p_unlearn.add_argument("--k", type=int, default=0,
                           help="expansion size (similar samples to include)")

    p_eval = sub.add_parser("evaluate", help="evaluate an unlearned model file")
    common(p_eval)
    p_eval.add_argument("--original", required=True, help="original model JSON")
    p_eval.add_argument("--unlearned", required=True, help="unlearned model JSON")
    p_eval.add_argument("--targets", required=True,
                        help="comma-separated forget sample ids")

    common(sub.add_parser("experiment", help="full train/score/unlearn/evaluate run"))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _apply_overrides(load_config(args.config), args)
        if args.command == "train":
            return cmd_train(config)
        if args.command == "score":
            return cmd_score(config, args.model, args.kernel_csv)
        if args.command == "rank":
            return cmd_rank(config)
        if args.command == "unlearn":
            return cmd_unlearn(config, args.method, args.target, args.k)
        if args.command == "evaluate":
            return cmd_evaluate(config, args.original, args.unlearned, args.targets)
        return cmd_experiment(config)
    except (SteinUnlearnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
