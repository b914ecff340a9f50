"""Command-line entry points.

Subcommands: train, score, rank, unlearn, evaluate, experiment. Exit codes:
0 full success, 1 usage, configuration or IO failure, 2 when some experiment
rows failed but the run completed. A command that loops over seeds runs each
seed in its own `_*_seed` call, so that seed's base is freed before the next
seed's base is built; the n x n Stein kernel never outlives scoring.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import experiment as exp
from . import scoring, unlearn
from .config import ExperimentConfig, dump_config, load_config
from .data import split
from .errors import ArgumentError, ConfigurationError, DataError, SteinUnlearnError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PARTIAL = 2

# Config overrides and their argparse options; each subcommand takes the ones it reads.
OVERRIDES = {
    "--out": {"help": "output directory (overrides config)"},
    "--seed": {"type": int, "help": "single seed (overrides config)"},
    "--metrics": {"help": "comma-separated metric override"},
    "--methods": {"help": "comma-separated method override"},
}


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    """The config with the command-line overrides applied.

    dataclasses.replace runs ExperimentConfig's own value checks, so an
    override is validated exactly like the same value in the file.
    """
    changes = {}
    if getattr(args, "seed", None) is not None:
        changes["seeds"] = (args.seed,)
    if getattr(args, "metrics", None) is not None:
        changes["metrics"] = tuple(m.strip() for m in args.metrics.split(","))
    if getattr(args, "methods", None) is not None:
        wanted = {m.strip() for m in args.methods.split(",")}
        kept = tuple(m for m in config.methods if m.method in wanted)
        missing = wanted - {m.method for m in kept}
        if missing:
            raise ConfigurationError(
                f"--methods: {sorted(missing)} have no config block in the file"
            )
        changes["methods"] = kept
    if getattr(args, "out", None) is not None:
        changes["output_dir"] = args.out
    return dataclasses.replace(config, **changes) if changes else config


def _out_dir(config: ExperimentConfig) -> Path:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_train(config: ExperimentConfig) -> int:
    out = _out_dir(config)
    for seed in config.seeds:
        _, _, model, log = exp.train_model(config, seed)
        exp.write_model_json(model, out / f"model-s{seed}.json")
        exp.write_train_log_csv(log, out / f"trainlog-s{seed}.csv")
        print(f"seed {seed}: trained, final train_acc="
              f"{log[-1]['train_acc']:.4f} -> {out / f'model-s{seed}.json'}")
    return EXIT_OK


def cmd_score(config: ExperimentConfig, model_path: str | None,
              kernel_csv: bool) -> int:
    out = _out_dir(config)
    for seed in config.seeds:
        _score_seed(config, seed, model_path, kernel_csv, out)
    return EXIT_OK


def _score_seed(config: ExperimentConfig, seed: int, model_path: str | None,
                kernel_csv: bool, out: Path) -> None:
    """Score one seed's base and write its rankings (and kernel)."""
    kernel_path = out / f"kernel-s{seed}.csv" if kernel_csv else None
    if model_path:
        ds = config.dataset.build(seed)
        plan = split(ds, config.test_fraction, seed)
        model = exp.read_model_json(model_path)
        exp.check_fits(model.spec, ds, model_path)
        base = exp.score_base(config, seed, ds, plan, model, [], kernel_csv=kernel_path)
    else:
        base = exp.train_base(config, seed, kernel_csv=kernel_path)
    path = out / f"rankings-s{seed}.csv"
    scoring.rankings_to_csv([base.rankings[m] for m in config.metrics], path)
    print(f"seed {seed}: wrote {path}")


def cmd_rank(config: ExperimentConfig) -> int:
    for seed in config.seeds:
        _rank_seed(config, seed)
    return EXIT_OK


def _rank_seed(config: ExperimentConfig, seed: int) -> None:
    """Print one seed's top-k easiest and most difficult ids per metric."""
    base = exp.train_base(config, seed)
    for metric in config.metrics:
        targets = base.targets[metric]
        easy = ",".join(str(int(i)) for i in targets[exp.EASY])
        hard = ",".join(str(int(i)) for i in targets[exp.DIFFICULT])
        print(f"seed {seed} {metric}: easiest=[{easy}] most_difficult=[{hard}]")


def cmd_unlearn(config: ExperimentConfig, method: str, target: int, k: int) -> int:
    method_cfg = next((m for m in config.methods if m.method == method), None)
    if method_cfg is None:
        raise ConfigurationError(f"no config block for method {method!r}")
    # rejected before training; a k beyond the training size fails in expand_forget_set
    if k < 0:
        raise ArgumentError(f"k must be >= 0, got {k}")
    out = _out_dir(config)
    seed = config.seeds[0]
    # only the target's neighbour order is read, so no metric is ranked
    base = exp.train_base(dataclasses.replace(config, metrics=()), seed, named=(target,))
    report, forget_ids, outcome = exp.run_single(base, target, method_cfg, k, config)
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
    plan = split(ds, config.test_fraction, seed).with_forget(targets)
    original = exp.read_model_json(original_path)
    unlearned = exp.read_model_json(unlearned_path)
    exp.check_fits(original.spec, ds, original_path)
    exp.check_fits(unlearned.spec, ds, unlearned_path)
    if unlearned.spec != original.spec:
        raise DataError(
            f"{unlearned_path}: {unlearned.spec} differs from {original_path}'s "
            f"{original.spec}"
        )
    outcome = unlearn.UnlearnOutcome(unlearned, 0)
    report = exp.measure(original, outcome, ds, plan, config)
    rows = [exp.RunRow(
        run_id=f"s{seed}-evaluate", seed=seed, metric="manual",
        target_id=targets[0], easy_or_difficult="manual", method="manual",
        k_expansion=plan.forget_ids.size - 1, report=report, status="ok",
    )]
    exp.write_reports_jsonl(rows, out / "evaluate.jsonl")
    print(f"forget_acc={report.forget_acc:.2f} retain_acc={report.retain_acc:.4f} "
          f"test_acc={report.test_acc:.4f} mia={report.mia_efficacy:.2f} "
          f"success={report.success}")
    return EXIT_OK


def cmd_experiment(config: ExperimentConfig) -> int:
    out = _out_dir(config)
    rows = [row for seed in config.seeds
            for row in _experiment_seed(config, seed, out)]
    exp.write_report_csv(rows, out / "report.csv")
    exp.write_reports_jsonl(rows, out / "reports.jsonl")
    exp.write_aggregate_csv(exp.aggregate_rows(rows), out / "aggregate.csv")
    (out / "config.json").write_text(
        dump_config(config), encoding="utf-8", newline="\n"
    )
    failures = sum(1 for r in rows if r.status != "ok")
    print(f"{len(rows)} runs, {failures} failed -> {out / 'report.csv'}")
    return EXIT_PARTIAL if failures else EXIT_OK


def _experiment_seed(
    config: ExperimentConfig, seed: int, out: Path
) -> list[exp.RunRow]:
    """Build one seed's base, write its files and run its rows."""
    base = exp.train_base(config, seed)
    exp.write_model_json(base.model, out / f"model-s{seed}.json")
    exp.write_train_log_csv(base.train_log, out / f"trainlog-s{seed}.csv")
    scoring.rankings_to_csv(
        [base.rankings[m] for m in config.metrics], out / f"rankings-s{seed}.csv"
    )
    return exp.run_base(config, base)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinunlearn",
        description="Score per-sample unlearning difficulty and validate it by "
                    "running unlearning methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, *overrides: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="JSON experiment config")
        for flag in overrides:
            p.add_argument(flag, **OVERRIDES[flag])
        return p

    command("train", "train the base model per seed", "--out", "--seed")

    p_score = command("score", "write per-sample difficulty rankings",
                      "--out", "--seed", "--metrics")
    p_score.add_argument("--model", help="score an existing model file instead")
    p_score.add_argument("--kernel-csv", action="store_true",
                         help="also dump the Stein kernel matrix")

    command("rank", "print top-k easiest/most difficult ids", "--seed", "--metrics")

    p_unlearn = command("unlearn", "unlearn one target sample", "--out", "--seed")
    p_unlearn.add_argument("--method", required=True, choices=unlearn.METHODS)
    p_unlearn.add_argument("--target", required=True, type=int)
    p_unlearn.add_argument("--k", type=int, default=0,
                           help="expansion size (similar samples to include)")

    p_eval = command("evaluate", "evaluate an unlearned model file", "--out", "--seed")
    p_eval.add_argument("--original", required=True, help="original model JSON")
    p_eval.add_argument("--unlearned", required=True, help="unlearned model JSON")
    p_eval.add_argument("--targets", required=True,
                        help="comma-separated forget sample ids")

    command("experiment", "full train/score/unlearn/evaluate run", *OVERRIDES)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 here means failed rows
        return EXIT_CONFIG if exc.code else EXIT_OK
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
