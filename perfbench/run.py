#!/usr/bin/env python3
"""Benchmark of `steinunlearn experiment` on generated workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload protocol --seed 0 --seconds 36 --trace 0

Each experiment runs in a fresh interpreter (perfbench/child.py) with BLAS
pinned to one thread, a fixed PYTHONHASHSEED and a fresh output directory
under .perfbench_out/. Workloads run one at a time. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics of a traced run with `--trace 1`. perfbench/README.md describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"
DIGESTS = BENCH_DIR / "digests.json"
OUT_ROOT = Path(".perfbench_out")

DEFAULT_SEED = 0
SETUP_STARTS = 5
POLL_S = 0.02
RUN_DEADLINE_S = 170.0
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

ALL_METRICS = ["MKSD", "MSKSD", "SSN", "EMSKSD", "PC"]
BLOBS_2D = {"type": "blobs", "n_per_class": 250,
            "centers": [[0, 0], [4, 0], [2, 3.46]], "std": 0.6}
NET_2D = {"layer_sizes": [2, 32, 32, 3], "activation": "relu"}
BASE_2D = {"lr": 0.1, "epochs": 400, "batch_size": 32}
GRAD_ASCENT = {"method": "grad_ascent", "lr": 0.01, "epochs": 200,
               "overfit_threshold": 5.0}
# With threshold 5 about half of the ascents stop early, at a step that depends
# on the experiment seed, and the seed moves sweep's total steps by +-20%. At
# 1e6 only the few ascents that blow up stop early, and the total moves by +-8%.
GRAD_ASCENT_FIXED = {"method": "grad_ascent", "lr": 0.01, "epochs": 120,
                     "overfit_threshold": 1e6}
FINE_TUNE = {"method": "fine_tune", "lr": 0.1, "epochs": 5, "batch_size": 32}
FISHER = {"method": "fisher", "alpha": 1e-6}
RETRAIN = {"method": "retrain", "lr": 0.1, "epochs": 400, "batch_size": 32}


def _experiment_seeds(rng: random.Random, count: int) -> list[int]:
    return [rng.randrange(1_000_000) for _ in range(count)]


def protocol_config(rng: random.Random) -> dict:
    return {
        "dataset": BLOBS_2D, "network": NET_2D, "training": BASE_2D,
        "test_fraction": 0.2, "metrics": ALL_METRICS,
        "methods": [GRAD_ASCENT, RETRAIN],
        "top_k_each_end": 1, "expansion_ks": [0, 10],
        "seeds": _experiment_seeds(rng, 1),
    }


def sweep_config(rng: random.Random) -> dict:
    return {
        "dataset": BLOBS_2D, "network": NET_2D, "training": BASE_2D,
        "test_fraction": 0.2, "metrics": ["EMSKSD", "SSN"],
        "methods": [GRAD_ASCENT_FIXED, FINE_TUNE, FISHER],
        "top_k_each_end": 16, "expansion_ks": [0, 10, 50, 100],
        "seeds": _experiment_seeds(rng, 1),
    }


def kernel_config(rng: random.Random) -> dict:
    centers = [[round(rng.uniform(-2.0, 2.0), 3) for _ in range(16)] for _ in range(3)]
    return {
        "dataset": {"type": "blobs", "n_per_class": 1700, "centers": centers,
                    "std": 1.0},
        "network": {"layer_sizes": [16, 32, 3], "activation": "relu"},
        "training": {"lr": 0.1, "epochs": 10, "batch_size": 32},
        "test_fraction": 0.2, "metrics": ALL_METRICS, "methods": [FISHER],
        "top_k_each_end": 8, "expansion_ks": [0, 50],
        "seeds": _experiment_seeds(rng, 3),
    }


WORKLOADS = {"protocol": protocol_config, "sweep": sweep_config, "kernel": kernel_config}

END_TO_END_UNITS = {
    "experiment_s": "s", "rows_per_s": "rows/s", "peak_rss_mb": "MiB",
    "ok_frac": "ratio", "setup_s": "s",
}

UNLEARN_LAYERS = ("grad_ascent", "fine_tune", "fisher_forget", "retrain")
MEASURED_COLUMNS = ("forget_acc", "retain_acc", "test_acc", "forget_loss", "retain_loss",
                    "test_loss", "total_param_distance", "activation_distance",
                    "mia_efficacy")


def make_config(workload: str, seed: int) -> dict:
    cfg = WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
    cfg["output_dir"] = "out"
    return cfg


def expected_rows(cfg: dict) -> int:
    return (len(cfg["seeds"]) * len(cfg["metrics"]) * 2 * cfg["top_k_each_end"]
            * len(cfg["methods"]) * len(cfg["expansion_ks"]))


def artifact_names(cfg: dict) -> list[str]:
    names = ["report.csv", "reports.jsonl", "aggregate.csv", "config.json"]
    for s in cfg["seeds"]:
        names += [f"rankings-s{s}.csv", f"model-s{s}.json", f"trainlog-s{s}.csv"]
    return sorted(names)


# --- processes ---------------------------------------------------------------

def _rss_kib(pid: int) -> int:
    with open(f"/proc/{pid}/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") // 1024


def tree_rss_kib(root_pid: int) -> int:
    """Resident memory summed over a process and all its descendants."""
    pids, total = [root_pid], 0
    while pids:
        pid = pids.pop()
        try:
            total += _rss_kib(pid)
            for tid in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as fh:
                    pids.extend(int(c) for c in fh.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue  # exited between listing and reading
    return total


def start_on_last_cpu() -> None:
    """Move the calling process to the highest CPU it may use.

    Passed as `preexec_fn`. A single busy process stays on the CPU it starts
    on, and the CPUs of a shared box differ in speed by up to 1.5x for
    minutes at a time, so every child starts on the same CPU.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


@dataclass
class ChildRun:
    rc: int
    wall_s: float
    peak_rss_mb: float


def run_child(args: list[str], cwd: Path, env: dict, log: Path, deadline: float) -> ChildRun:
    """Run child.py to completion while polling the tree's RSS.

    The peak is the larger of the polled tree sum and the ru_maxrss that
    wait4 reports for the child and its reaped descendants. A child still
    running at the deadline is killed with its whole process group. The
    child starts on the last CPU and may then use them all, so that workers
    it starts can run beside it.
    """
    with log.open("wb") as out:
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(CHILD), *args], cwd=cwd, env=env,
                                stdout=out, stderr=subprocess.STDOUT,
                                start_new_session=True, preexec_fn=start_on_last_cpu)
        try:
            os.sched_setaffinity(proc.pid, os.sched_getaffinity(0))
        except ProcessLookupError:
            pass  # already exited; wait4 below reports how
        peak_kib = 0
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    raise TimeoutError(f"child {args[0]} passed the run deadline")
                peak_kib = max(peak_kib, tree_rss_kib(proc.pid))
                time.sleep(POLL_S)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, time.monotonic() - t0,
                    max(peak_kib, usage.ru_maxrss) / 1024.0)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = str(root / "src")
    return env


def measure_setup(run_dir: Path, env: dict) -> float:
    """Median seconds from spawning an interpreter to cli imported and config loaded."""
    times = []
    for _ in range(SETUP_STARTS):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, str(CHILD), "setup", "config-in.json"],
                              cwd=run_dir, env=env, capture_output=True, text=True,
                              timeout=60, check=True, preexec_fn=start_on_last_cpu)
        times.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return statistics.median(times)


def fingerprint(env: dict, run_dir: Path) -> dict:
    allowed = os.sched_getaffinity(0)
    fp = {"loadavg_start": list(os.getloadavg()), "cpus_allowed": len(allowed),
          "start_cpu": max(allowed)}
    done = subprocess.run([sys.executable, str(CHILD), "probe"], cwd=run_dir, env=env,
                          capture_output=True, text=True, timeout=60, check=True,
                          preexec_fn=start_on_last_cpu)
    fp.update(json.loads(done.stdout.strip().splitlines()[-1]))
    return fp


# --- output gate ---------------------------------------------------------------

def file_digests(out_dir: Path, names: list[str]) -> dict[str, str | None]:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        if (out_dir / name).is_file() else None
        for name in names
    }


@dataclass
class Rep:
    """One experiment child: its timing, memory and output check."""

    experiment_s: float
    peak_rss_mb: float
    ok_rows: int
    digests: dict
    problems: list


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_outputs(out_dir: Path, cfg: dict) -> tuple[int, list[str]]:
    """(rows with status ok and finite values, problems found)."""
    report, problems = out_dir / "report.csv", []
    if not report.is_file():
        return 0, ["report.csv missing"]
    with report.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != expected_rows(cfg):
        problems.append(f"{len(rows)} report rows, expected {expected_rows(cfg)}")
    ok = sum(1 for row in rows
             if row["status"] == "ok" and all(_finite(row[c]) for c in MEASURED_COLUMNS))
    if ok != len(rows):
        problems.append(f"{len(rows) - ok} rows not ok or not finite")
    config = out_dir / "config.json"
    written = json.loads(config.read_text(encoding="utf-8")) if config.is_file() else {}
    for key in ("seeds", "metrics", "top_k_each_end", "expansion_ks", "output_dir"):
        if written.get(key) != cfg[key]:
            problems.append(f"config.json {key} differs from the generated config")
    return ok, problems


def run_rep(run_dir: Path, name: str, cfg: dict, env: dict, deadline: float,
            trace: bool) -> Rep:
    rep_dir = run_dir / name
    rep_dir.mkdir()
    (rep_dir / "config-in.json").write_text(json.dumps(cfg, indent=1))
    args = ["experiment", "config-in.json", "timing.json"] + (["."] if trace else [])
    try:
        child = run_child(args, rep_dir, env, rep_dir / "child.log", deadline)
    except TimeoutError:
        child = ChildRun(-signal.SIGKILL, RUN_DEADLINE_S, 0.0)
    timing_path = rep_dir / "timing.json"
    # Without the child's own timing (it failed), its wall time stands in.
    timing = json.loads(timing_path.read_text()) if timing_path.is_file() \
        else {"experiment_s": child.wall_s}
    out_dir = rep_dir / "out"
    ok, problems = check_outputs(out_dir, cfg)
    if child.rc != 0:
        problems.append(f"exit code {child.rc}")
    digests = file_digests(out_dir, artifact_names(cfg))
    missing = [n for n, d in digests.items() if d is None]
    if missing:
        problems.append(f"missing artifacts {missing}")
    return Rep(timing["experiment_s"], child.peak_rss_mb, ok, digests, problems)


def measure_reps(run_dir: Path, cfg: dict, env: dict, deadline: float,
                 seconds: float) -> list[Rep]:
    """Experiments back to back while the next, as long as the last, fits in `seconds`."""
    reps = [run_rep(run_dir, "rep0", cfg, env, deadline, trace=False)]
    spent = reps[0].experiment_s
    while spent + reps[-1].experiment_s <= seconds:
        reps.append(run_rep(run_dir, f"rep{len(reps)}", cfg, env, deadline, trace=False))
        spent += reps[-1].experiment_s
    return reps


def gate(reps: list[Rep], reference: dict | None) -> None:
    """Compare each rep's artifacts with the recorded digests, or with rep 0."""
    expected = reference if reference is not None else reps[0].digests
    source = "recorded digests" if reference is not None else "the first run"
    for i, rep in enumerate(reps):
        differ = sorted(n for n in expected if rep.digests.get(n) != expected[n])
        if differ or set(rep.digests) != set(expected):
            rep.problems.append(f"artifacts differ from {source}: {differ}")
        if rep.problems:
            rep.ok_rows = 0
            print(f"rep {i}: " + "; ".join(rep.problems), file=sys.stderr)


# --- metrics -----------------------------------------------------------------

def per_layer_metrics(summary: dict, rows: int, overhead_frac: float) -> dict:
    """The per-layer metrics of one traced run.

    `.s` is the time attributed to the span (see tracer.TIMED_SPANS);
    `.incl_s` is its inclusive time, for spans whose work is mostly in
    reported callees.
    """
    layers, counters = summary["layers"], summary["counters"]
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def timed(span, incl=False):
        layer = layers.get(span, {})
        put(f"{span}.calls", layer.get("calls", 0), "count")
        put(f"{span}.s", layer.get("attributed_s", 0.0), "s")
        if incl:
            put(f"{span}.incl_s", layer.get("incl_s", 0.0), "s")

    timed("diffnet.train")
    put("diffnet.train.epochs", counters["diffnet.train.epochs"], "count")
    for fn in ("grad_params", "mean_nll", "predict_probs"):
        timed(f"diffnet.{fn}")
    put("diffnet.forward_passes", summary["forward_passes"], "count")
    for fn in UNLEARN_LAYERS:
        timed(f"unlearn.{fn}", incl=True)
    put("unlearn.grad_ascent.steps", counters["unlearn.grad_ascent.steps"], "count")
    method_calls = sum(layers.get(f"unlearn.{fn}", {}).get("calls", 0)
                       for fn in UNLEARN_LAYERS)
    put("unlearn.calls_per_row", method_calls / rows, "ratio")
    put("experiment.distinct_jobs", summary["distinct_jobs"], "count")
    timed("unlearn.expand_forget_set")
    timed("evaluation.verdict", incl=True)
    verdicts = m["evaluation.verdict.calls"]["value"]
    put("evaluation.forwards_per_verdict",
        summary["verdict_forward_passes"] / verdicts if verdicts else 0.0, "ratio")
    for fn in ("median_bandwidth", "score_table", "stein_kernel_matrix"):
        timed(f"stein.{fn}")
    put("stein.stein_kernel_matrix.rss_delta_mb",
        counters["stein.stein_kernel_matrix.rss_delta_mb"], "MiB")
    put("stein.kernel_entries", counters["stein.kernel_entries"], "count")
    for metric in ALL_METRICS:
        timed(f"scoring.compute_metric.{metric}")
    timed("data.gather")
    put("data.gather.rows", counters["data.gather.rows"], "count")
    timed("experiment.train_base", incl=True)
    timed("experiment.run_single", incl=True)
    put("experiment.write.s", summary["write_s"], "s")
    timed("config.load_config")
    put("trace.overhead_frac", overhead_frac, "ratio")
    return m


def layer_shares(summary: dict, total_s: float) -> list[tuple[str, float, float]]:
    """(name, inclusive share, self share) of the traced experiment time."""
    rows = [(name, v["incl_s"] / total_s, v["self_s"] / total_s)
            for name, v in summary["layers"].items() if v["calls"]]
    return sorted(rows, key=lambda r: -r[1])


# --- main ----------------------------------------------------------------------

def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=36,
                   help="measured time per run; sets how many experiments to median")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "steinunlearn" / "cli.py").is_file():
        print(f"error: no src/steinunlearn/ under {root}; run from a checkout's root",
              file=sys.stderr)
        return 2

    cfg = make_config(args.workload, args.seed)
    run_dir = root / OUT_ROOT / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (run_dir / "config-in.json").write_text(json.dumps(cfg, indent=1))
    env = child_env(root)

    fp = fingerprint(env, run_dir)
    print("fingerprint " + json.dumps(fp, sort_keys=True))

    if args.trace:
        reps = [run_rep(run_dir, "untraced", cfg, env, deadline, trace=False),
                run_rep(run_dir, "traced", cfg, env, deadline, trace=True)]
    else:
        setup_s = measure_setup(run_dir, env)
        reps = measure_reps(run_dir, cfg, env, deadline, args.seconds)

    recorded = json.loads(DIGESTS.read_text()).get(args.workload, {}) \
        if DIGESTS.is_file() else {}
    reference = recorded.get("files") if args.seed == recorded.get("seed") else None
    if reference is None:
        print(f"digest {args.workload} "
              + json.dumps({"seed": args.seed, "files": reps[0].digests}, sort_keys=True))
    gate(reps, reference)

    attempted = expected_rows(cfg) * len(reps)
    ok_rows = sum(rep.ok_rows for rep in reps)
    untraced = reps[:1] if args.trace else reps
    experiment_s = statistics.median(rep.experiment_s for rep in untraced)

    if args.trace:
        trace_json = run_dir / "traced" / "trace.json"
        if not trace_json.is_file():
            print(f"error: the traced experiment wrote no {trace_json}", file=sys.stderr)
            return 1
        summary = json.loads(trace_json.read_text())
        overhead = reps[1].experiment_s / experiment_s - 1.0
        metrics = per_layer_metrics(summary, expected_rows(cfg), overhead)
        for name, incl, own in layer_shares(summary, reps[1].experiment_s)[:25]:
            print(f"  {name:42s} incl {incl:7.2%}  self {own:7.2%}", file=sys.stderr)
    else:
        values = {
            "experiment_s": experiment_s,
            "rows_per_s": statistics.median(expected_rows(cfg) / rep.experiment_s
                                            for rep in untraced),
            "peak_rss_mb": max(rep.peak_rss_mb for rep in untraced),
            "ok_frac": ok_rows / attempted,
            "setup_s": setup_s,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print("  experiments " + " ".join(f"{rep.experiment_s:.2f}" for rep in reps)
          + f" s; run took {time.monotonic() - started:.1f} s", file=sys.stderr)
    result = {"correct": ok_rows == attempted, "attempted": attempted,
              "failed": attempted - ok_rows, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
