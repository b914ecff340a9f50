"""Span tracer that wraps steinunlearn's public functions from outside the package.

Every public function defined in one of the layer modules is replaced by a
wrapper that records a span: name, start, end and the span that was open
when it was called. The wrapper is installed under every module attribute
that is bound to the original function, because several modules import
functions by name (``from .data import gather``, ``from .evaluation import
verdict``) and look them up in their own globals.

Spans stay in memory until ``write`` is called after the run; ``summary``
turns them into per-name self times and the counters the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import time
import types
from pathlib import Path

import numpy as np

LAYERS = ("config", "data", "diffnet", "stein", "scoring", "unlearn",
          "evaluation", "experiment", "cli")

# Public diffnet functions that run a full forward pass over their batch.
FORWARD_FUNCTIONS = tuple(f"diffnet.{name}" for name in (
    "mean_nll", "grad_params", "input_scores", "per_sample_grad_norms",
    "fisher_diagonal", "predict_probs", "hidden_activations",
))
# Spans whose time the benchmark reports. Each traced second is attributed to
# the innermost of these spans that contains it, so time in an unreported
# helper (softmax, msksd, accuracy) counts for the reported span that called
# it, and the attributed times of all spans add up to the traced run.
WRITERS = ("experiment.write_report_csv", "experiment.write_reports_jsonl",
           "experiment.write_aggregate_csv", "experiment.write_train_log_csv",
           "experiment.write_model_json", "scoring.rankings_to_csv",
           "config.dump_config")
TIMED_SPANS = (
    "diffnet.train", "diffnet.grad_params", "diffnet.mean_nll", "diffnet.predict_probs",
    "unlearn.grad_ascent", "unlearn.fine_tune", "unlearn.fisher_forget",
    "unlearn.retrain", "unlearn.expand_forget_set", "evaluation.verdict",
    "stein.median_bandwidth", "stein.score_table", "stein.stein_kernel_matrix",
    *(f"scoring.compute_metric.{m}" for m in ("MKSD", "MSKSD", "SSN", "EMSKSD", "PC")),
    "data.gather", "experiment.train_base", "experiment.run_single",
    "config.load_config", *WRITERS,
)


def _rss_kib() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        resident_pages = int(fh.read().split()[1])
    return resident_pages * resource.getpagesize() // 1024


def _max_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """In-memory span recorder with a few counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack: list[int] = [-1]
        self.counters: dict[str, float] = {
            "diffnet.train.epochs": 0,
            "unlearn.grad_ascent.steps": 0,
            "data.gather.rows": 0,
            "stein.kernel_entries": 0,
            "stein.stein_kernel_matrix.rss_delta_mb": 0.0,
        }
        self.jobs: set = set()

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def install(self) -> None:
        """Wrap every public function of the layer modules."""
        modules = [importlib.import_module(f"steinunlearn.{m}") for m in LAYERS]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and isinstance(value, types.FunctionType)
                        and value.__module__ == module.__name__):
                    wrappers[value] = self._wrap(value, f"{layer}.{attr}")
        for module in modules:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    def _wrap(self, fn, name: str):
        key = name.replace(".", "_")
        before = getattr(self, "_before_" + key, None)
        after = getattr(self, "_after_" + key, None)
        # compute_metric spans carry the metric name, its first argument.
        labelled = name == "scoring.compute_metric"
        nid = self._intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            idx = self._open(self._intern(f"{name}.{args[0]}") if labelled else nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(state, args, kwargs, result)
            return result

        return wrapper

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    # Counters taken at the span boundaries. A _before_ hook runs ahead of
    # the call and returns a state; an _after_ hook runs after a successful
    # return and receives that state and the result.

    def _after_diffnet_train(self, state, args, kwargs, result):
        epochs = kwargs["epochs"] if "epochs" in kwargs else args[4]
        self.counters["diffnet.train.epochs"] += int(epochs)

    def _after_unlearn_grad_ascent(self, state, args, kwargs, result):
        self.counters["unlearn.grad_ascent.steps"] += result.steps_taken

    def _after_data_gather(self, state, args, kwargs, result):
        self.counters["data.gather.rows"] += len(result[1])

    def _before_stein_stein_kernel_matrix(self, args, kwargs):
        return _rss_kib()

    def _after_stein_stein_kernel_matrix(self, rss_before_kib, args, kwargs, result):
        self.counters["stein.kernel_entries"] += result.n * result.n
        rise_mb = (_max_rss_kib() - rss_before_kib) / 1024.0
        key = "stein.stein_kernel_matrix.rss_delta_mb"
        self.counters[key] = max(self.counters[key], rise_mb)

    def _after_experiment_run_single(self, state, args, kwargs, result):
        base, method_cfg = args[0], args[2]
        self.jobs.add((base.seed, method_cfg, result[1].tobytes()))

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.asarray(self.name_id, dtype=np.int32),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "start": np.asarray(self.start, dtype=np.float64),
            "end": np.asarray(self.end, dtype=np.float64),
        }

    def summary(self) -> dict:
        """Per-name calls and times, plus the counters.

        For every name: `self_s` is the duration of its spans minus that of
        their direct children, `incl_s` the plain sum of durations (no traced
        function calls itself, so nothing is counted twice) and, for names in
        TIMED_SPANS, `attributed_s` as described there.
        """
        a = self.arrays()
        nid, parent = a["name_id"], a["parent"]
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        calls = np.bincount(nid, minlength=n_names)
        incl_s = np.bincount(nid, weights=dur, minlength=n_names)
        self_s = np.bincount(nid, weights=dur - _child_time(parent, dur), minlength=n_names)

        # Re-parent each timed span onto its innermost timed ancestor.
        timed = np.isin(nid, [self._name_ids[t] for t in TIMED_SPANS if t in self._name_ids])
        timed_parent = _nearest_ancestor(parent, timed)
        keep = np.flatnonzero(timed)
        remap = np.full(dur.size + 1, -1)  # the extra last slot maps -1 to -1
        remap[keep] = np.arange(keep.size)
        attributed = dur[keep] - _child_time(remap[timed_parent[keep]], dur[keep])
        attributed_s = np.bincount(nid[keep], weights=attributed, minlength=n_names)

        verdict = nid == self._name_ids.get("evaluation.verdict", -1)
        under_verdict = _nearest_ancestor(parent, verdict) >= 0
        forward = np.isin(nid, [self._name_ids[f] for f in FORWARD_FUNCTIONS
                                if f in self._name_ids])
        layers = {}
        for i, name in enumerate(self.names):
            layers[name] = {"calls": int(calls[i]), "self_s": float(self_s[i]),
                            "incl_s": float(incl_s[i])}
            if name in TIMED_SPANS:
                layers[name]["attributed_s"] = float(attributed_s[i])
        return {
            "spans": int(dur.size),
            "layers": layers,
            "counters": dict(self.counters),
            "forward_passes": int(forward.sum()),
            "verdict_forward_passes": int((forward & under_verdict).sum()),
            "distinct_jobs": len(self.jobs),
            "write_s": sum(layers[w]["attributed_s"] for w in WRITERS if w in layers),
        }

    def write(self, directory: Path) -> None:
        """Write the raw spans and their summary."""
        directory = Path(directory)
        np.savez(directory / "spans.npz", names=np.asarray(self.names), **self.arrays())
        (directory / "trace.json").write_text(
            json.dumps(self.summary(), indent=1, sort_keys=True))


def _child_time(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Summed duration of each span's direct children (parent -1 means none)."""
    nested = parent >= 0
    total = np.zeros(dur.size)
    np.add.at(total, parent[nested], dur[nested])
    return total


def _nearest_ancestor(parent: np.ndarray, marked: np.ndarray) -> np.ndarray:
    """Index of each span's innermost proper ancestor that is marked, else -1.

    Walks all spans up one level per pass, so it takes as many passes as
    the call tree is deep.
    """
    found = np.full(parent.size, -1)
    ancestor = parent.copy()
    while True:
        live = np.flatnonzero((ancestor >= 0) & (found < 0))
        if live.size == 0:
            return found
        hit = marked[ancestor[live]]
        found[live[hit]] = ancestor[live[hit]]
        ancestor[live[~hit]] = parent[ancestor[live[~hit]]]
