"""The hooks the benchmark's span tracer reads from the package.

`perfbench/tracer.py` wraps the package's public functions, counts the
calls of each, and reads a few results (`SteinKernelMatrix.n`,
`UnlearnOutcome.steps_taken`). Every row must therefore reach its method
through the module attribute the tracer replaced. The traced run goes
through `perfbench/child.py` in a subprocess, so the wrappers never reach
the functions other tests call.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

from steinunlearn.config import ExperimentConfig
from steinunlearn.data import split
from steinunlearn.scoring import METRICS

from test_golden import golden_config_dict

REPO = Path(__file__).resolve().parents[1]

# The traced function that runs each method's rows.
METHOD_SPANS = {
    "grad_ascent": "unlearn.grad_ascent",
    "fine_tune": "unlearn.fine_tune",
    "fisher": "unlearn.fisher_forget",
    "retrain": "unlearn.retrain",
}

# Names the tracer still lists but the package no longer defines. Each one
# reads 0 in a traced run; drop it here when the tracer stops listing it.
STALE_TRACER_NAMES = {f"diffnet.{name}" for name in (
    "mean_nll", "predict_probs", "input_scores", "per_sample_grad_norms",
    "hidden_activations",
)}


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _resolves(name):
    """Whether a span name is `layer.function`, a public function the tracer
    wraps, or `scoring.compute_metric.<metric>`, the span of one metric."""
    layer, function, *label = name.split(".")
    try:
        module = importlib.import_module(f"steinunlearn.{layer}")
    except ModuleNotFoundError:
        return False
    fn = getattr(module, function, None)
    if not (isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__
            and not function.startswith("_")):
        return False
    return not label or (name.rpartition(".")[0] == "scoring.compute_metric"
                         and label[0] in METRICS)


def test_tracer_names_resolve_to_package_functions():
    tracer = _load_tracer()
    names = set(tracer.TIMED_SPANS) | set(tracer.FORWARD_FUNCTIONS)
    # the known-stale set may only shrink, and can never hide a live name
    assert STALE_TRACER_NAMES <= names
    assert not any(_resolves(name) for name in STALE_TRACER_NAMES)
    assert sorted(n for n in names - STALE_TRACER_NAMES if not _resolves(n)) == []


def test_traced_experiment_counts_kernel_entries_and_ascent_steps(tmp_path):
    cfg = golden_config_dict()
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "child.py"), "experiment",
         "cfg.json", "result.json", str(trace_dir)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(REPO / "src"),
             "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "result.json").read_text())["rc"] == 0

    trace = json.loads((trace_dir / "trace.json").read_text())
    counters = trace["counters"]
    config = ExperimentConfig.from_dict(cfg)
    n_train = [
        split(config.dataset.build(seed), config.test_fraction, seed).train_ids.size
        for seed in config.seeds
    ]
    assert counters["stein.kernel_entries"] == sum(n * n for n in n_train)

    rows = [json.loads(line)
            for line in (tmp_path / "out" / "reports.jsonl").read_text().splitlines()]
    ascent_steps = sum(row["report"]["steps_taken"] for row in rows
                       if row["method"] == "grad_ascent")
    assert ascent_steps > 0
    assert counters["unlearn.grad_ascent.steps"] == ascent_steps

    # every row runs through run_single and its method's traced function
    calls = {name: layer["calls"] for name, layer in trace["layers"].items()}
    assert calls["experiment.run_single"] == len(rows)
    for method, span in METHOD_SPANS.items():
        assert calls[span] == sum(row["method"] == method for row in rows), span
