"""The hooks the benchmark's span tracer reads from the package.

`perfbench/tracer.py` wraps the package's public functions, counts the
calls of each, and reads a few results (`SteinKernelMatrix.n`,
`UnlearnOutcome.steps_taken`). Every row must therefore reach its method
through the module attribute the tracer replaced. The traced run goes
through `perfbench/child.py` in a subprocess, so the wrappers never reach
the functions other tests call.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from steinunlearn.config import ExperimentConfig
from steinunlearn.data import split

from test_golden import golden_config_dict

REPO = Path(__file__).resolve().parents[1]

# The traced function that runs each method's rows.
METHOD_SPANS = {
    "grad_ascent": "unlearn.grad_ascent",
    "fine_tune": "unlearn.fine_tune",
    "fisher": "unlearn.fisher_forget",
    "retrain": "unlearn.retrain",
}


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
