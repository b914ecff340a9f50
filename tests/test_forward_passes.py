"""Each (model, batch) is run through the network once per loss, step or measurement.

`diffnet.forward` is the only forward pass; every other diffnet function
and every caller goes through it, so counting its calls counts passes.
"""

import numpy as np
import pytest

from steinunlearn import diffnet, evaluation, experiment, unlearn
from steinunlearn.config import ExperimentConfig
from steinunlearn.data import gather, make_blobs, split

from test_config_cli import mini_config_dict


@pytest.fixture
def passes(monkeypatch):
    """Row counts of every forward pass made while the test runs."""
    calls = []
    real = diffnet.forward

    def counting(model, X):
        calls.append(len(X))
        return real(model, X)

    monkeypatch.setattr(diffnet, "forward", counting)
    return calls


@pytest.fixture(scope="module")
def blobs():
    ds = make_blobs(20, np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]]), 0.8, 0)
    plan = split(ds, 0.2, seed=0)
    model = diffnet.init_network(diffnet.NetworkSpec((2, 8, 3)), 0)
    X, y = gather(ds, plan.train_ids)
    model = diffnet.train(model, X, y, lr=0.05, epochs=20, batch_size=16, seed=0)
    return ds, plan, model


@pytest.mark.parametrize("calibrate_on_original, expected", [(False, 4), (True, 5)])
def test_verdict_runs_one_pass_per_model_and_split(blobs, passes,
                                                   calibrate_on_original, expected):
    ds, plan, model = blobs
    plan = plan.with_forget(plan.train_ids[:3])
    nudged = model.with_params(model.params + 0.01)
    evaluation.verdict(
        model, unlearn.UnlearnOutcome(nudged, 1, 0.0),
        forget=gather(ds, plan.forget_ids),
        retain=gather(ds, plan.retain_ids),
        test=gather(ds, plan.test_ids),
        calibrate_on_original=calibrate_on_original,
    )
    assert len(passes) == expected


@pytest.mark.parametrize("lr, threshold, stops_early", [
    (0.01, 1e9, False),   # runs every epoch
    (0.0001, 0.0, True),  # threshold met before the first step
    (0.1, 1.0, True),     # threshold met part way (after 5 steps)
])
def test_grad_ascent_runs_one_pass_per_step(blobs, passes, lr, threshold, stops_early):
    ds, plan, model = blobs
    cfg = unlearn.UnlearnConfig(method="grad_ascent", lr=lr, epochs=12,
                                overfit_threshold=threshold)
    out = unlearn.grad_ascent(model, ds, plan.train_ids[:2], cfg)
    assert (out.steps_taken < cfg.epochs) == stops_early
    assert len(passes) == out.steps_taken + stops_early


def test_train_log_adds_one_pass_per_epoch(passes):
    config = ExperimentConfig.from_dict(mini_config_dict())
    base = experiment.train_base(config, 0)
    with_log = len(passes)
    passes.clear()
    tr = config.training
    X, y = gather(base.ds, base.plan.train_ids)
    diffnet.train(diffnet.init_network(config.network, 0), X, y,
                  tr.lr, tr.epochs, tr.batch_size, 0)
    experiment.score_base(config, 0, base.ds, base.plan, base.model, [])
    assert with_log - len(passes) == tr.epochs
