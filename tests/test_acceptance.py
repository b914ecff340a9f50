"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1-4 are exact oracle checks; 5-8 and 10 check the expected
comparative directions end to end on a blob-scale benchmark (shared 5-seed protocol
fixture); 9 checks byte-level pipeline determinism. Run with `pytest -s`
to see the per-criterion lines.
"""

import dataclasses
import json
import time

import mpmath as mp
import numpy as np
import pytest

from steinunlearn import cli, diffnet, evaluation, experiment, scoring, stein, unlearn
from steinunlearn.config import ExperimentConfig

from conftest import (
    fd_grad_input, fd_grad_params, ksd_statistic, random_model, rel_close,
    stein_kernel,
)
from test_stein import fd_stein_kernel


def _pass(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


# ---------------------------------------------------------------------------
# shared 5-seed protocol for criteria 5-8 and 10
# ---------------------------------------------------------------------------

PROTOCOL_DICT = {
    "dataset": {
        "type": "blobs",
        "n_per_class": 250,
        "centers": [[0.0, 0.0], [4.0, 0.0], [2.0, 3.4641016151377544]],
        "std": 0.6,
    },
    "network": {"layer_sizes": [2, 32, 32, 3], "activation": "relu"},
    "training": {"lr": 0.1, "epochs": 400, "batch_size": 32},
    "test_fraction": 0.2,
    "metrics": ["EMSKSD"],
    "methods": [
        {"method": "grad_ascent", "lr": 0.01, "epochs": 200,
         "overfit_threshold": 5.0},
    ],
    "top_k_each_end": 5,
    "expansion_ks": [0, 10, 50],
    "epsilon": 0.05,
    "seeds": [0, 1, 2, 3, 4],
}


@pytest.fixture(scope="session")
def protocol():
    """Train/score/rank per seed, then grad-ascent at k in {0,10,50} plus
    retrain at k=0, all from the same base models."""
    t0 = time.perf_counter()
    cfg_ga = ExperimentConfig.from_dict(PROTOCOL_DICT)
    retrain_block = {"method": "retrain", "lr": 0.1, "epochs": 400,
                     "batch_size": 32}
    bases = [experiment.train_base(cfg_ga, seed) for seed in cfg_ga.seeds]
    rows_ga, rows_rt = [], []
    for base in bases:
        rows_ga.extend(experiment.run_base(cfg_ga, base))
        # retrain shares the base's seed so the fresh init is a genuine re-run
        cfg_rt = dataclasses.replace(
            cfg_ga,
            methods=(unlearn.UnlearnConfig(**{**retrain_block, "seed": base.seed}),),
            expansion_ks=(0,),
        )
        rows_rt.extend(experiment.run_base(cfg_rt, base))
    elapsed = time.perf_counter() - t0
    assert all(r.status == "ok" for r in rows_ga + rows_rt)
    return {"bases": bases, "ga": rows_ga, "rt": rows_rt, "elapsed": elapsed,
            "config": cfg_ga}


def _ga_rows(protocol, k=None, end=None, seed=None):
    rows = protocol["ga"]
    if k is not None:
        rows = [r for r in rows if r.k_expansion == k]
    if end is not None:
        rows = [r for r in rows if r.easy_or_difficult == end]
    if seed is not None:
        rows = [r for r in rows if r.seed == seed]
    return rows


# ---------------------------------------------------------------------------
# criterion 1: Stein kernel closed form vs finite-difference oracle
# ---------------------------------------------------------------------------

def test_criterion_01_stein_kernel_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    for trial in range(120):
        d = [1, 2, 5][trial % 3]
        a, b = rng.uniform(-1, 1, d), rng.uniform(-1, 1, d)
        s_a, s_b = rng.uniform(-1, 1, d), rng.uniform(-1, 1, d)
        h = float(rng.uniform(0.5, 2.0))
        closed = stein_kernel(a, b, s_a, s_b, h)
        fd = fd_stein_kernel(a, b, s_a, s_b, h)
        assert rel_close(closed, fd, 1e-4), f"instance {trial}"
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 100
    assert elapsed < 5.0
    _pass(1, f"closed form matched the finite-difference oracle on {checked} "
             f"instances (rel err <= 1e-4) in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: KSD null and mean-shift alternative
# ---------------------------------------------------------------------------

def test_criterion_02_ksd_null_and_alternative():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    X = rng.standard_normal((500, 2))
    h = stein.median_bandwidth(X)
    m_null = stein.stein_kernel_matrix(X, -X, h)
    u_null = ksd_statistic(m_null, "u_stat")
    off = m_null.values[~np.eye(500, dtype=bool)]
    se = off.std() / np.sqrt(off.size)
    assert abs(u_null) <= 4 * se

    us = []
    for shift in (0.5, 1.0, 2.0):
        mu = np.full(2, shift)
        m = stein.stein_kernel_matrix(X, -(X - mu), h)
        us.append(ksd_statistic(m, "u_stat"))
    assert us[1] > 10 * abs(u_null)
    assert us[0] < us[1] < us[2]
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _pass(2, f"|u_null|={abs(u_null):.2e} <= 4*SE={4 * se:.2e}; shift-1.0 KSD "
             f"{us[1]:.3f} > 10x null; monotone over shifts in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 3: parameter and input gradient oracles
# ---------------------------------------------------------------------------

def test_criterion_03_gradient_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    checked = 0
    for trial in range(20):
        sizes = [(2, 3), (2, 4, 3), (3, 5, 4, 2)][trial % 3]
        model = random_model(rng, sizes, activation="tanh")
        x = rng.uniform(-1, 1, sizes[0])
        y = int(rng.integers(sizes[-1]))
        g_p = diffnet.grad_params(model, x[None, :], np.array([y]))
        assert rel_close(g_p, fd_grad_params(model, x[None, :], np.array([y])),
                         1e-4, floor=1e-3), f"grad_params instance {trial}"
        g_x = diffnet.per_sample_scores(model, x[None], [y])[0][0]
        assert rel_close(g_x, fd_grad_input(model, x, y), 1e-4, floor=1e-3), \
            f"grad_input instance {trial}"
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 20
    assert elapsed < 10.0
    _pass(3, f"grad_params and grad_input matched central differences on "
             f"{checked} instances in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 4: brute-force scoring oracle (arbitrary precision)
# ---------------------------------------------------------------------------

def test_criterion_04_scoring_brute_force_oracle():
    start = time.perf_counter()
    values = np.array([[4.0, 1.5, -0.5], [1.5, 3.0, 2.0], [-0.5, 2.0, 5.0]])
    norms = np.array([0.25, 1.75, 0.5])
    probs = np.array([
        [0.2, 0.5, 0.3], [0.9, 0.05, 0.05], [1.0 / 3, 1.0 / 3, 1.0 / 3],
    ])
    labels = np.array([1, 0, 2])
    m = stein.SteinKernelMatrix(values, np.arange(3))
    table = stein.ScoreTable(np.zeros((3, 2)), norms, probs, np.arange(3))

    mp.mp.dps = 50
    vals = [[mp.mpf(repr(float(v))) for v in row] for row in values]
    exp_mksd = [float(sum(row)) for row in vals]
    exp_msksd = []
    for row in vals:
        mean = sum(row) / 3
        std = mp.sqrt(sum((v - mean) ** 2 for v in row) / 3)
        exp_msksd.append(float(sum(mp.e ** ((v - mean) / std) for v in row)))
    ents = [
        -sum(mp.mpf(repr(float(p))) * mp.log(mp.mpf(repr(float(p))))
             for p in prow if p > 0)
        for prow in probs
    ]
    exp_emsksd = [float(mp.mpf(repr(s)) / max(h, mp.mpf("1e-6")))
                  for s, h in zip(exp_msksd, ents)]
    expected = {
        "MKSD": exp_mksd,
        "MSKSD": exp_msksd,
        "EMSKSD": exp_emsksd,
        "SSN": [float(v) for v in norms],
        "PC": [float(probs[i][labels[i]]) for i in range(3)],
    }
    computed = {
        "MKSD": scoring.mksd(m),
        "MSKSD": scoring.msksd(m),
        "EMSKSD": scoring.emsksd(scoring.msksd(m), table),
        "SSN": scoring.ssn(table),
        "PC": scoring.pc(table, labels),
    }
    for name, exp in expected.items():
        assert computed[name] == pytest.approx(exp, rel=1e-12), name
        orientation = scoring.METRIC_ORIENTATION[name]
        sign = 1.0 if orientation == scoring.HIGHER_IS_HARDER else -1.0
        oracle_order = sorted(range(3), key=lambda i: (sign * exp[i], i))
        ranked = scoring.rank(computed[name], orientation, metric=name)
        assert list(ranked.easy_to_hard) == oracle_order, name
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _pass(4, f"all five metrics and rankings matched the mpmath oracle "
             f"in {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# criterion 5: Table-1 direction at desk scale
# ---------------------------------------------------------------------------

def test_criterion_05_forget_accuracy_direction(protocol):
    for base in protocol["bases"]:
        assert base.train_log[-1]["train_acc"] >= 0.95, f"seed {base.seed}"
        assert base.plan.train_ids.size == 600
        assert base.plan.test_ids.size == 150

    easy_means, diff_means = [], []
    for seed in range(5):
        easy = _ga_rows(protocol, k=0, end="easy", seed=seed)
        diff = _ga_rows(protocol, k=0, end="difficult", seed=seed)
        assert len(easy) == 5 and len(diff) == 5
        easy_means.append(np.mean([r.report.forget_acc for r in easy]))
        diff_means.append(np.mean([r.report.forget_acc for r in diff]))
    med_easy, med_diff = np.median(easy_means), np.median(diff_means)
    assert med_easy <= med_diff - 0.4
    assert protocol["elapsed"] < 300.0
    _pass(5, f"median mean forget accuracy easy={med_easy:.2f} vs "
             f"difficult={med_diff:.2f} (gap >= 0.4); protocol took "
             f"{protocol['elapsed']:.0f}s")


# ---------------------------------------------------------------------------
# criterion 6: test-accuracy preservation on easy runs
# ---------------------------------------------------------------------------

def test_criterion_06_preservation_on_easy_runs(protocol):
    drops = [
        r.report.test_acc_original - r.report.test_acc
        for r in _ga_rows(protocol, k=0, end="easy")
    ]
    med = float(np.median(drops))
    assert med <= 0.05
    _pass(6, f"median test-accuracy drop over {len(drops)} easy runs = "
             f"{med:.4f} <= 0.05")


# ---------------------------------------------------------------------------
# criterion 7: MIA-efficacy direction
# ---------------------------------------------------------------------------

def test_criterion_07_mia_direction(protocol):
    easy_means, diff_means = [], []
    for seed in range(5):
        easy_means.append(np.mean(
            [r.report.mia_efficacy for r in _ga_rows(protocol, 0, "easy", seed)]
        ))
        diff_means.append(np.mean(
            [r.report.mia_efficacy
             for r in _ga_rows(protocol, 0, "difficult", seed)]
        ))
    med_easy, med_diff = np.median(easy_means), np.median(diff_means)
    assert med_easy >= med_diff
    _pass(7, f"median mean MIA-efficacy easy={med_easy:.2f} >= "
             f"difficult={med_diff:.2f}")


# ---------------------------------------------------------------------------
# criterion 8: removal-set expansion direction
# ---------------------------------------------------------------------------

def _min_success_k(protocol, seed, end):
    per_target = {}
    for row in _ga_rows(protocol, end=end, seed=seed):
        entry = per_target.setdefault(row.target_id, {})
        entry[row.k_expansion] = row.report
    out = {}
    for target, by_k in per_target.items():
        ks = sorted(k for k, rep in by_k.items() if rep.success)
        out[target] = (ks[0] if ks else np.inf,
                       by_k[ks[0]] if ks else None)
    return out


def test_criterion_08_expansion_direction(protocol):
    easy_meds, diff_meds = [], []
    easy_ks_all, easy_drops_at_success = [], []
    difficult_successes = []
    for seed in range(5):
        easy = _min_success_k(protocol, seed, "easy")
        diff = _min_success_k(protocol, seed, "difficult")
        easy_meds.append(np.median([k for k, _ in easy.values()]))
        diff_meds.append(np.median([k for k, _ in diff.values()]))
        for k, rep in easy.values():
            easy_ks_all.append(k)
            if rep is not None:
                easy_drops_at_success.append(
                    rep.test_acc_original - rep.test_acc
                )
        for k, rep in diff.values():
            if rep is not None:
                difficult_successes.append(
                    (k, rep.test_acc_original - rep.test_acc)
                )
    med_easy = np.median(easy_meds)
    med_diff = np.median(diff_meds)
    assert med_easy <= med_diff
    # difficult targets that do succeed need more expansion or more damage
    easy_k_ref = np.median([k for k in easy_ks_all if np.isfinite(k)]) \
        if any(np.isfinite(k) for k in easy_ks_all) else 0.0
    easy_drop_ref = np.median(easy_drops_at_success) \
        if easy_drops_at_success else 0.0
    for k, drop in difficult_successes:
        assert k >= easy_k_ref or drop >= easy_drop_ref
    _pass(8, f"median min-k for success: easy={med_easy} <= difficult={med_diff}; "
             f"{len(difficult_successes)} difficult successes all needed larger "
             f"k or larger test drop")


# ---------------------------------------------------------------------------
# criterion 9: whole-pipeline byte determinism
# ---------------------------------------------------------------------------

def test_criterion_09_pipeline_determinism(tmp_path):
    cfg = {
        "dataset": {
            "type": "blobs", "n_per_class": 40,
            "centers": [[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]], "std": 0.7,
        },
        "network": {"layer_sizes": [2, 16, 3], "activation": "relu"},
        "training": {"lr": 0.1, "epochs": 40, "batch_size": 16},
        "test_fraction": 0.2,
        "metrics": ["EMSKSD", "SSN"],
        "methods": [
            {"method": "grad_ascent", "lr": 0.01, "epochs": 100,
             "overfit_threshold": 5.0},
            {"method": "fisher", "alpha": 1e-5},
        ],
        "top_k_each_end": 2,
        "expansion_ks": [0, 3],
        "epsilon": 0.05,
        "seeds": [0],
    }
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        cfg_path = tmp_path / f"cfg-{run}.json"
        cfg_path.write_text(json.dumps({**cfg, "output_dir": str(out)}))
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 0
        outputs.append({
            name: (out / name).read_bytes()
            for name in ("report.csv", "reports.jsonl", "aggregate.csv",
                         "rankings-s0.csv", "model-s0.json")
        })
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], name
    _pass(9, "two executions produced byte-identical report, ranking, and "
             "model files")


# ---------------------------------------------------------------------------
# criterion 10: parameter-distance ordering between methods
# ---------------------------------------------------------------------------

def test_criterion_10_distance_ordering(protocol):
    ga = [r.report.total_param_distance for r in _ga_rows(protocol, k=0)]
    rt = [r.report.total_param_distance for r in protocol["rt"]]
    assert len(ga) == len(rt) == 50
    med_ga, med_rt = float(np.median(ga)), float(np.median(rt))
    assert med_ga < med_rt
    _pass(10, f"median total parameter distance: grad_ascent={med_ga:.4f} < "
              f"retrain={med_rt:.4f}")
