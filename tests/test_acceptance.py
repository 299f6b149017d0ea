"""Acceptance gate: six criteria, each printing one PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines. Every
criterion is self-contained: it builds its own data, runs the search or
fit under test, and checks the agreed thresholds.

1. Baseline gap: full OLS on all 100 features is measurably worse than
   the oracle fit on the 15 informative ones (MAE ratio 1.15 to 1.45
   over ten datasets).
2. Search quality: the feature-selection network closes that gap to
   within 2% of the oracle on ten search seeds, recovering at least 14
   of the 15 informative features in at least 80% of runs, inside the
   25000-evaluation budget.
3. Elastic-net grid: the regularized baseline lands strictly between
   full OLS and the oracle on at least 8 of 10 datasets while keeping
   more than 15 features.
4. Determinism: the network run equals the plain-loop twin bit for bit,
   and worker count never changes results.
5. Numeric properties: OLS orthogonality, elastic-net consistency at
   zero penalty, coordinate-descent monotonicity, search monotonicity
   with strict per-generation improvement on verified instances, test
   partition isolation (a run with the test rows replaced is the same
   run), and generated noise calibration.
6. Input optimization: a two-model linear system is inverted to within
   1% of the analytic solution.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from optnet.analysis import AnalysisTask, optimize_inputs
from optnet.data import (
    BenchmarkConfig,
    Dataset,
    FeatureMask,
    PartitionedDataset,
    generate_benchmark,
    partition,
)
from optnet.linear import (
    ElasticNetConfig,
    elastic_net_objective,
    fit_elastic_net,
    fit_ols,
    grid_search_elastic_net,
    mae,
    predict,
)
from optnet.networks import (
    FitnessConfig,
    feature_selection_direct,
    feature_selection_network,
)
from optnet.osga import BinaryGenomeSpec, OsgaParams, RealGenomeSpec, \
    osga_minimize

CANONICAL = BenchmarkConfig()  # 1000 x 100, 15 informative, 20% noise
N_SEEDS = 10


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def per_seed_cases():
    """Ten full-size datasets with their full-OLS and oracle errors."""
    cases = []
    for seed in range(N_SEEDS):
        dataset, truth = generate_benchmark(CANONICAL, seed=seed)
        partitioned = partition(dataset, seed=seed)
        X_train, y_train = partitioned.train_xy()
        X_test, y_test = partitioned.test_xy()
        full = fit_ols(X_train, y_train, dataset.feature_names)
        full_mae = mae(predict(full, X_test), y_test)
        keep = np.array(truth.true_indices)
        oracle = fit_ols(X_train[:, keep], y_train)
        oracle_mae = mae(predict(oracle, X_test[:, keep]), y_test)
        cases.append((partitioned, truth, full_mae, oracle_mae))
    return cases


def test_criterion_1_full_ols_vs_oracle_gap(per_seed_cases):
    started = time.perf_counter()
    ratio = (np.mean([c[2] for c in per_seed_cases])
             / np.mean([c[3] for c in per_seed_cases]))
    elapsed = time.perf_counter() - started
    ok = 1.15 <= ratio <= 1.45 and elapsed < 60.0
    report(1, ok, f"full-OLS/oracle MAE ratio {ratio:.4f} over {N_SEEDS} "
                  f"datasets (window 1.15..1.45), {elapsed:.1f}s")
    assert 1.15 <= ratio <= 1.45
    assert elapsed < 60.0


def test_criterion_2_search_reaches_oracle_quality():
    started = time.perf_counter()
    dataset, truth = generate_benchmark(CANONICAL, seed=3)
    partitioned = partition(dataset, seed=3)
    X_train, y_train = partitioned.train_xy()
    X_test, y_test = partitioned.test_xy()
    keep = np.array(truth.true_indices)
    oracle = fit_ols(X_train[:, keep], y_train)
    oracle_mae = mae(predict(oracle, X_test[:, keep]), y_test)

    gaps = []
    recovered = []
    over_budget = 0
    for ga_seed in range(N_SEEDS):
        result = feature_selection_network(
            partitioned, OsgaParams(),
            FitnessConfig(penalty_per_feature=0.05), seed=ga_seed)
        gaps.append(abs(result.best_model.test_mae - oracle_mae) / oracle_mae)
        hits = np.intersect1d(result.best_mask.indices, keep).size
        recovered.append(hits)
        if result.evaluations > 25000:
            over_budget += 1
    elapsed = time.perf_counter() - started
    worst_gap = max(gaps)
    recovery_rate = np.mean([h >= 14 for h in recovered])
    ok = (worst_gap <= 0.02 and recovery_rate >= 0.8 and over_budget == 0
          and elapsed < 300.0 * N_SEEDS)
    report(2, ok, f"worst oracle gap {worst_gap * 100:.2f}% (limit 2%), "
                  f"{recovery_rate * 100:.0f}% of runs recover >=14/15 "
                  f"informative features, budget respected, "
                  f"{elapsed:.0f}s for {N_SEEDS} runs")
    assert worst_gap <= 0.02
    assert recovery_rate >= 0.8
    assert over_budget == 0
    assert elapsed < 300.0 * N_SEEDS


def test_criterion_3_elastic_net_between_baselines(per_seed_cases):
    started = time.perf_counter()
    between = 0
    lean_enough = True
    for partitioned, truth, full_mae, oracle_mae in per_seed_cases:
        result = grid_search_elastic_net(partitioned)
        if oracle_mae < result.test_mae < full_mae:
            between += 1
        if result.best_model.n_selected <= 15:
            lean_enough = False
    elapsed = time.perf_counter() - started
    ok = between >= 8 and lean_enough and elapsed < 120.0
    report(3, ok, f"{between}/{N_SEEDS} datasets strictly between oracle "
                  f"and full OLS, all selections >15 features, "
                  f"{elapsed:.1f}s")
    assert between >= 8
    assert lean_enough
    assert elapsed < 120.0


def test_criterion_4_network_determinism():
    config = BenchmarkConfig(n_observations=120, n_features=12, n_relevant=3,
                             weight_low=1.0, weight_high=8.0,
                             noise_variance_fraction=0.2)
    params = OsgaParams(population_size=20, max_evaluations=600,
                        max_selection_pressure=25.0)
    twin_ok = True
    workers_ok = True
    for seed in range(5):
        dataset, _ = generate_benchmark(config, seed=seed)
        partitioned = partition(dataset, seed=seed)
        net = feature_selection_network(partitioned, params, seed=seed)
        direct = feature_selection_direct(partitioned, params, seed=seed)
        pooled = feature_selection_network(partitioned, params, seed=seed,
                                           workers=8)
        twin_ok = twin_ok and net == direct
        workers_ok = workers_ok and net == pooled
    ok = twin_ok and workers_ok
    report(4, ok, f"5 seeds: network == plain loop ({twin_ok}), "
                  f"workers 1 == workers 8 ({workers_ok})")
    assert twin_ok
    assert workers_ok


def test_criterion_5_numeric_properties():
    checks = {}

    # OLS residual orthogonality
    dataset, truth = generate_benchmark(
        BenchmarkConfig(n_observations=300, n_features=20, n_relevant=5),
        seed=0)
    model = fit_ols(dataset.features, dataset.target, dataset.feature_names)
    residual = dataset.target - predict(model, dataset.features)
    checks["ols-orthogonality"] = (
        float(np.max(np.abs(dataset.features.T @ residual))) <= 1e-8
        and abs(float(residual.sum())) <= 1e-8)

    # elastic net at zero penalty reproduces OLS
    en = fit_elastic_net(dataset.features, dataset.target,
                         ElasticNetConfig(penalty=0.0, l1_ratio=0.5,
                                          tolerance=1e-12, max_sweeps=20000),
                         dataset.feature_names)
    checks["elastic-net-ols-limit"] = (
        float(np.max(np.abs(en.weights - model.weights))) <= 1e-6
        and abs(en.intercept - model.intercept) <= 1e-6)

    # coordinate descent never increases its objective: the fit stopped
    # after s sweeps is the s-th iterate of the standardized problem
    ridge = ElasticNetConfig(penalty=0.5, l1_ratio=0.5)
    X, y = dataset.features, dataset.target
    x_scale = X.std(axis=0)
    Z, yc = (X - X.mean(axis=0)) / x_scale, y - y.mean()
    objectives = np.array([
        elastic_net_objective(
            Z, yc, fit_elastic_net(X, y, replace(ridge, max_sweeps=s))
            .weights * x_scale, 0.0, ridge.penalty, ridge.l1_ratio)
        for s in range(1, fit_elastic_net(X, y, ridge).n_sweeps + 1)])
    checks["descent-monotone"] = len(objectives) >= 2 \
        and bool(np.all(np.diff(objectives) <= 1e-12))

    # search best never worsens; strict improvement holds on verified
    # instances under comparison_factor 1 and success_ratio 1
    zeros_count = lambda g: float(g.shape[0] - g.sum())
    sphere = lambda g: float(g @ g)
    binary_spec = BinaryGenomeSpec(40, init_one_probability=0.1)
    strict_params = OsgaParams(population_size=30, max_evaluations=3000,
                               max_selection_pressure=50.0,
                               comparison_factor=1.0, success_ratio=1.0)
    real_spec = RealGenomeSpec(np.array([[-5.0, 5.0]] * 5),
                               sigma_fraction=0.1)
    real_params = OsgaParams(population_size=30, max_evaluations=3000,
                             max_selection_pressure=50.0,
                             comparison_factor=1.0, success_ratio=1.0,
                             crossover_kind="arithmetic")
    monotone = True
    for seed in range(10):
        run = osga_minimize(zeros_count, binary_spec, strict_params,
                            seed=seed)
        monotone = monotone and bool(
            np.all(np.diff(np.array(run.best_history)) <= 0.0))
    checks["search-monotone"] = monotone
    strict = True
    for seed in (0, 7, 9):
        run = osga_minimize(zeros_count, binary_spec, strict_params,
                            seed=seed)
        strict = strict and bool(
            np.all(np.diff(np.array(run.best_history)) < 0.0))
    for seed in (1, 4, 9):
        run = osga_minimize(sphere, real_spec, real_params, seed=seed)
        strict = strict and bool(
            np.all(np.diff(np.array(run.best_history)) < 0.0))
    checks["strict-improvement-instances"] = strict

    # the search never reads the test partition: replacing the test rows
    # with values far outside the data leaves the same run
    partitioned = partition(dataset, seed=0)
    X, y = np.array(dataset.features), np.array(dataset.target)
    test = partitioned.test_indices
    X[test] = np.random.default_rng(5).uniform(-1e3, 1e3, X[test].shape)
    y[test] = -y[test] * 1e3
    twin = PartitionedDataset(Dataset(X, y, dataset.feature_names),
                              partitioned.train_indices,
                              partitioned.validation_indices, test)
    runs = [feature_selection_network(
        p, OsgaParams(population_size=10, max_evaluations=100,
                      max_selection_pressure=15.0),
        seed=0, compute_test_mae=False) for p in (partitioned, twin)]
    checks["test-partition-untouched"] = runs[0] == runs[1]

    # generated noise matches the requested variance fraction
    fractions = []
    for seed in range(10):
        ds, gt = generate_benchmark(CANONICAL, seed=seed)
        noise = ds.target - ds.features[:, gt.true_indices] @ gt.true_weights
        fractions.append(float(np.var(noise) / np.var(ds.target)))
    checks["noise-calibration"] = all(0.17 <= f <= 0.23 for f in fractions)

    ok = all(checks.values())
    detail = ", ".join(f"{name} {'ok' if good else 'FAILED'}"
                       for name, good in checks.items())
    report(5, ok, detail)
    assert ok, detail


def test_criterion_6_linear_system_inversion():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    U = rng.uniform(-4.0, 4.0, size=(200, 2))
    first = fit_ols(U, 2.0 * U[:, 0] + U[:, 1], ("u", "v"))
    second = fit_ols(U, U[:, 0] - U[:, 1], ("u", "v"))
    # analytic inverse of [[2, 1], [1, -1]] applied to targets (5, 1)
    targets = (5.0, 1.0)
    expected = np.linalg.solve(np.array([[2.0, 1.0], [1.0, -1.0]]),
                               np.array(targets))
    task = AnalysisTask(("u", "v"),
                        np.array([[-4.0, 4.0], [-4.0, 4.0]]), targets)
    result = optimize_inputs([first, second], task, seed=0)
    elapsed = time.perf_counter() - started
    u_err = abs(result.inputs["u"] - expected[0]) / abs(expected[0])
    v_err = abs(result.inputs["v"] - expected[1]) / abs(expected[1])
    ok = u_err <= 0.01 and v_err <= 0.01 and elapsed < 30.0
    report(6, ok, f"recovered inputs ({result.inputs['u']:.4f}, "
                  f"{result.inputs['v']:.4f}) vs analytic "
                  f"({expected[0]:.4f}, {expected[1]:.4f}); relative "
                  f"errors {u_err:.2e}/{v_err:.2e} (limit 1%), "
                  f"{elapsed:.1f}s")
    assert u_err <= 0.01
    assert v_err <= 0.01
    assert elapsed < 30.0
