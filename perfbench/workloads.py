"""The four benchmark workloads: inputs, the timed call, and output checks.

Each workload is a closed loop: one process runs one study at a time.
Search workloads keep their dataset fixed (the flagship and the demo
shapes) and take the search seed from --seed; the elastic-net grid has
no search, so its datasets are drawn from --seed instead.

A workload exposes
  run()            the timed call, returning the library's result object
                   (a list of them for forest-swap and enet-grid)
  check(result)    an Outcome: operations attempted and failed, output
                   problems, a determinism fingerprint and test_mae
  twin(result)     (fs-ols only) whether the plain-loop twin agrees
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from optnet.analysis import (AnalysisTask, ForestRecipe, OlsRecipe,
                             optimization_analysis_network)
from optnet.data import BenchmarkConfig, generate_benchmark, partition
from optnet.forest import ForestConfig
from optnet.linear import fit_ols, grid_search_elastic_net, mae, predict
from optnet.networks import (FitnessConfig, feature_selection_direct,
                             feature_selection_network)
from optnet.osga import OsgaParams

SIZES = ("full", "tiny")
# Engine workers for the network workloads: the sandbox this benchmark was
# sized on has two cores, and BLAS is pinned to one thread per process.
WORKERS = 2
# criterion 2 of the acceptance suite: the flagship search lands within
# 2 % of the oracle OLS test MAE (holds at the full 25 000-evaluation budget)
ORACLE_GAP_LIMIT = 0.02
# squared distance of the OLS combination's outputs from the targets (12, 5):
# 2.5e-2 allows about 0.16 output units; seeds 0-49 reach 1.7e-5 to
# 5.1e-3 before the population stagnates
INPUT_RESIDUAL_TOLERANCE = 2.5e-2
ENET_GRID_CELLS = 125


@dataclass
class Outcome:
    """What the output check makes of one run of the timed call."""

    ops: int
    flagged: int  # operations the result itself marks as failed
    problems: list[str]
    fingerprint: str
    test_mae: float
    notes: dict = field(default_factory=dict)


@dataclass
class DataTiming:
    generate_s: float = 0.0
    partition_s: float = 0.0


def _dataset(config: BenchmarkConfig, seed: int, timing: DataTiming):
    t0 = time.perf_counter()
    dataset, truth = generate_benchmark(config, seed=seed)
    t1 = time.perf_counter()
    partitioned = partition(dataset, seed=seed)
    t2 = time.perf_counter()
    timing.generate_s += t1 - t0
    timing.partition_s += t2 - t1
    return partitioned, truth


def _test_mae_on(partitioned, columns) -> float:
    """Test MAE of OLS refit on the given feature columns."""
    X, y = partitioned.train_xy()
    X_test, y_test = partitioned.test_xy()
    cols = np.asarray(columns, dtype=np.intp)
    model = fit_ols(X[:, cols], y)
    return mae(predict(model, X_test[:, cols]), y_test)


def _nonincreasing(values) -> bool:
    return all(b <= a for a, b in zip(values, values[1:]))


def _mask_fingerprint(result) -> str:
    return (f"{result.best_mask.to_string()}|{result.best_fitness!r}|"
            f"{result.evaluations}")


def _network_problems(result, params: OsgaParams) -> list:
    """Checks shared by both mask-search workloads."""
    problems = []
    model = result.best_model
    if not math.isfinite(result.best_fitness):
        problems.append(f"best fitness {result.best_fitness!r} not finite")
    if result.evaluations > params.max_evaluations:
        problems.append(f"{result.evaluations} evaluations exceed the "
                        f"budget of {params.max_evaluations}")
    if not _nonincreasing(result.best_history):
        problems.append("best_history increases")
    if model.n_features != result.best_mask.n_selected:
        problems.append(f"model has {model.n_features} features, mask "
                        f"selects {result.best_mask.n_selected}")
    if model.test_mae is None or not math.isfinite(model.test_mae):
        problems.append(f"refit test MAE {model.test_mae!r} not finite")
    return problems


class FsOls:
    """The flagship: 1000x100 benchmark, 15 relevant features, OSGA with
    population 100 and 25 000 evaluations, penalty 0.05, OLS.

    The selection-pressure cap is raised from 100 to 1000, which the
    budget always reaches first: at the default cap some seeds stop at
    18 400-24 100 evaluations, and time to solution would then vary with
    the seed as much as with the code.
    """

    name = "fs-ols"
    root_span = "networks.feature_selection_network"

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = size
        self.data_timing = DataTiming()
        config = BenchmarkConfig() if size == "full" else BenchmarkConfig(
            n_observations=200, n_features=20, n_relevant=4)
        self.partitioned, self.truth = _dataset(config, 3, self.data_timing)
        self.params = OsgaParams(max_selection_pressure=1000.0) \
            if size == "full" else OsgaParams(population_size=20,
                                               max_evaluations=300)
        self.fitness = FitnessConfig(penalty_per_feature=0.05)
        self.oracle_mae = _test_mae_on(self.partitioned,
                                       self.truth.true_indices)
        self.expected_ops = self.params.max_evaluations

    def warm(self) -> None:
        feature_selection_network(
            self.partitioned, OsgaParams(population_size=10,
                                         max_evaluations=20),
            self.fitness, seed=self.seed, workers=WORKERS)

    def run(self):
        return feature_selection_network(self.partitioned, self.params,
                                         self.fitness, seed=self.seed,
                                         workers=WORKERS)

    def check(self, result) -> Outcome:
        problems = _network_problems(result, self.params)
        mask = result.best_mask
        recomputed = _test_mae_on(self.partitioned, mask.indices)
        if recomputed != result.best_model.test_mae:
            problems.append(f"test MAE {result.best_model.test_mae!r} does "
                            f"not match the returned mask ({recomputed!r})")
        gap = abs(result.best_model.test_mae - self.oracle_mae) \
            / self.oracle_mae
        if self.size == "full" and not gap <= ORACLE_GAP_LIMIT:
            problems.append(f"test MAE {gap:.2%} off the oracle "
                            f"(limit {ORACLE_GAP_LIMIT:.0%})")
        recovered = len(set(mask.indices) & set(self.truth.true_indices))
        return Outcome(
            result.evaluations, 0, problems,
            _mask_fingerprint(result),
            result.best_model.test_mae / self.truth.noise_sigma,
            {"oracle_gap": gap,
             "features_recovered": f"{recovered}/"
                                   f"{len(self.truth.true_indices)}"})

    def twin(self, result) -> bool:
        direct = feature_selection_direct(self.partitioned, self.params,
                                          self.fitness, seed=self.seed)
        return direct == result


class ForestSwap:
    """Demo 05's model swap: the same mask search with a 25-tree forest
    as the model node, on a 300x20 benchmark with 4 relevant features.

    One study is three searches, with GA seeds 3*seed, 3*seed + 1 and
    3*seed + 2. What a search costs depends on the sizes of the masks its
    trajectory visits: over GA seeds 0-19 one search took 5.9-9.2 s at
    the same host speed, and three per study cut the spread that leaves
    between seeds by a factor of about 1.7.
    """

    name = "forest-swap"
    root_span = "networks.feature_selection_network"
    n_searches = 3

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = size
        self.search_seeds = [self.n_searches * seed + i
                             for i in range(self.n_searches)]
        self.data_timing = DataTiming()
        self.partitioned, self.truth = _dataset(
            BenchmarkConfig(n_observations=300, n_features=20, n_relevant=4),
            5, self.data_timing)
        self.params = OsgaParams(
            population_size=16,
            max_evaluations=96 if size == "full" else 16,
            max_selection_pressure=30.0)
        self.forest = ForestConfig(
            n_trees=25 if size == "full" else 3,
            sample_ratio=0.8, feature_ratio=0.7)
        self.fitness = FitnessConfig(penalty_per_feature=0.05)
        self.expected_ops = self.n_searches * self.params.max_evaluations

    def warm(self) -> None:
        # the same code paths with a 3-tree forest: a 25-tree warm-up
        # would add about 0.2 s of host-speed dependent time to setup_s
        feature_selection_network(
            self.partitioned, OsgaParams(population_size=2,
                                         max_evaluations=2),
            self.fitness, model=replace(self.forest, n_trees=3),
            seed=self.seed, workers=WORKERS)

    def run(self):
        return [feature_selection_network(self.partitioned, self.params,
                                          self.fitness, model=self.forest,
                                          seed=seed, workers=WORKERS)
                for seed in self.search_seeds]

    def check(self, results) -> Outcome:
        problems = []
        for seed, result in zip(self.search_seeds, results):
            problems += [f"GA seed {seed}: {p}"
                         for p in _network_problems(result, self.params)]
        return Outcome(sum(r.evaluations for r in results), 0, problems,
                       ";".join(_mask_fingerprint(r) for r in results),
                       float(np.mean([r.best_model.test_mae
                                      for r in results]))
                       / self.truth.noise_sigma)


def _grid_best_index(cells) -> int:
    # the documented tie order: validation MAE, then fewer selected
    # features, then the smaller penalty, then the smaller l1_ratio
    return min(range(len(cells)), key=lambda i: (
        cells[i].validation_mae, cells[i].n_selected, cells[i].penalty,
        cells[i].l1_ratio))


class EnetGrid:
    """grid_search_elastic_net over the default 125-cell grid on three
    1000x100 datasets drawn from the seed."""

    name = "enet-grid"
    root_span = "linear.grid_search"
    n_datasets = 3

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = size
        self.data_timing = DataTiming()
        config = BenchmarkConfig() if size == "full" else BenchmarkConfig(
            n_observations=120, n_features=10, n_relevant=3)
        self.cases = []
        for i in range(self.n_datasets if size == "full" else 1):
            partitioned, truth = _dataset(
                config, self.n_datasets * seed + i, self.data_timing)
            full_mae = _test_mae_on(partitioned,
                                    range(config.n_features))
            oracle_mae = _test_mae_on(partitioned, truth.true_indices)
            self.cases.append((partitioned, truth, oracle_mae, full_mae))
        self.expected_ops = ENET_GRID_CELLS * len(self.cases)

    def warm(self) -> None:
        grid_search_elastic_net(self.cases[0][0], penalty_grid=(1.0,),
                                l1_ratio_grid=(0.5,))

    def run(self):
        return [grid_search_elastic_net(case[0]) for case in self.cases]

    def check(self, results) -> Outcome:
        problems = []
        ops = failed = between = 0
        maes = []
        prints = []
        for i, (result, (_, truth, oracle_mae, full_mae)) in enumerate(
                zip(results, self.cases)):
            cells = result.cells
            ops += len(cells)
            failed += sum(1 for c in cells
                          if not c.ok or not math.isfinite(c.validation_mae))
            if len(cells) != ENET_GRID_CELLS:
                problems.append(f"dataset {i}: {len(cells)} cells, expected "
                                f"{ENET_GRID_CELLS}")
                continue
            if result.best_cell != cells[_grid_best_index(cells)]:
                problems.append(f"dataset {i}: chosen cell is not the grid "
                                f"minimum")
            if result.test_mae is None or not math.isfinite(result.test_mae):
                problems.append(f"dataset {i}: test MAE {result.test_mae!r} "
                                f"not finite")
                continue
            if oracle_mae < result.test_mae < full_mae:
                between += 1
            maes.append(result.test_mae / truth.noise_sigma)
            prints.append(f"{result.best_cell.penalty!r},"
                          f"{result.best_cell.l1_ratio!r},"
                          f"{result.validation_mae!r}")
        return Outcome(ops, failed, problems, ";".join(prints),
                       float(np.mean(maes)) if maes else math.nan,
                       {"between_baselines": f"{between}/{len(results)}"})


class InputSearch:
    """Demo 07's optimization analysis: two 300x8 outputs, a pool of OLS
    and a 10-tree depth-8 forest, k=2, SBX real-genome OSGA with a fixed
    20 000-evaluation cap per model combination."""

    name = "input-search"
    root_span = "analysis.optimization_analysis_network"

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = size
        self.data_timing = DataTiming()
        config = BenchmarkConfig(n_observations=300, n_features=8,
                                 n_relevant=3, weight_low=1.0,
                                 weight_high=6.0,
                                 noise_variance_fraction=0.05)
        self.datasets, self.truths = [], []
        for data_seed in (0, 1):
            partitioned, truth = _dataset(config, data_seed,
                                          self.data_timing)
            self.datasets.append(partitioned)
            self.truths.append(truth)
        self.recipes = (OlsRecipe(), ForestRecipe(
            ForestConfig(n_trees=10 if size == "full" else 2, max_depth=8)))
        self.task = AnalysisTask(
            input_names=self.datasets[0].base.feature_names,
            bounds=np.array([[-3.0, 3.0]] * 8),
            target_outputs=(12.0, 5.0))
        # no target fitness and a pressure cap the budget reaches first:
        # every combination spends exactly max_evaluations
        self.search = OsgaParams(
            population_size=50 if size == "full" else 24,
            max_evaluations=8000 if size == "full" else 3000,
            crossover_kind="simulated-binary",
            max_selection_pressure=1000.0)
        self.expected_ops = 2 * self.search.max_evaluations

    def warm(self) -> None:
        optimization_analysis_network(
            self.datasets, (OlsRecipe(),), 1, self.task,
            OsgaParams(population_size=4, max_evaluations=8,
                       crossover_kind="simulated-binary"),
            seed=self.seed, workers=WORKERS)

    def run(self):
        return optimization_analysis_network(
            self.datasets, self.recipes, 2, self.task, self.search,
            seed=self.seed, workers=WORKERS)

    def check(self, report) -> Outcome:
        problems = []
        bounds = np.asarray(self.task.bounds)
        ops = 0
        prints = []
        ols_combos = 0
        for combo, found in report.ranked:
            labels = [e.label for e in combo]
            ops += found.evaluations
            x = np.array([found.inputs[n] for n in self.task.input_names])
            outside = ~((bounds[:, 0] <= x) & (x <= bounds[:, 1]))
            if outside.any():
                names = [n for n, o in zip(self.task.input_names, outside)
                         if o]
                problems.append(f"{'+'.join(labels)}: inputs {names} lie "
                                f"outside their bounds")
            if not math.isfinite(found.residual):
                problems.append(f"{'+'.join(labels)}: residual "
                                f"{found.residual!r} not finite")
            if all(label == "ols" for label in labels):
                ols_combos += 1
                if not found.residual <= INPUT_RESIDUAL_TOLERANCE:
                    problems.append(f"OLS combination residual "
                                    f"{found.residual!r} above "
                                    f"{INPUT_RESIDUAL_TOLERANCE}")
            prints.append(f"{'+'.join(labels)}:{x.tolist()!r}:"
                          f"{found.residual!r}:{found.evaluations}")
        if ols_combos != 1:
            problems.append(f"{ols_combos} all-OLS combinations ranked, "
                            f"expected 1")
        # the model each output's pool ranks first by validation MAE, the
        # one the subset selection hands to the search first
        test_mae = float(np.mean([
            min((e for e in pool if e.ok),
                key=lambda e: e.result.validation_mae).result.test_mae
            / truth.noise_sigma
            for pool, truth in zip(report.pools, self.truths)]))
        return Outcome(ops, 0, problems,
                       "|".join(prints), test_mae,
                       {"best_residual": report.best_residual})


WORKLOADS = {w.name: w for w in (FsOls, ForestSwap, EnetGrid, InputSearch)}
