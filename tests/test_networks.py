"""Feature-selection network, its plain-loop twin, and nested tuning."""

from dataclasses import replace

import numpy as np
import pytest

from optnet.data import FeatureMask, partition
from optnet.engine import Node, NodeContext
from optnet.errors import InvalidConfigError
from optnet.forest import ForestConfig, ForestModel
from optnet.linear import LinearModel
from optnet.networks import (
    FitnessConfig,
    ForestBuilderNode,
    ForestModelNode,
    InnerGridSearch,
    InnerOsgaSearch,
    InnerTuningModelNode,
    NetworkResult,
    OlsModelNode,
    RegressionOrchestratorNode,
    _make_model_node,
    feature_selection_direct,
    feature_selection_network,
    nested_tuning_network,
)
from optnet.osga import OsgaParams
from optnet.payloads import ModelWithQuality, ParameterVector
from optnet._rng import substream

SMALL_PARAMS = OsgaParams(population_size=12, max_evaluations=240,
                          max_selection_pressure=30.0)
TINY_PARAMS = OsgaParams(population_size=8, max_evaluations=120,
                         max_selection_pressure=20.0)


# ---------------------------------------------------------------------------
# Fitness configuration

def test_fitness_config_validation():
    FitnessConfig(0.0).validate()
    with pytest.raises(InvalidConfigError):
        FitnessConfig(-0.1).validate()


def test_fitness_default_resolves_to_scale_free_penalty(small_partitioned):
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    _, train_y = small_partitioned.train_xy()
    _, val_y = small_partitioned.validation_xy()
    base = np.mean(np.abs(val_y - np.mean(train_y)))
    expected = 0.01 * base / small_partitioned.base.n_features
    assert orchestrator.penalty_per_feature == pytest.approx(expected)


def test_fitness_explicit_penalty_and_score(small_partitioned):
    orchestrator = RegressionOrchestratorNode(
        "o", small_partitioned, FitnessConfig(penalty_per_feature=0.5))
    assert orchestrator.penalty_per_feature == 0.5
    quality = ModelWithQuality(None, train_mae=0.0, validation_mae=1.0,
                               n_features=3)
    assert orchestrator.score(quality) == pytest.approx(2.5)


def test_orchestrator_projects_problems(small_partitioned):
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    mask = FeatureMask.from_indices((1, 4), 8)
    problem = orchestrator.make_problem(mask)
    train_x, train_y = small_partitioned.train_xy()
    assert np.array_equal(problem.train_features, train_x[:, [1, 4]])
    assert np.array_equal(problem.train_target, train_y)
    assert problem.feature_names == ("x1", "x4")
    assert problem.mask == mask


# ---------------------------------------------------------------------------
# Model-node factory

def test_make_model_node_variants():
    assert isinstance(_make_model_node("ols"), OlsModelNode)
    assert isinstance(_make_model_node(None), OlsModelNode)
    config = ForestConfig(n_trees=3)
    forest_node = _make_model_node(config)
    assert isinstance(forest_node, ForestModelNode)
    assert forest_node.config is config
    custom = OlsModelNode("model")
    assert _make_model_node(custom) is custom
    with pytest.raises(InvalidConfigError):
        _make_model_node(42)


# ---------------------------------------------------------------------------
# End-to-end search behavior

def test_search_finds_single_true_feature(toy_dataset):
    partitioned = partition(toy_dataset, seed=0)
    result = feature_selection_network(
        partitioned,
        OsgaParams(population_size=8, max_evaluations=160,
                   max_selection_pressure=20.0),
        FitnessConfig(penalty_per_feature=0.05),
        seed=0, init_one_probability=0.4)
    assert result.best_mask.to_string() == "100"
    assert result.best_model.label == "ols"
    assert result.best_model.n_features == 1
    assert result.best_fitness == pytest.approx(0.05, abs=1e-6)
    assert result.penalty_per_feature == 0.05
    assert result.evaluations <= 160
    assert result.terminated_by in ("pressure", "budget", "target")


def test_huge_penalty_drives_mask_empty(small_partitioned):
    result = feature_selection_network(
        small_partitioned, TINY_PARAMS, FitnessConfig(penalty_per_feature=1e9),
        seed=0)
    assert result.best_mask.n_selected == 0
    assert result.best_model.n_features == 0
    assert isinstance(result.best_model.model, LinearModel)
    assert result.best_model.model.weights.shape == (0,)


def test_zero_penalty_recorded(small_partitioned):
    result = feature_selection_network(
        small_partitioned, TINY_PARAMS, FitnessConfig(penalty_per_feature=0.0),
        seed=1)
    assert result.penalty_per_feature == 0.0
    assert result.best_fitness == pytest.approx(
        result.best_model.validation_mae)


def test_fitness_decomposition_for_ols(small_partitioned):
    """The final refit repeats a deterministic fit, so the stored best
    fitness must equal the refit model's validation error plus the
    feature penalty."""
    result = feature_selection_network(small_partitioned, SMALL_PARAMS, seed=2)
    recomposed = (result.best_model.validation_mae
                  + result.penalty_per_feature * result.best_model.n_features)
    assert result.best_fitness == pytest.approx(recomposed, abs=1e-12)


# ---------------------------------------------------------------------------
# Twin equivalence and scheduling invariance

def test_network_matches_direct_loop_ols(small_partitioned):
    net = feature_selection_network(small_partitioned, SMALL_PARAMS, seed=5)
    direct = feature_selection_direct(small_partitioned, SMALL_PARAMS, seed=5)
    assert net == direct
    assert net.best_history == direct.best_history
    assert net.best_model.test_mae == direct.best_model.test_mae


def test_network_matches_direct_loop_forest(small_partitioned):
    config = ForestConfig(n_trees=5, sample_ratio=0.8, feature_ratio=0.7)
    net = feature_selection_network(small_partitioned, TINY_PARAMS,
                                    model=config, seed=3)
    direct = feature_selection_direct(small_partitioned, TINY_PARAMS,
                                      model=config, seed=3)
    assert net == direct
    assert net.best_model.label == "random-forest"


class JitteredOlsNode(OlsModelNode):
    """A user model node whose fit draws from its stream: it breaks
    validation ties with a tiny random jitter."""

    def fit_problem(self, problem, rng):
        fitted = super().fit_problem(problem, rng)
        return replace(fitted, validation_mae=fitted.validation_mae
                       + 1e-9 * rng.random())


class ExtraDrawForestNode(ForestModelNode):
    """A user forest node that makes one more draw per fit than the
    built-in one."""

    def fit_problem(self, problem, rng):
        rng.random()
        return super().fit_problem(problem, rng)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("make_node", [
    lambda: JitteredOlsNode("model"),
    lambda: ExtraDrawForestNode("model", ForestConfig(n_trees=3)),
], ids=["ols-subclass", "forest-subclass"])
def test_user_model_node_drawing_randomness_matches_twin(
        small_partitioned, make_node, workers):
    """The refit continues the model node's live stream, so the twin
    property holds for nodes the network knows nothing about."""
    net = feature_selection_network(small_partitioned, TINY_PARAMS,
                                    model=make_node(), seed=3,
                                    workers=workers)
    direct = feature_selection_direct(small_partitioned, TINY_PARAMS,
                                      model=make_node(), seed=3)
    assert net == direct


def test_worker_count_invariance(small_partitioned):
    solo = feature_selection_network(small_partitioned, SMALL_PARAMS, seed=4,
                                     workers=1)
    pooled = feature_selection_network(small_partitioned, SMALL_PARAMS,
                                       seed=4, workers=8)
    assert solo == pooled


def test_different_seeds_differ(small_partitioned):
    a = feature_selection_network(small_partitioned, SMALL_PARAMS, seed=0)
    b = feature_selection_network(small_partitioned, SMALL_PARAMS, seed=1)
    assert a != b  # same config, different stream


def test_network_result_equality_semantics(small_partitioned):
    from dataclasses import replace
    result = feature_selection_network(small_partitioned, TINY_PARAMS, seed=0)
    slower = replace(result, wall_time=result.wall_time + 100.0)
    assert result == slower  # wall time is not part of identity
    assert result != "something else"


# ---------------------------------------------------------------------------
# Test-partition hygiene

def test_search_never_touches_test_partition(small_benchmark):
    dataset, _ = small_benchmark
    partitioned = partition(dataset, seed=0)
    partitioned.reset_access_counts()
    result = feature_selection_network(partitioned, TINY_PARAMS, seed=0,
                                       compute_test_mae=False)
    assert partitioned.access_counts["test"] == 0
    assert partitioned.access_counts["train"] == 1
    assert partitioned.access_counts["validation"] == 1
    assert result.best_model.test_mae is None

    partitioned.reset_access_counts()
    result = feature_selection_network(partitioned, TINY_PARAMS, seed=0)
    assert partitioned.access_counts["test"] == 1
    assert result.best_model.test_mae is not None


# ---------------------------------------------------------------------------
# Degenerate problems

def test_forest_node_empty_mask_falls_back_to_constant(small_partitioned):
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    problem = orchestrator.make_problem(FeatureMask(np.zeros(8, dtype=bool)))
    node = ForestModelNode("model", ForestConfig(n_trees=3))
    fitted = node.fit_problem(problem, substream(0, "x"))
    assert isinstance(fitted.model, LinearModel)
    assert fitted.label == "random-forest"
    assert fitted.n_features == 0


def test_inner_tuning_empty_mask_falls_back_to_ols(small_partitioned):
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    problem = orchestrator.make_problem(FeatureMask(np.zeros(8, dtype=bool)))
    node = InnerTuningModelNode("model", InnerGridSearch(budget=2))
    fitted = node.fit_problem(problem, substream(0, "x"))
    assert fitted.label == "ols"
    assert isinstance(fitted.model, LinearModel)


# ---------------------------------------------------------------------------
# Inner hyperparameter search

def test_inner_grid_cells_are_sample_major():
    grid = InnerGridSearch(sample_ratios=(0.1, 0.2), feature_ratios=(0.3,),
                           n_trees_options=(1, 2), budget=10)
    assert list(grid.cells()) == [(0.1, 0.3, 1), (0.1, 0.3, 2),
                                  (0.2, 0.3, 1), (0.2, 0.3, 2)]


def test_inner_search_validation():
    with pytest.raises(InvalidConfigError):
        InnerGridSearch(sample_ratios=()).validate()
    with pytest.raises(InvalidConfigError):
        InnerGridSearch(budget=0).validate()
    with pytest.raises(InvalidConfigError):
        InnerOsgaSearch(budget=0).validate()
    with pytest.raises(InvalidConfigError):
        InnerTuningModelNode("m", InnerGridSearch(budget=0))


def test_inner_grid_budget_exhaustion_flagged(small_partitioned):
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    problem = orchestrator.make_problem(FeatureMask.from_indices((0, 1, 2), 8))
    node = InnerTuningModelNode("model", InnerGridSearch(budget=5))
    fitted = node.fit_problem(problem, substream(7, "x"))  # 27 cells, 5 fit
    assert "budget-exhausted" in fitted.flags
    assert fitted.label.startswith("tuned-forest(")


def test_inner_osga_budget_exhaustion_flagged(small_partitioned):
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    problem = orchestrator.make_problem(FeatureMask.from_indices((0, 1, 2), 8))
    search = InnerOsgaSearch(
        params=OsgaParams(population_size=4, max_evaluations=30,
                          crossover_kind="arithmetic",
                          max_selection_pressure=50.0),
        n_trees_bounds=(2, 6), budget=6)  # stops 2 children into gen 1
    fitted = InnerTuningModelNode("model", search).fit_problem(
        problem, substream(7, "x"))
    assert "budget-exhausted" in fitted.flags
    assert fitted.label.startswith("tuned-forest(")


def test_inner_grid_within_budget_not_flagged(small_partitioned):
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    problem = orchestrator.make_problem(FeatureMask.from_indices((0, 1), 8))
    grid = InnerGridSearch(sample_ratios=(0.7,), feature_ratios=(0.5,),
                           n_trees_options=(3, 5), budget=10)
    fitted = InnerTuningModelNode("model", grid).fit_problem(
        problem, substream(7, "x"))
    assert fitted.flags == ()
    assert isinstance(fitted.model, ForestModel)
    assert fitted.label in ("tuned-forest(sample_ratio=0.70,"
                            "feature_ratio=0.50,n_trees=3)",
                            "tuned-forest(sample_ratio=0.70,"
                            "feature_ratio=0.50,n_trees=5)")


def test_inner_osga_search_tunes_within_bounds(small_partitioned):
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    problem = orchestrator.make_problem(FeatureMask.from_indices((0, 1), 8))
    search = InnerOsgaSearch(
        params=OsgaParams(population_size=4, max_evaluations=12,
                          crossover_kind="arithmetic",
                          max_selection_pressure=10.0),
        budget=12)
    fitted = InnerTuningModelNode("model", search).fit_problem(
        problem, substream(1, "x"))
    assert fitted.label.startswith("tuned-forest(")
    assert isinstance(fitted.model, ForestModel)
    n_trees = fitted.model.config.n_trees
    assert 5 <= n_trees <= 60


def test_forest_builder_clamps_parameters(small_partitioned):
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    problem = orchestrator.make_problem(FeatureMask.from_indices((0,), 8))
    builder = ForestBuilderNode("b", problem)
    ctx = NodeContext(builder, substream(0, "x"))
    builder.handle("params", ParameterVector(
        np.array([1.5, 0.5, 0.2]),
        ("sample_ratio", "feature_ratio", "n_trees")), ctx)
    fitted = ctx.emitted[0][1]
    assert fitted.model.config.sample_ratio == 1.0
    assert fitted.model.config.n_trees == 1


def test_nested_network_matches_direct_twin(small_partitioned):
    grid = InnerGridSearch(sample_ratios=(0.7,), feature_ratios=(0.5,),
                           n_trees_options=(3, 5), budget=4)
    osga = InnerOsgaSearch(
        params=OsgaParams(population_size=4, max_evaluations=8,
                          crossover_kind="arithmetic",
                          max_selection_pressure=10.0),
        n_trees_bounds=(2, 6), budget=8)
    params = OsgaParams(population_size=6, max_evaluations=60,
                        max_selection_pressure=15.0)
    for inner in (grid, osga):
        net = nested_tuning_network(small_partitioned, params, inner=inner,
                                    seed=2)
        direct = feature_selection_direct(
            small_partitioned, params,
            model=InnerTuningModelNode("model", inner), seed=2)
        assert net == direct, type(inner).__name__
        assert net.best_model.label.startswith("tuned-forest(")


def test_nested_network_reports_search_shape(small_partitioned):
    inner = InnerGridSearch(sample_ratios=(0.7,), feature_ratios=(0.5,),
                            n_trees_options=(3,), budget=4)
    params = OsgaParams(population_size=6, max_evaluations=40,
                        max_selection_pressure=12.0)
    result = nested_tuning_network(small_partitioned, params, inner=inner,
                                   seed=0)
    assert isinstance(result, NetworkResult)
    assert result.evaluations <= 40
    assert len(result.best_history) >= 1
    assert result.best_mask.n_selected >= 1
