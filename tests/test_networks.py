"""Feature-selection network, its plain-loop twin, and nested tuning."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optnet import networks
from optnet.data import (
    BenchmarkConfig,
    Dataset,
    FeatureMask,
    generate_benchmark,
    partition,
)
from optnet.analysis import FeatureSelectionRecipe
from optnet.engine import Node, NodeContext, Port
from optnet.errors import InvalidConfigError, ShapeMismatchError
from optnet.forest import ForestConfig, ForestModel, fit_random_forest, \
    predict_forest
from optnet.linear import LinearModel, fit_ols, mae, predict
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
    build_feature_selection_topology,
    feature_selection_direct,
    feature_selection_network,
)
from optnet.osga import OsgaParams, drive
from optnet.payloads import ModelWithQuality, ParameterVector
from optnet.payloads import RegressionProblem
from optnet._rng import substream
from test_linear import GRAM_TOLERANCE

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
    with pytest.raises(InvalidConfigError):
        FitnessConfig(float("nan")).validate()


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
    """A mask keeps every row and its own columns, none or all of them."""
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    train_x, train_y = small_partitioned.train_xy()
    val_x, _ = small_partitioned.validation_xy()
    for keep in ((1, 4), (), tuple(range(8))):
        mask = FeatureMask.from_indices(keep, 8)
        problem = orchestrator.make_problem(mask)
        assert problem.train_features.shape == (len(train_y), len(keep))
        assert np.array_equal(problem.train_features, train_x[:, list(keep)])
        assert np.array_equal(problem.train_target, train_y)
        assert problem.feature_names == tuple(f"x{i}" for i in keep)
        assert problem.mask == mask
        assert np.array_equal(problem.validation_features,
                              val_x[:, list(keep)])
    with pytest.raises(ShapeMismatchError):
        orchestrator.make_problem(FeatureMask.from_indices((1,), 7))


def test_replaced_problem_is_fitted_from_its_own_arrays(small_partitioned):
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    projected = orchestrator.make_problem(FeatureMask.from_indices((1, 4), 8))
    doubled = replace(projected, train_features=2 * projected.train_features)
    assert doubled.source is None and projected.source is not None
    fitted = OlsModelNode("model").fit_problem(doubled, None)
    assert fitted.model == fit_ols(doubled.train_features,
                                   projected.train_target, ("x1", "x4"))


# ---------------------------------------------------------------------------
# Model-node factory

def test_make_model_node_variants():
    assert isinstance(_make_model_node("ols"), OlsModelNode)
    config = ForestConfig(n_trees=3)
    forest_node = _make_model_node(config)
    assert isinstance(forest_node, ForestModelNode)
    assert forest_node.config is config
    custom = OlsModelNode("model")
    assert _make_model_node(custom) is custom
    for bad in (42, None):
        with pytest.raises(InvalidConfigError):
            _make_model_node(bad)


class DrawRecordingNode(OlsModelNode):
    """An OLS node that records one draw of its stream per fit."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.draws = []

    def fit_problem(self, problem, rng):
        self.draws.append(rng.random())
        return super().fit_problem(problem, rng)


def test_model_node_runs_under_its_own_id(small_partitioned):
    """The mask search wires a model node by its id and hands it the
    stream of that id, so a node named "model" draws what it always
    drew, and a node that draws nothing finds what "ols" finds."""
    topo = build_feature_selection_topology(
        small_partitioned, TINY_PARAMS, model=OlsModelNode("fitter"))
    assert list(map(str, topo.connections)) == [
        "selector.mask -> orchestrator.mask",
        "orchestrator.problem -> fitter.problem",
        "fitter.model -> orchestrator.model",
        "orchestrator.quality -> selector.quality"]
    for node_id in ("model", "fitter"):
        node = DrawRecordingNode(node_id)
        feature_selection_network(small_partitioned, TINY_PARAMS,
                                  model=node, seed=1)
        stream = substream(1, "node", node_id)
        assert node.draws == [stream.random() for _ in node.draws]
    assert feature_selection_network(
        small_partitioned, TINY_PARAMS, model=OlsModelNode("fitter"),
        seed=1) == feature_selection_network(small_partitioned, TINY_PARAMS,
                                             seed=1)


def _outcome(run, *args, **kwargs):
    """run's result, or the type and text of the InvalidConfigError it
    raises."""
    try:
        return run(*args, **kwargs)
    except InvalidConfigError as exc:
        return type(exc), str(exc)


@settings(max_examples=30, deadline=None, database=None)
@given(node_id=st.one_of(
           st.sampled_from(["selector", "orchestrator", "model"]),
           st.text(max_size=6)),
       drawing=st.booleans(), seed=st.integers(0, 2 ** 16))
@example(node_id="selector", drawing=False, seed=0)
def test_network_and_twin_run_or_refuse_the_same_model_node_ids(
        small_partitioned, node_id, drawing, seed):
    """Under any id, the built-in ones included, the network and its
    plain-loop twin return equal results or raise the same error."""
    make = DrawRecordingNode if drawing else OlsModelNode
    outcomes = [_outcome(run, small_partitioned, TINY_PARAMS,
                         model=make(node_id), seed=seed)
                for run in (feature_selection_network,
                            feature_selection_direct)]
    assert outcomes[0] == outcomes[1]
    refused = node_id in ("selector", "orchestrator")
    assert isinstance(outcomes[0], tuple) == refused


class HandleOnlyNode(Node):
    """A model node with a handler but no fit_problem for the refit."""

    input_ports = OlsModelNode.input_ports
    output_ports = OlsModelNode.output_ports

    def handle(self, port_name, payload, ctx):
        raise AssertionError("the search must not start")


@pytest.mark.parametrize("run", [feature_selection_network,
                                 feature_selection_direct])
def test_model_node_without_fit_problem_is_refused_before_the_search(
        small_partitioned, run):
    with pytest.raises(InvalidConfigError, match="fit_problem"):
        run(small_partitioned, TINY_PARAMS, model=HandleOnlyNode("model"))


class PlainFitNode(Node):
    """A plain node with single-problem ports and a fit_problem: not a
    ModelNode, so the mask search has no batch ports to wire it by."""

    input_ports = (Port("problem", "regression-problem"),)
    output_ports = (Port("model", "model-with-quality"),)

    def fit_problem(self, problem, rng):
        raise AssertionError("the search must not start")

    handle = HandleOnlyNode.handle


@pytest.mark.parametrize("run", [
    feature_selection_network, feature_selection_direct,
    lambda p, params, model: FeatureSelectionRecipe(params, model=model).fit(
        p, 0)], ids=["network", "twin", "recipe"])
def test_plain_node_with_fit_problem_is_refused_before_the_search(
        small_partitioned, run):
    with pytest.raises(InvalidConfigError,
                       match=r"ModelNode with fit_problem\(problem, rng\)"):
        run(small_partitioned, TINY_PARAMS, model=PlainFitNode("model"))


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


TINY_INNER = InnerGridSearch(sample_ratios=(0.7,), feature_ratios=(0.5,),
                             n_trees_options=(2, 3), budget=2)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("make_node", [
    lambda: JitteredOlsNode("model"),
    lambda: ExtraDrawForestNode("model", ForestConfig(n_trees=3)),
    lambda: OlsModelNode("fitter"),
    lambda: ExtraDrawForestNode("trees", ForestConfig(n_trees=3)),
    lambda: InnerTuningModelNode("tuner", TINY_INNER),
], ids=["ols-subclass", "forest-subclass", "ols-as-fitter",
        "forest-subclass-as-trees", "nested-as-tuner"])
@settings(max_examples=4, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 31 - 1))
@example(seed=3)
def test_user_model_node_drawing_randomness_matches_twin(
        small_partitioned, make_node, workers, seed):
    """The refit continues the model node's live stream, and a node
    that overrides only fit_problem is called once per problem, in
    order, so the twin property holds over seeds for nodes the network
    knows nothing about, wired under whatever id they carry."""
    net = feature_selection_network(small_partitioned, TINY_PARAMS,
                                    model=make_node(), seed=seed,
                                    workers=workers)
    direct = feature_selection_direct(small_partitioned, TINY_PARAMS,
                                      model=make_node(), seed=seed)
    assert net == direct


# ---------------------------------------------------------------------------
# OLS fit memo

def _fresh_fit(problem):
    return OlsModelNode("fresh").fit_problem(problem, substream(0, "x"))


@settings(max_examples=100, deadline=None, database=None)
@given(bound=st.integers(1, 6),
       pool=st.lists(st.integers(0, 255), min_size=2, max_size=12,
                     unique=True),
       picks=st.lists(st.integers(0, 11), min_size=1, max_size=60))
def test_memo_returns_what_a_fresh_fit_returns(small_partitioned, bound,
                                               pool, picks):
    """Any mask sequence, with repeats and evictions, gets the fits a
    fresh node would make, and hits follow a least-recently-used memo."""
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    node = OlsModelNode("model")
    recent: list[bytes] = []  # oracle: most recently used last
    with mock.patch.object(networks, "OLS_MEMO_SIZE", bound):
        for pick in picks:
            code = pool[pick % len(pool)]
            mask = FeatureMask(np.array([(code >> b) & 1 for b in range(8)]))
            problem = orchestrator.make_problem(mask)
            key = mask.bits.tobytes()
            hits = node.hits
            assert node.fit_problem(problem, None) == _fresh_fit(problem)
            assert node.hits - hits == (key in recent)
            if key in recent:
                recent.remove(key)
            recent = (recent + [key])[-bound:]
    assert node.hits + node.fits == len(picks)


def test_memo_evicts_past_its_bound():
    dataset, _ = generate_benchmark(
        BenchmarkConfig(n_observations=40, n_features=11, n_relevant=2),
        seed=2)
    orchestrator = RegressionOrchestratorNode("o", partition(dataset, seed=2))
    node = OlsModelNode("model")
    masks = [FeatureMask(np.array([(i >> b) & 1 for b in range(11)]))
             for i in range(networks.OLS_MEMO_SIZE + 1)]
    for mask in masks:
        node.fit_problem(orchestrator.make_problem(mask), None)
    assert (node.fits, node.hits) == (len(masks), 0)
    node.fit_problem(orchestrator.make_problem(masks[-1]), None)
    assert (node.fits, node.hits) == (len(masks), 1)
    oldest = orchestrator.make_problem(masks[0])
    assert node.fit_problem(oldest, None) == _fresh_fit(oldest)
    assert (node.fits, node.hits) == (len(masks) + 1, 1)


def test_memo_keeps_datasets_apart(small_benchmark):
    """Two orchestrators on different partitions project equal masks onto
    different target arrays; one node must not mix their fits."""
    dataset, _ = small_benchmark
    first = RegressionOrchestratorNode("a", partition(dataset, seed=0))
    second = RegressionOrchestratorNode("b", partition(dataset, seed=1))
    node = OlsModelNode("model")
    masks = (FeatureMask.from_indices((0, 3), 8),
             FeatureMask.from_indices((1,), 8))
    for orchestrator in (first, second, first, first):
        for mask in masks:
            problem = orchestrator.make_problem(mask)
            assert node.fit_problem(problem, None) == _fresh_fit(problem)
    assert (node.fits, node.hits) == (6, 2)
    assert node.fit_problem(first.make_problem(masks[0]), None) \
        != node.fit_problem(second.make_problem(masks[0]), None)


def test_memo_fits_problems_without_a_mask(small_partitioned):
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    node = OlsModelNode("model")
    masked = orchestrator.make_problem(FeatureMask.from_indices((1, 2), 8))
    bare = replace(masked, mask=None)
    for problem in (masked, bare, bare, masked):
        assert node.fit_problem(problem, None) == _fresh_fit(problem)
    # the unmasked fits neither hit nor empty the memo
    assert (node.fits, node.hits) == (3, 1)


def test_memo_stores_nothing_for_a_fit_that_raises(small_partitioned):
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    node = OlsModelNode("model")
    good = orchestrator.make_problem(FeatureMask.from_indices((1, 2), 8))
    features = good.train_features.copy()
    features[0, 0] = np.nan
    bad = replace(good, train_features=features)
    for _ in range(2):
        with pytest.raises(InvalidConfigError, match="finite"):
            node.fit_problem(bad, None)
    assert (node.fits, node.hits) == (0, 0)
    assert node.fit_problem(good, None) == _fresh_fit(good)
    assert (node.fits, node.hits) == (1, 0)


class MaskRecordingOlsNode(OlsModelNode):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.seen: list[bytes] = []
        self.hit_flags: list[bool] = []

    def fit_problem(self, problem, rng):
        hits = self.hits
        fitted = super().fit_problem(problem, rng)
        self.seen.append(problem.mask.bits.tobytes())
        self.hit_flags.append(self.hits > hits)
        return fitted


def test_memo_counters_on_a_network_run(small_partitioned):
    node = MaskRecordingOlsNode("model")
    result = feature_selection_network(small_partitioned, TINY_PARAMS,
                                       model=node, seed=3)
    assert len(set(node.seen)) < networks.OLS_MEMO_SIZE
    # every evaluation plus the final refit
    assert node.hits + node.fits == result.evaluations + 1 == len(node.seen)
    # one fit per distinct search mask, and the winner's refit is fitted
    # afresh with fit_ols rather than answered from the memo
    assert node.fits == len(set(node.seen)) + 1
    assert node.hits > 0
    assert not node.hit_flags[-1]
    assert result == feature_selection_direct(small_partitioned, TINY_PARAMS,
                                              seed=3)


@pytest.fixture(scope="module")
def collinear_partitioned():
    """The flagship's 1000 x 100 design plus column 100, a copy of column
    0, and column 101, column 2 plus 1e-12 noise."""
    dataset, _ = generate_benchmark(BenchmarkConfig(), seed=3)
    X = dataset.features
    noise = np.random.default_rng(5).standard_normal(X.shape[0])
    X = np.column_stack([X, X[:, 0], X[:, 2] + 1e-12 * noise])
    names = dataset.feature_names + ("copy0", "near2")
    return partition(Dataset(X, dataset.target, names), seed=3)


@settings(max_examples=40, deadline=None, database=None)
@given(columns=st.sets(st.integers(0, 101), max_size=102))
def test_ols_node_fits_exactly_where_the_gram_falls_back(
        collinear_partitioned, columns):
    """The collinear pairs leave every mask to fit_ols: each gets
    fit_ols's very model, rank_deficient flag included."""
    orchestrator = RegressionOrchestratorNode("o", collinear_partitioned)
    mask = FeatureMask.from_indices(sorted(columns), 102)
    fitted = OlsModelNode("model").fit_problem(
        orchestrator.make_problem(mask), None)
    X, y = collinear_partitioned.train_xy()
    cols = list(mask.indices)
    names = tuple(collinear_partitioned.base.feature_names[i] for i in cols)
    assert fitted.model == fit_ols(X[:, cols], y, names)
    assert fitted.model.rank_deficient \
        == ({0, 100} <= columns or {2, 101} <= columns)


def test_ols_node_gives_the_empty_mask_the_constant_model(
        small_partitioned):
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    fitted = OlsModelNode("model").fit_problem(
        orchestrator.make_problem(FeatureMask(np.zeros(8, dtype=bool))),
        None)
    _, y = small_partitioned.train_xy()
    assert fitted.model == LinearModel(np.zeros(0), float(np.mean(y)), ())


def test_memo_hit_gathers_no_column(small_partitioned,
                                    collinear_partitioned):
    """A hit and a miss solved from the Gram matrix gather no column; a
    miss fitted by fit_ols, the empty mask's or any mask's of a design
    whose Gram matrix is refused, gathers its own."""
    gathered = {"train_features", "validation_features", "feature_names"}
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    node = OlsModelNode("model")
    mask = FeatureMask.from_indices((1, 4), 8)
    first = orchestrator.make_problem(mask)
    node.fit_problem(first, None)
    assert not gathered & set(vars(first))
    again = orchestrator.make_problem(mask)
    assert node.fit_problem(again, None) is node.fit_problem(first, None)
    assert not gathered & set(vars(again))
    empty = orchestrator.make_problem(FeatureMask(np.zeros(8, dtype=bool)))
    node.fit_problem(empty, None)
    assert "train_features" in vars(empty)
    collinear = RegressionOrchestratorNode(
        "c", collinear_partitioned).make_problem(
            FeatureMask.from_indices((1, 4), 102))
    OlsModelNode("model").fit_problem(collinear, None)
    assert "train_features" in vars(collinear)


@pytest.fixture(scope="module")
def flagship_partitioned():
    """The flagship's 1000 x 100 design, whose Gram matrix solves."""
    dataset, _ = generate_benchmark(BenchmarkConfig(), seed=3)
    return partition(dataset, seed=3)


def _hex(value):
    """A float by its bits; None, a search-time fit's train MAE, as is."""
    return None if value is None else value.hex()


def _fit_bits(fitted):
    """A fit's values, every float by its bits."""
    model = fitted.model
    return (model.weights.tobytes(), model.intercept.hex(),
            model.feature_names, model.rank_deficient,
            _hex(fitted.train_mae), fitted.validation_mae.hex(),
            fitted.n_features, fitted.label)


@settings(max_examples=60, deadline=None, database=None)
@given(design=st.sampled_from(["small", "flagship", "collinear"]),
       bound=st.sampled_from([1, 3, networks.OLS_MEMO_SIZE]),
       gather=st.sampled_from([1, networks.GATHER_ELEMENTS]),
       data=st.data())
def test_fit_batch_fits_as_each_problem_alone(
        small_partitioned, flagship_partitioned, collinear_partitioned,
        design, bound, gather, data):
    """Batches of masks with repeats, the empty mask, evictions within a
    batch, gathers of one mask at a time and a Gram matrix that refuses
    every mask get, bit for bit, the fits of one problem at a time on a
    fresh node, and leave equal counters and memo order. Every fit
    scores as mae(predict(...)) on its gathered validation columns, with
    no train MAE, and on a usable Gram matrix each non-empty mask's
    model is a plain two-dimensional solve of its own sub-system, bit
    for bit."""
    partitioned = {"small": small_partitioned,
                   "flagship": flagship_partitioned,
                   "collinear": collinear_partitioned}[design]
    orchestrator = RegressionOrchestratorNode("o", partitioned)
    d = orchestrator.n_features
    (train_x, train_y), (val_x, val_y) = (partitioned.train_xy(),
                                          partitioned.validation_xy())
    gram = networks.OlsGram(train_x, train_y)
    pool = [()] + [tuple(sorted(s)) for s in data.draw(st.lists(
        st.sets(st.integers(0, d - 1), min_size=1, max_size=min(d, 40)),
        min_size=1, max_size=8))]
    batches = data.draw(st.lists(st.lists(
        st.integers(0, len(pool) - 1), min_size=1, max_size=12),
        min_size=1, max_size=4))
    masks = [FeatureMask.from_indices(cols, d) for cols in pool]
    batched, alone = OlsModelNode("a"), OlsModelNode("b")
    with mock.patch.object(networks, "OLS_MEMO_SIZE", bound), \
            mock.patch.object(networks, "GATHER_ELEMENTS", gather):
        for picks in batches:
            got = batched.fit_batch(
                [orchestrator.make_problem(masks[i]) for i in picks], None)
            want = [alone.fit_problem(orchestrator.make_problem(masks[i]),
                                      None) for i in picks]
            assert list(map(_fit_bits, got)) == list(map(_fit_bits, want))
            for i, fitted in zip(picks, got):
                cols = list(pool[i])
                assert fitted.train_mae is None
                assert fitted.validation_mae.hex() == mae(
                    predict(fitted.model, val_x[:, cols]), val_y).hex()
                if gram.usable and cols:
                    idx = cols + [d]
                    coef = np.linalg.solve(gram.gram[np.ix_(idx, idx)],
                                           gram.moment[idx])
                    assert fitted.model.weights.tobytes() \
                        == coef[:-1].tobytes()
                    assert fitted.model.intercept.hex() == coef[-1].hex()
                    assert not fitted.model.rank_deficient
    assert (batched.fits, batched.hits) == (alone.fits, alone.hits)
    assert list(batched._memo) == list(alone._memo)


def test_fit_batch_fits_alone_where_the_stacked_solve_fails(
        flagship_partitioned):
    """A size whose stack is refused is solved mask by mask, as the
    per-problem loop solves it."""
    orchestrator = RegressionOrchestratorNode("o", flagship_partitioned)
    masks = [FeatureMask.from_indices(cols, 100)
             for cols in ((0, 1), (2, 3), (0, 1), (4,))]
    batched, alone = OlsModelNode("a"), OlsModelNode("b")
    stacked = networks.OlsGram.solve_stacked

    def refuse_stacks(gram, columns):
        return None if len(columns) > 1 else stacked(gram, columns)

    with mock.patch.object(networks.OlsGram, "solve_stacked",
                           refuse_stacks):
        got = batched.fit_batch(list(map(orchestrator.make_problem, masks)),
                                None)
    want = [alone.fit_problem(orchestrator.make_problem(m), None)
            for m in masks]
    assert list(map(_fit_bits, got)) == list(map(_fit_bits, want))
    assert (batched.fits, batched.hits) == (alone.fits, alone.hits) == (3, 1)


def test_ols_fit_batch_scores_only_the_validation_rows(flagship_partitioned):
    """A batch's stacked solves score each size once, on the source's
    validation rows, and the node keeps no transposed train rows."""
    orchestrator = RegressionOrchestratorNode("o", flagship_partitioned)
    (train_x, _), (val_x, _) = (flagship_partitioned.train_xy(),
                                flagship_partitioned.validation_xy())
    problems = [orchestrator.make_problem(FeatureMask.from_indices(cols, 100))
                for cols in ((0,), (1, 2), (3,), (4, 5, 6), (1, 2))]
    validation_target = problems[0].source.validation_target
    calls, stacked_mae = [], networks._stacked_mae

    def recording(columns_t, columns, weights, intercepts, target):
        calls.append((columns.shape[1], target))
        return stacked_mae(columns_t, columns, weights, intercepts, target)

    node = OlsModelNode("model")
    with mock.patch.object(networks, "_stacked_mae", recording):
        fits = node.fit_batch(problems, None)
    assert sorted(size for size, _ in calls) == [1, 2, 3]
    assert all(target is validation_target for _, target in calls)
    assert all(fitted.train_mae is None for fitted in fits)
    assert np.array_equal(node._columns_t, val_x.T)
    assert not any(isinstance(value, np.ndarray)
                   and value.shape == train_x.T.shape
                   for value in vars(node).values())


def _forest_fit_bits(fitted):
    """A forest node's fit by its bits: every tree of a forest, or the
    constant model of an empty mask."""
    model = fitted.model
    if isinstance(model, LinearModel):
        return _fit_bits(fitted)
    return ([(t.feature.tobytes(), t.threshold.tobytes(), t.left.tobytes(),
              t.right.tobytes(), t.value.tobytes(), t.depth)
             for t in model.trees], model.feature_names, model.config,
            _hex(fitted.train_mae), fitted.validation_mae.hex(),
            fitted.n_features, fitted.label)


@settings(max_examples=40, deadline=None, database=None)
@given(n_trees=st.integers(1, 4),
       max_depth=st.one_of(st.none(), st.integers(0, 4)),
       min_leaf_size=st.integers(1, 4),
       feature_ratio=st.sampled_from([0.1, 0.4, 0.7, 1.0]),
       sample_ratio=st.sampled_from([0.3, 0.8, 1.0]),
       seed=st.integers(0, 2 ** 31 - 1), data=st.data())
def test_forest_fit_batch_fits_as_each_problem_alone(
        small_partitioned, n_trees, max_depth, min_leaf_size, feature_ratio,
        sample_ratio, seed, data):
    """Batches with the empty mask, one column, every column and repeats
    get, bit for bit, the fits of one problem at a time on a fresh node,
    and leave the node's stream and counters where that loop leaves
    them."""
    config = ForestConfig(n_trees=n_trees, sample_ratio=sample_ratio,
                          feature_ratio=feature_ratio, max_depth=max_depth,
                          min_leaf_size=min_leaf_size)
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    d = orchestrator.n_features
    pool = [(), (data.draw(st.integers(0, d - 1)),), tuple(range(d))] + [
        tuple(sorted(s)) for s in data.draw(st.lists(
            st.sets(st.integers(0, d - 1), min_size=1), max_size=4))]
    batches = data.draw(st.lists(st.lists(
        st.integers(0, len(pool) - 1), min_size=1, max_size=8),
        min_size=1, max_size=3))
    masks = [FeatureMask.from_indices(cols, d) for cols in pool]
    batched, alone = (ForestModelNode(name, config) for name in "ab")
    batched_rng, alone_rng = substream(seed, "m"), substream(seed, "m")
    for picks in batches:
        got = batched.fit_batch(
            [orchestrator.make_problem(masks[i]) for i in picks],
            batched_rng)
        want = [alone.fit_problem(orchestrator.make_problem(masks[i]),
                                  alone_rng) for i in picks]
        assert list(map(_forest_fit_bits, got)) \
            == list(map(_forest_fit_bits, want))
    assert str(batched_rng.bit_generator.state) \
        == str(alone_rng.bit_generator.state)
    assert (batched.fits, batched.nodes_grown) \
        == (alone.fits, alone.nodes_grown)
    assert alone.fits == sum(map(len, batches))


def test_forest_counters_count_fits_and_grown_nodes(small_partitioned):
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    node = ForestModelNode("m", ForestConfig(n_trees=3))
    fits = node.fit_batch([orchestrator.make_problem(
        FeatureMask.from_indices(cols, 8)) for cols in ((), (1,), (0, 2))],
        substream(0, "m"))
    assert node.fits == 3
    assert node.nodes_grown == sum(tree.n_nodes for fitted in fits[1:]
                                   for tree in fitted.model.trees) > 6


def test_a_forest_search_grows_alone_only_its_refit(small_partitioned):
    """Every search-time forest of a forest-swap network is grown with
    its batch; fit_random_forest, the per-forest path, grows only the
    winner's refit, so a silent fall back to it fails here."""
    calls = []
    grow_alone = networks.fit_random_forest

    def counting(*args, **kwargs):
        calls.append(args[0].shape[1])
        return grow_alone(*args, **kwargs)

    with mock.patch.object(networks, "fit_random_forest", counting):
        result = feature_selection_network(
            small_partitioned, TINY_PARAMS, model=ForestConfig(
                n_trees=5, sample_ratio=0.8, feature_ratio=0.7), seed=3)
    assert result.best_mask.n_selected > 0
    assert calls == [result.best_mask.n_selected]


def test_refit_test_mae_is_an_independent_fit_ols(noisy_partitioned):
    """The winner's refit is an exact fit_ols on its columns, whatever
    the Gram solve scored during the search."""
    result = feature_selection_network(noisy_partitioned, SMALL_PARAMS,
                                       seed=2)
    cols = list(result.best_mask.indices)
    X, y = noisy_partitioned.train_xy()
    X_test, y_test = noisy_partitioned.test_xy()
    model = fit_ols(X[:, cols], y)
    assert result.best_model.test_mae == mae(predict(model, X_test[:, cols]),
                                             y_test)
    assert np.array_equal(result.best_model.model.weights, model.weights)


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

def test_search_never_touches_test_partition(small_benchmark, monkeypatch):
    """The search reads train and validation once each and the test rows
    only to score the winner; tests/test_poisoned_test_rows.py shows that
    no other route reaches them either."""
    dataset, _ = small_benchmark
    partitioned = partition(dataset, seed=0)
    reads = []

    def counted(part):
        accessor = getattr(partitioned, part)

        def read():
            reads.append(part)
            return accessor()
        return read

    for part in ("train_xy", "validation_xy", "test_xy"):
        monkeypatch.setattr(partitioned, part, counted(part))
    result = feature_selection_network(partitioned, TINY_PARAMS, seed=0,
                                       compute_test_mae=False)
    assert sorted(reads) == ["train_xy", "validation_xy"]
    assert result.best_model.test_mae is None

    reads.clear()
    result = feature_selection_network(partitioned, TINY_PARAMS, seed=0)
    assert sorted(reads) == ["test_xy", "train_xy", "validation_xy"]
    assert reads[-1] == "test_xy"
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
    with pytest.raises(InvalidConfigError, match="initial population"):
        InnerOsgaSearch(budget=3).validate()
    with pytest.raises(InvalidConfigError):
        InnerTuningModelNode("m", InnerGridSearch(budget=0))


def test_inner_osga_search_rejects_a_crossover_its_genome_lacks():
    search = InnerOsgaSearch(params=OsgaParams(
        population_size=6, max_evaluations=30, crossover_kind="single-point",
        max_selection_pressure=20.0))
    with pytest.raises(InvalidConfigError, match="crossover_kind"):
        search.validate()


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


def test_forest_builder_refuses_settings_out_of_range(small_partitioned):
    """The builder does not clamp: a vector ForestConfig refuses raises,
    and no forest of its batch is emitted, not even one under settings
    ForestConfig accepts."""
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    problem = orchestrator.make_problem(FeatureMask.from_indices((0,), 8))
    builder = ForestBuilderNode("b", problem)
    ctx = NodeContext(builder, substream(0, "x"))
    names = ("sample_ratio", "feature_ratio", "n_trees")
    with pytest.raises(InvalidConfigError):
        builder.handle("params", (
            ParameterVector(np.array([0.5, 0.5, 2.0]), names),
            ParameterVector(np.array([1.5, 0.5, 0.2]), names)), ctx)
    assert ctx.emitted == []


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
        net = feature_selection_network(
            small_partitioned, params,
            model=InnerTuningModelNode("model", inner), seed=2)
        direct = feature_selection_direct(
            small_partitioned, params,
            model=InnerTuningModelNode("model", inner), seed=2)
        assert net == direct, type(inner).__name__
        assert net.best_model.label.startswith("tuned-forest(")


def inner_tuning_oracle(search, problem, rng) -> ModelWithQuality:
    """InnerTuningModelNode.fit_problem as a plain loop: the search's
    stream, on the inner search node's stream, answered by growing each
    cell's forest in order on the inner builder's stream; the first
    candidate with the lowest validation MAE wins, flagged when the
    budget cut the search short."""
    inner_seed = int(rng.integers(np.iinfo(np.int64).max))
    builder_rng = substream(inner_seed, "node", "builder")
    best = None

    def evaluate(batch):
        nonlocal best
        maes = []
        for r, m, t in batch:
            config = ForestConfig(n_trees=int(round(float(t))),
                                  sample_ratio=float(r),
                                  feature_ratio=float(m))
            seed = int(builder_rng.integers(np.iinfo(np.int64).max))
            model = fit_random_forest(problem.train_features,
                                      problem.train_target, config, seed,
                                      problem.feature_names)
            train_mae = None if problem.source is not None else mae(
                predict_forest(model, problem.train_features),
                problem.train_target)
            fitted = ModelWithQuality(
                model, train_mae,
                mae(predict_forest(model, problem.validation_features),
                    problem.validation_target),
                n_features=len(problem.feature_names),
                label=f"tuned-forest(sample_ratio={config.sample_ratio:.2f},"
                      f"feature_ratio={config.feature_ratio:.2f},"
                      f"n_trees={config.n_trees})")
            if best is None or fitted.validation_mae < best.validation_mae:
                best = fitted
            maes.append(fitted.validation_mae)
        return maes

    truncated = drive(search.stream(substream(inner_seed, "node", "search")),
                      evaluate)
    return replace(best, flags=("budget-exhausted",) if truncated else ())


@st.composite
def inner_searches(draw):
    """A small inner grid, its budget below or above its cell count, or
    a small inner OSGA search cut short or not by its budget."""
    if draw(st.booleans()):
        def axis(values):
            return tuple(draw(st.lists(st.sampled_from(values), min_size=1,
                                       max_size=2, unique=True)))

        grid = InnerGridSearch(sample_ratios=axis((0.5, 0.8, 1.0)),
                               feature_ratios=axis((0.4, 1.0)),
                               n_trees_options=axis((1, 2, 3)), budget=1)
        cells = len(list(grid.cells()))
        return replace(grid, budget=draw(st.integers(1, cells + 2)))
    return InnerOsgaSearch(  # selection pressure stops most at 12
        params=OsgaParams(population_size=4, max_evaluations=12,
                          crossover_kind="arithmetic",
                          max_selection_pressure=1.5),
        n_trees_bounds=(1, 3), budget=draw(st.integers(4, 12)))


@settings(max_examples=40, deadline=None, database=None)
@example(search=InnerOsgaSearch(  # stopped by selection pressure
    params=OsgaParams(population_size=4, max_evaluations=12,
                      crossover_kind="arithmetic", max_selection_pressure=1.5),
    n_trees_bounds=(1, 3), budget=12), seed=0, columns={0, 1, 5},
    sourceless=False)
@given(search=inner_searches(), seed=st.integers(0, 2 ** 32 - 1),
       columns=st.sets(st.integers(0, 7), min_size=1),
       sourceless=st.booleans())
def test_inner_network_matches_a_plain_loop(small_partitioned, search, seed,
                                            columns, sourceless):
    """The inner network's result is the plain loop's, bit for bit, on a
    search-time problem and on a hand-built one alike."""
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    problem = orchestrator.make_problem(FeatureMask.from_indices(columns, 8))
    if sourceless:
        problem = replace(problem)
    fitted = InnerTuningModelNode("model", search).fit_problem(
        problem, substream(seed, "x"))
    assert fitted == inner_tuning_oracle(search, problem,
                                         substream(seed, "x"))


def test_nested_network_reports_search_shape(small_partitioned):
    inner = InnerGridSearch(sample_ratios=(0.7,), feature_ratios=(0.5,),
                            n_trees_options=(3,), budget=4)
    params = OsgaParams(population_size=6, max_evaluations=40,
                        max_selection_pressure=12.0)
    result = feature_selection_network(
        small_partitioned, params, model=InnerTuningModelNode("model", inner),
        seed=0)
    assert isinstance(result, NetworkResult)
    assert result.evaluations <= 40
    assert len(result.best_history) >= 1
    assert result.best_mask.n_selected >= 1


def test_every_refit_carries_its_exact_train_mae(small_partitioned):
    """Only search-time fits go without a train MAE: the winner's refit,
    of the network and its twin, with OLS and with a forest, and the
    nested tuning refit each score the train rows of the selected
    columns, bit for bit as predicting them does."""
    forest = ForestConfig(n_trees=3)
    inner = InnerGridSearch(sample_ratios=(0.7,), feature_ratios=(0.5,),
                            n_trees_options=(3,), budget=1)
    results = [
        run(small_partitioned, TINY_PARAMS, model=model, seed=1)
        for run in (feature_selection_network, feature_selection_direct)
        for model in ("ols", forest)]
    results.append(feature_selection_network(
        small_partitioned, OsgaParams(population_size=6, max_evaluations=24,
                                      max_selection_pressure=10.0),
        model=InnerTuningModelNode("model", inner), seed=0))
    train_x, train_y = small_partitioned.train_xy()
    for result in results:
        fitted = result.best_model
        assert fitted.train_mae is not None, fitted.label
        columns = np.flatnonzero(result.best_mask.bits)
        assert fitted.train_mae.hex() == mae(networks.predict_any(
            fitted.model, train_x[:, columns]), train_y).hex(), fitted.label


# Forest settings: ForestConfig.validate is the one rule, checked up front

RATIOS = st.one_of(st.sampled_from([0.0, 1e-9, 0.5, 1.0, 1.0 + 1e-9]),
                   st.floats(-0.5, 1.5))
TREE_COUNTS = st.one_of(st.integers(-2, 6), st.sampled_from([0.5, 1.5]),
                        st.floats(-1.0, 8.0))


def _ratio_ok(value) -> bool:
    return 0.0 < value <= 1.0


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(RATIOS, min_size=1, max_size=3),
       st.lists(RATIOS, min_size=1, max_size=3),
       st.lists(st.integers(-2, 6), min_size=1, max_size=3))
def test_inner_grid_refuses_exactly_the_cells_forest_config_refuses(
        samples, features, trees):
    """With a budget that covers the grid, every cell is proposed, so
    validate raises exactly when some axis value is out of range."""
    search = InnerGridSearch(tuple(samples), tuple(features), tuple(trees),
                             budget=27)
    if all(map(_ratio_ok, samples + features)) and min(trees) >= 1:
        search.validate()
    else:
        with pytest.raises(InvalidConfigError):
            search.validate()


@settings(max_examples=200, deadline=None, database=None)
@given(st.tuples(RATIOS, RATIOS), st.tuples(RATIOS, RATIOS),
       st.tuples(TREE_COUNTS, TREE_COUNTS))
def test_inner_osga_refuses_exactly_the_bounds_forest_config_refuses(
        sample_bounds, feature_bounds, tree_bounds):
    """Proposals cover the box of the bounds, the tree count rounded, so
    validate raises exactly when the box is empty or holds a setting out
    of range: round is monotone, so the lowest tree count is round(lo)."""
    search = InnerOsgaSearch(sample_ratio_bounds=sample_bounds,
                             feature_ratio_bounds=feature_bounds,
                             n_trees_bounds=tree_bounds)
    boxes = (sample_bounds, feature_bounds, tree_bounds)
    if all(lo <= hi for lo, hi in boxes) \
            and all(map(_ratio_ok, sample_bounds + feature_bounds)) \
            and round(tree_bounds[0]) >= 1:
        search.validate()
    else:
        with pytest.raises(InvalidConfigError):
            search.validate()


@pytest.mark.parametrize("search", [
    InnerGridSearch(sample_ratios=(0.5, 0.9), feature_ratios=(0.3, 1.0),
                    n_trees_options=(2, 4), budget=8),
    InnerOsgaSearch(params=OsgaParams(population_size=4, max_evaluations=12,
                                      crossover_kind="arithmetic",
                                      max_selection_pressure=10.0),
                    sample_ratio_bounds=(0.4, 1.0), n_trees_bounds=(1, 6),
                    budget=12),
], ids=["grid", "osga"])
def test_tuned_model_label_describes_its_forest(small_partitioned, search):
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    problem = orchestrator.make_problem(FeatureMask.from_indices((0, 1), 8))
    fitted = InnerTuningModelNode("model", search).fit_problem(
        problem, substream(3, "x"))
    config = fitted.model.config
    assert fitted.label == (
        f"tuned-forest(sample_ratio={config.sample_ratio:.2f},"
        f"feature_ratio={config.feature_ratio:.2f},"
        f"n_trees={config.n_trees})")
    assert len(fitted.model.trees) == config.n_trees


# ---------------------------------------------------------------------------
# Only model nodes know their model

@pytest.fixture
def grams_built(monkeypatch):
    """The train features of every OlsGram networks builds."""
    built = []

    class CountingGram(networks.OlsGram):
        def __init__(self, features, target):
            built.append(features)
            super().__init__(features, target)

    monkeypatch.setattr(networks, "OlsGram", CountingGram)
    return built


@pytest.mark.parametrize("model", [
    ForestConfig(n_trees=3),
    InnerTuningModelNode("model", InnerGridSearch(
        sample_ratios=(0.7,), feature_ratios=(0.5,), n_trees_options=(2,),
        budget=1)),
], ids=["forest", "nested"])
def test_a_search_without_ols_builds_no_gram_matrix(small_partitioned,
                                                    grams_built, model):
    feature_selection_network(small_partitioned, TINY_PARAMS, model=model,
                              seed=0)
    assert grams_built == []


def test_an_ols_search_builds_one_gram_matrix(small_partitioned,
                                              grams_built):
    feature_selection_network(small_partitioned, TINY_PARAMS, seed=0)
    assert len(grams_built) == 1
    train_x, _ = small_partitioned.train_xy()
    assert np.array_equal(grams_built[0], train_x)


def test_one_ols_node_builds_a_gram_matrix_per_source_switch(
        small_benchmark, grams_built):
    """Problems of two orchestrators, alternating: each switch builds the
    new source's Gram matrix and empties the memo, so every fit is what a
    fresh node makes of its own problem."""
    dataset, _ = small_benchmark
    first = RegressionOrchestratorNode("a", partition(dataset, seed=0))
    second = RegressionOrchestratorNode("b", partition(dataset, seed=1))
    node = OlsModelNode("model")
    masks = (FeatureMask.from_indices((0, 3), 8),
             FeatureMask.from_indices((1, 2, 5), 8))
    builds = 0
    for orchestrator in (first, second, first, first, second):
        for mask in masks:
            problem = orchestrator.make_problem(mask)
            before = len(grams_built)
            fitted = node.fit_problem(problem, None)
            builds += len(grams_built) - before
            assert fitted == _fresh_fit(problem)
    assert builds == 4
    assert (node.fits, node.hits) == (8, 2)


def test_forest_builder_refuses_a_problem_with_no_column(small_partitioned):
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    problem = orchestrator.make_problem(FeatureMask(np.zeros(8, dtype=bool)))
    with pytest.raises(InvalidConfigError, match="column"):
        ForestBuilderNode("builder", problem)


@pytest.fixture(scope="module")
def random_partitioned():
    """A 90 x 12 Gaussian design with a noisy linear target."""
    rng = np.random.default_rng(11)
    X = rng.standard_normal((90, 12))
    y = X @ rng.uniform(-3.0, 3.0, 12) + rng.standard_normal(90)
    return partition(Dataset(X, y, tuple(f"c{i}" for i in range(12))),
                     seed=11)


@settings(max_examples=60, deadline=None, database=None)
@given(code=st.one_of(st.just(0), st.just(2 ** 12 - 1),
                      st.integers(0, 2 ** 12 - 1)))
def test_the_refit_problem_is_the_eager_slice_of_the_whole(
        random_partitioned, code):
    """replace turns a search-time problem into a sourceless one with
    the whole problem's columns of the mask, and the OLS node fits both
    alike: from the Gram matrix and with fit_ols."""
    mask = FeatureMask(np.array([(code >> b) & 1 for b in range(12)]))
    orchestrator = RegressionOrchestratorNode("o", random_partitioned)
    searched = orchestrator.make_problem(mask)
    refit = replace(orchestrator.make_problem(mask))
    assert refit.source is None and searched.source is not None
    whole = RegressionProblem.whole(random_partitioned)
    keep = np.flatnonzero(mask.bits)
    for name in ("train_features", "validation_features"):
        assert np.array_equal(getattr(refit, name),
                              getattr(whole, name)[:, keep])
    for name in ("train_target", "validation_target"):
        assert np.array_equal(getattr(refit, name), getattr(whole, name))
    assert refit.feature_names == tuple(whole.feature_names[i] for i in keep)
    assert refit.mask == mask
    node = OlsModelNode("model")
    a = node.fit_problem(searched, None).model
    b = node.fit_problem(refit, None).model
    assert a.feature_names == b.feature_names
    coef_a = np.append(a.weights, a.intercept)
    coef_b = np.append(b.weights, b.intercept)
    scale = max(1.0, float(np.abs(coef_b).max()))
    assert np.abs(coef_a - coef_b).max() <= GRAM_TOLERANCE * scale
