"""Bagged regression trees: determinism, split behavior, oracle checks."""

import dataclasses
import hashlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optnet import forest
from optnet._rng import stream_keys, substream
from optnet.data import BenchmarkConfig, generate_benchmark, partition
from optnet.errors import (
    EmptyInputError,
    InvalidConfigError,
    ShapeMismatchError,
)
from optnet.forest import (
    ForestConfig,
    ForestModel,
    RegressionTree,
    fit_random_forest,
    predict_forest,
)
from optnet.linear import fit_ols, mae, predict
from optnet.networks import FitnessConfig, feature_selection_network
from optnet.osga import OsgaParams


def _step_data(seed, n):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, 1))
    y = np.where(X[:, 0] > 0.0, 10.0, 0.0)
    return X, y


def test_constant_target_predicts_constant_exactly():
    # every leaf mean equals the constant; 4.25 is dyadic so the float
    # mean is exact
    rng = np.random.default_rng(7)
    X = rng.standard_normal((50, 3))
    y = np.full(50, 4.25)
    model = fit_random_forest(X, y, ForestConfig(n_trees=5), seed=1)
    predictions = predict_forest(model, rng.standard_normal((20, 3)))
    assert np.all(predictions == 4.25)
    # pure targets stop splitting at the root
    assert all(t.n_nodes == 1 for t in model.trees)


def test_depth_zero_forest_is_constant():
    X, y = _step_data(seed=7, n=120)
    model = fit_random_forest(X, y, ForestConfig(n_trees=3, max_depth=0),
                              seed=2)
    predictions = predict_forest(model, X)
    assert np.unique(predictions).size == 1


def test_step_function_beats_linear_model():
    """A single split captures a step target that no line can."""
    X_train, y_train = _step_data(seed=7, n=120)
    X_test, y_test = _step_data(seed=8, n=80)
    forest = fit_random_forest(X_train, y_train,
                               ForestConfig(n_trees=30, min_leaf_size=2),
                               seed=0)
    linear = fit_ols(X_train, y_train)
    forest_mae = mae(predict_forest(forest, X_test), y_test)
    linear_mae = mae(predict(linear, X_test), y_test)
    assert forest_mae < 0.5
    assert linear_mae > 1.5
    assert forest_mae < linear_mae


def test_split_threshold_is_midpoint():
    # two distinct x values 0 and 1: the only valid threshold is 0.5
    X = np.array([[0.0]] * 4 + [[1.0]] * 4)
    y = 10.0 * X[:, 0]
    model = fit_random_forest(
        X, y, ForestConfig(n_trees=1, sample_ratio=1.0, feature_ratio=1.0,
                           min_leaf_size=1), seed=0)
    tree = model.trees[0]
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 0.5
    predictions = predict_forest(model,
                                 np.array([[0.2], [0.5], [0.8], [np.nan]]))
    # x <= threshold goes left; NaN fails the test and goes right
    assert np.array_equal(predictions, [0.0, 0.0, 10.0, 10.0])


def test_same_seed_same_forest():
    X, y = _step_data(seed=3, n=60)
    a = fit_random_forest(X, y, seed=11)
    b = fit_random_forest(X, y, seed=11)
    assert a == b
    c = fit_random_forest(X, y, seed=12)
    assert not np.array_equal(predict_forest(a, X), predict_forest(c, X))


def test_min_leaf_size_is_respected():
    X, y = _step_data(seed=5, n=80)
    model = fit_random_forest(X, y, ForestConfig(n_trees=4, min_leaf_size=10),
                              seed=0)
    # no node with fewer than 2*min_leaf rows may split, so trees stay
    # shallow; the root bag has 56 rows at sample_ratio 0.7
    assert all(t.n_nodes <= 15 for t in model.trees)


def test_config_validation():
    for bad in (ForestConfig(n_trees=0),
                ForestConfig(sample_ratio=0.0),
                ForestConfig(sample_ratio=1.5),
                ForestConfig(feature_ratio=0.0),
                ForestConfig(max_depth=-1),
                ForestConfig(min_leaf_size=0)):
        with pytest.raises(InvalidConfigError):
            bad.validate()


def test_fit_input_errors():
    with pytest.raises(ShapeMismatchError):
        fit_random_forest(np.zeros(5), np.zeros(5))
    with pytest.raises(ShapeMismatchError):
        fit_random_forest(np.zeros((5, 2)), np.zeros(4))
    with pytest.raises(ShapeMismatchError):
        fit_random_forest(np.zeros((5, 2)), np.zeros((5, 1)))
    with pytest.raises(EmptyInputError):
        fit_random_forest(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(EmptyInputError):
        fit_random_forest(np.zeros((5, 0)), np.zeros(5))
    with pytest.raises(ShapeMismatchError):
        fit_random_forest(np.zeros((5, 2)), np.zeros(5),
                          feature_names=("a",))


def test_predict_shape_checks():
    X, y = _step_data(seed=1, n=30)
    model = fit_random_forest(X, y, ForestConfig(n_trees=2), seed=0)
    with pytest.raises(ShapeMismatchError):
        predict_forest(model, np.zeros((3, 2)))
    assert predict_forest(model, np.zeros((0, 1))).shape == (0,)


def test_forest_needs_a_tree():
    X, y = _step_data(seed=1, n=30)
    model = fit_random_forest(X, y, ForestConfig(n_trees=1), seed=0)
    with pytest.raises(EmptyInputError):
        ForestModel((), model.config, model.feature_names)


def test_forest_model_equality():
    X, y = _step_data(seed=2, n=40)
    a = fit_random_forest(X, y, ForestConfig(n_trees=2), seed=5)
    b = fit_random_forest(X, y, ForestConfig(n_trees=2), seed=5)
    assert a == b
    assert a != fit_random_forest(X, y, ForestConfig(n_trees=2), seed=6)
    assert a != "not a forest"


def test_feature_names_default_and_custom():
    X, y = _step_data(seed=2, n=40)
    model = fit_random_forest(X, y, ForestConfig(n_trees=1), seed=0)
    assert model.feature_names == ("x0",)
    named = fit_random_forest(X, y, ForestConfig(n_trees=1), seed=0,
                              feature_names=("speed",))
    assert named.feature_names == ("speed",)
    assert named.n_features == 1


def test_feature_ratio_limits_candidates():
    """With feature_ratio so low that only one random column is eligible
    per split, irrelevant columns still get picked sometimes; with ratio
    1.0 the informative column always wins the root split."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((100, 4))
    y = np.where(X[:, 2] > 0, 5.0, -5.0)
    full = fit_random_forest(X, y, ForestConfig(n_trees=10, feature_ratio=1.0),
                             seed=0)
    root_features = {int(t.feature[0]) for t in full.trees}
    assert root_features == {2}


@pytest.mark.parametrize("where", ["features", "target"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_inputs_are_rejected(where, bad):
    X, y = _step_data(seed=4, n=30)
    if where == "features":
        X[7, 0] = bad
    else:
        y[7] = bad
    with pytest.raises(InvalidConfigError):
        fit_random_forest(X, y, ForestConfig(n_trees=2), seed=0)


@pytest.mark.parametrize("scale, rejected", [(1e150, False), (1e155, True)])
def test_targets_whose_squares_overflow_are_rejected(scale, rejected):
    """At 1e155 the split scan's sums of squares would overflow and every
    tree would stay one leaf; at 1e150 the forest grows without a
    warning."""
    rng = np.random.default_rng(11)
    X = rng.standard_normal((80, 4))
    y = X[:, 0] + rng.standard_normal(80)
    y[rng.choice(80, size=16, replace=False)] *= scale
    config = ForestConfig(n_trees=5, min_leaf_size=1)
    if rejected:
        with pytest.raises(InvalidConfigError, match="overflow"):
            fit_random_forest(X, y, config, seed=0)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        forest = fit_random_forest(X, y, config, seed=0)
    assert all(tree.feature.size > 1 for tree in forest.trees)


class _LoopGrower:
    """The growth contract as plain loops over one tree's levels, nodes
    and candidate columns: the reference fit_random_forest, which grows
    every tree at once, must match bit for bit."""

    def __init__(self, X, y, config, rng):
        self.X = X
        self.y = y
        self.config = config
        self.rng = rng

    def build(self) -> RegressionTree:
        n, d = self.X.shape
        n_candidates = min(d, max(1, math.ceil(self.config.feature_ratio
                                               * d)))
        max_depth = self.config.max_depth
        min_leaf = self.config.min_leaf_size
        level = [self.rng.integers(
            0, n, size=max(1, math.ceil(self.config.sample_ratio * n)))]
        feature, threshold, left, right, value = [], [], [], [], []
        depth = -1
        while level:
            depth += 1
            children = []
            next_index = len(feature) + len(level)
            for rows in level:
                y = self.y[rows]
                total = 0.0
                for v in y:
                    total += v
                value.append(total / rows.size)
                feature.append(-1)
                threshold.append(0.0)
                left.append(-1)
                right.append(-1)
                if (max_depth is not None and depth >= max_depth) \
                        or rows.size < 2 * min_leaf or (y == y[0]).all():
                    continue
                # one uniform draw per column; the candidates are the
                # columns of the smallest draws, smallest first
                order = np.argsort(self.rng.random(d), kind="stable")
                split = self._best_split(rows, order[:n_candidates])
                if split is None:
                    continue
                feature[-1], threshold[-1] = split
                left[-1] = next_index + len(children)
                right[-1] = left[-1] + 1
                go_left = self.X[rows, split[0]] <= split[1]
                children += [rows[go_left], rows[~go_left]]
            level = children
        return RegressionTree(
            np.asarray(feature, dtype=np.int64),
            np.asarray(threshold, dtype=np.float64),
            np.asarray(left, dtype=np.int64),
            np.asarray(right, dtype=np.int64),
            np.asarray(value, dtype=np.float64),
            depth)

    def _best_split(self, rows, candidates):
        best_cost = np.inf
        best = None
        min_leaf = self.config.min_leaf_size
        n = rows.size
        for feat in candidates:
            x = self.X[rows, feat]
            order = np.argsort(x, kind="stable")
            xs = x[order]
            ys = self.y[rows][order]
            # summed squared error of every prefix/suffix in one pass
            csum = np.cumsum(ys)
            csq = np.cumsum(ys * ys)
            total_sum = csum[-1]
            total_sq = csq[-1]
            sizes = np.arange(1, n)
            left_sse = csq[:-1] - csum[:-1] ** 2 / sizes
            right_sum = total_sum - csum[:-1]
            right_sse = (total_sq - csq[:-1]) - right_sum ** 2 / (n - sizes)
            cost = left_sse + right_sse
            valid = (xs[:-1] < xs[1:]) \
                & (sizes >= min_leaf) & (n - sizes >= min_leaf)
            if not np.any(valid):
                continue
            cost = np.where(valid, cost, np.inf)
            k = int(np.argmin(cost))
            if cost[k] < best_cost:
                best_cost = cost[k]
                mid = (xs[k] + xs[k + 1]) / 2.0
                best = (int(feat), float(mid if mid < xs[k + 1] else xs[k]))
        return best


@st.composite
def _small_integer_problems(draw):
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 6))
    cells = st.integers(0, 3)
    X = np.array(draw(st.lists(cells, min_size=n * d, max_size=n * d)),
                 dtype=np.float64).reshape(n, d)
    y = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)),
                 dtype=np.float64)
    config = ForestConfig(
        n_trees=draw(st.integers(1, 3)),
        sample_ratio=draw(st.sampled_from([0.5, 0.8, 1.0])),
        feature_ratio=draw(st.sampled_from([0.2, 0.5, 0.7, 1.0])),
        max_depth=draw(st.one_of(st.none(), st.integers(0, 5))),
        min_leaf_size=draw(st.integers(1, 4)))
    return X, y, config, draw(st.integers(0, 2 ** 16))


def _tree_bytes(tree):
    return (tree.feature.tobytes(), tree.threshold.tobytes(),
            tree.left.tobytes(), tree.right.tobytes(), tree.value.tobytes(),
            tree.depth)


@st.composite
def _integer_or_fractional_problems(draw):
    X, y, config, seed = draw(_small_integer_problems())
    if draw(st.booleans()):
        # full mantissas, whose sums round, so a node value summed in
        # another order shows
        y = y + np.random.default_rng(seed).random(y.size)
    return X, y, config, seed


@settings(max_examples=200, deadline=None, database=None)
@given(_integer_or_fractional_problems())
def test_vectorized_split_matches_loop_reference(problem):
    """Small integer X and y make tied x values and cost ties across
    candidates common, so the tie order is exercised too."""
    X, y, config, seed = problem
    model = fit_random_forest(X, y, config, seed=seed)
    reference = [
        _LoopGrower(X, y, config, substream(seed, "tree", i)).build()
        for i in range(config.n_trees)]
    assert [_tree_bytes(t) for t in model.trees] \
        == [_tree_bytes(t) for t in reference]


@settings(max_examples=100, deadline=None, database=None)
@given(_integer_or_fractional_problems(), st.integers(1, 4))
def test_larger_forest_reuses_smaller_as_prefix(problem, extra):
    """Tree i depends only on (seed, i), so growing more trees never
    changes the earlier ones."""
    X, y, config, seed = problem
    small = fit_random_forest(X, y, config, seed=seed)
    large = fit_random_forest(
        X, y, dataclasses.replace(config, n_trees=config.n_trees + extra),
        seed=seed)
    assert [_tree_bytes(t) for t in small.trees] \
        == [_tree_bytes(t) for t in large.trees[:config.n_trees]]


def test_split_scan_chunks_give_the_same_forest(monkeypatch):
    """The split scan reads (node, candidate) pairs in runs of at most
    _SCAN_CELLS cells; every run size gives the same bits. On the
    duplicate-column case, 360 cells (three root pairs) puts a run
    boundary between two pairs of one node whose columns are copies, so
    their tied costs meet only after the scan."""
    cases = list(_golden_cases())
    scan_runs = forest._scan_runs
    best_splits = forest._best_splits
    for (X, y, config, seed), sizes, copies in (
            (cases[0], (1, 500), False), (cases[1], (1, 360), True)):
        whole = fit_random_forest(X, y, config, seed=seed)
        for cells in sizes:
            pairs, runs = [], []

            def recording_splits(*args):
                pairs.append(args[7:9])  # node, column
                return best_splits(*args)

            def recording_runs(count):
                runs.append(scan_runs(count))  # order, bounds
                return runs[-1]

            monkeypatch.setattr(forest, "_SCAN_CELLS", cells)
            monkeypatch.setattr(forest, "_best_splits", recording_splits)
            monkeypatch.setattr(forest, "_scan_runs", recording_runs)
            scanned = fit_random_forest(X, y, config, seed=seed)
            assert [_tree_bytes(t) for t in scanned.trees] \
                == [_tree_bytes(t) for t in whole.trees]
            # pairs of one node on either side of a run boundary whose
            # columns hold the same values
            split_ties = [
                (p, q) for (node, column), (order, bounds) in zip(pairs, runs)
                for p, q in zip(order[np.array(bounds[1:-1], dtype=int) - 1],
                                order[bounds[1:-1]])
                if node[p] == node[q]
                and np.array_equal(X[:, column[p]], X[:, column[q]])]
            assert bool(split_ties) == copies


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.integers(1, 30), max_size=60), st.integers(1, 200))
def test_scan_runs_take_every_pair_once_in_maximal_runs(counts, cells):
    """The runs cover every pair exactly once, in count order, ties in
    pair order; a run of more than one pair reads at most _SCAN_CELLS
    cells, its length times its largest count, and no run could take the
    next pair within that bound."""
    count = np.array(counts, dtype=np.int64)
    with mock.patch.object(forest, "_SCAN_CELLS", cells):
        order, bounds = forest._scan_runs(count)
    assert np.array_equal(np.sort(order), np.arange(count.size))
    ordered = count[order]
    assert np.all(ordered[1:] >= ordered[:-1])
    tie = ordered[1:] == ordered[:-1]
    assert np.all(order[1:][tie] > order[:-1][tie])
    assert bounds[0] == 0 and bounds[-1] == count.size
    for a, b in zip(bounds[:-1], bounds[1:]):
        assert a < b
        if b - a > 1:
            assert (b - a) * ordered[b - 1] <= cells
        if b < count.size:
            assert (b + 1 - a) * ordered[b] > cells


@st.composite
def _problems_and_jobs(draw):
    X, y, config, seed = draw(_integer_or_fractional_problems())
    d = X.shape[1]
    columns = st.lists(st.integers(0, d - 1), min_size=1, max_size=d,
                       unique=True)
    jobs = draw(st.lists(st.tuples(st.integers(0, 2 ** 16), columns),
                         min_size=1, max_size=5))
    if draw(st.booleans()):
        jobs.append(jobs[0])  # the same forest twice in one batch
    return X, y, config, jobs


@settings(max_examples=150, deadline=None, database=None)
@given(_problems_and_jobs(), st.sampled_from([1, 64, forest._SCAN_CELLS]))
def test_forests_grown_together_are_the_forests_grown_alone(case, cells):
    """Jobs of any columns, in any order, repeated or not, grow the bits
    of fitting each job's columns alone, whatever the scan's runs."""
    X, y, config, jobs = case
    names = tuple(f"c{i}" for i in range(X.shape[1]))
    with mock.patch.object(forest, "_SCAN_CELLS", cells):
        together = forest.fit_random_forests(X, y, config, jobs, names)
    assert len(together) == len(jobs)
    for (seed, columns), got in zip(jobs, together):
        alone = fit_random_forest(X[:, columns], y, config, seed,
                                  tuple(names[i] for i in columns))
        assert got.feature_names == alone.feature_names
        assert [_tree_bytes(t) for t in got.trees] \
            == [_tree_bytes(t) for t in alone.trees]


def test_forests_grown_in_passes_are_the_forests_grown_together(
        monkeypatch):
    """A batch goes in passes of whole trees, as many as _PASS_ROWS and
    the int64 keys of the split scan allow; every split gives the same
    bits, and a design whose keys overflow at one tree is refused."""
    X, y, config, seed = next(iter(_golden_cases()))
    jobs = [(seed, range(X.shape[1])), (seed + 1, [0, 3]),
            (seed + 2, [5, 1, 2])]
    whole = forest.fit_random_forests(X, y, config, jobs)
    n_boot = math.ceil(config.sample_ratio * X.shape[0])
    row_bits = (X.shape[0] + 1).bit_length()
    passes = []
    grow_pass = forest._grow_pass

    def counting(X, y, keys, shift, config, n_boot, rngs, *tables):
        # every key, a rank of at most n above a position, fits
        assert (X.shape[0] + 1) << shift <= 2 ** forest._KEY_BITS
        passes.append(len(rngs))
        return grow_pass(X, y, keys, shift, config, n_boot, rngs, *tables)

    monkeypatch.setattr(forest, "_grow_pass", counting)
    for name, limit, most in (
            ("_PASS_ROWS", 1, 1), ("_PASS_ROWS", 5 * n_boot, 5),
            ("_KEY_BITS", row_bits + (3 * n_boot).bit_length(), 5)):
        passes.clear()
        with monkeypatch.context() as patch:
            patch.setattr(forest, name, limit)
            split = forest.fit_random_forests(X, y, config, jobs)
        assert sum(passes) == 3 * config.n_trees
        assert 1 < len(passes) and max(passes) <= most
        assert [[_tree_bytes(t) for t in f.trees] for f in split] \
            == [[_tree_bytes(t) for t in f.trees] for f in whole]
    monkeypatch.setattr(forest, "_KEY_BITS",
                        row_bits + n_boot.bit_length() - 1)
    with pytest.raises(InvalidConfigError, match="overflow"):
        forest.fit_random_forests(X, y, config, jobs)


def test_forest_jobs_need_distinct_columns_of_the_design():
    X, y = _step_data(seed=1, n=30)
    X = np.hstack([X, X ** 2])
    config = ForestConfig(n_trees=2)
    assert forest.fit_random_forests(X, y, config, []) == []
    with pytest.raises(EmptyInputError):
        forest.fit_random_forests(X, y, config, [(0, [0]), (1, [])])
    for bad in ([0, 0], [2], [-1], [[0, 1]]):
        with pytest.raises(ShapeMismatchError):
            forest.fit_random_forests(X, y, config, [(0, bad)])


def test_a_midpoint_rounding_up_keeps_both_children():
    """Between adjacent floats whose midpoint rounds up to the upper
    one, the threshold is the lower value, so each child keeps its
    rows and growth stops."""
    a = np.nextafter(1.0, 2.0)
    b = np.nextafter(a, 2.0)
    assert (a + b) / 2.0 == b
    X = np.array([[a]] * 3 + [[b]] * 3)
    y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    model = fit_random_forest(
        X, y, ForestConfig(n_trees=1, sample_ratio=1.0, feature_ratio=1.0,
                           min_leaf_size=1), seed=0)
    tree = model.trees[0]
    assert tree.n_nodes == 3
    assert tree.threshold[0] == a
    assert np.array_equal(predict_forest(model, X), y)


def _golden_cases():
    rng = np.random.default_rng(20)
    X = rng.standard_normal((150, 6))
    y = X[:, 0] - 2.0 * X[:, 3] ** 2 + 0.3 * rng.standard_normal(150)
    yield X, y, ForestConfig(n_trees=6), 1
    base = rng.integers(0, 5, size=(120, 3)).astype(float)
    yield (base[:, [0, 0, 1, 2, 2, 1]],
           base[:, 0] * base[:, 2] + rng.integers(0, 3, size=120),
           ForestConfig(n_trees=6, feature_ratio=0.7, sample_ratio=1.0,
                        min_leaf_size=1), 2)
    Xi = rng.integers(-3, 4, size=(200, 5)).astype(float)
    yield (Xi, np.abs(Xi[:, 1]) + Xi[:, 4] + rng.integers(0, 2, size=200),
           ForestConfig(n_trees=6, min_leaf_size=5, max_depth=7), 3)
    Xs = rng.uniform(-1, 1, size=(90, 2))
    yield (Xs, np.where(Xs[:, 1] > 0.2, 3.0, -1.0),
           ForestConfig(n_trees=4, feature_ratio=1.0, max_depth=2), 4)


# SHA-256 over every tree's arrays for the _golden_cases above, in order:
# Gaussian features, duplicate integer columns, min_leaf_size=5 on
# integer features, and a depth-2 step. A change to the draw order, the
# candidate order, the tie order, the node numbering, the node-value sum
# or the cost arithmetic changes them.
_GOLDEN = (
    "c0ae9c1106eed19b7f309dad20962e2821832ef27e75b24b91d094468c1b218f",
    "f24ad2aa497ee0dadafae8b6429fc3f6c47e92dfa889df00e615beede3291a42",
    "2c21c4efb1b1bd4891f6f932e47936343f713b6d16a312f0b82f6f5aa6b268bf",
    "ac6d5ce2ec9541e448e0ebbb0aeb1763fb45193e809850df6f868d9ab7c8d00c",
)


def _forest_digest(model):
    h = hashlib.sha256()
    for tree in model.trees:
        for array, dtype in ((tree.feature, "<i8"), (tree.threshold, "<f8"),
                             (tree.left, "<i8"), (tree.right, "<i8"),
                             (tree.value, "<f8")):
            h.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    return h.hexdigest()


def test_forests_match_golden_digests():
    digests = tuple(_forest_digest(fit_random_forest(X, y, config, seed=seed))
                    for X, y, config, seed in _golden_cases())
    assert digests == _GOLDEN


# ---------------------------------------------------------------------------
# Prediction: predict_forest routes every tree at once and must give the
# bits of summing _tree_predict tree by tree


def _tree_predict(tree, X):
    """One tree's predictions, routed node by node: the reference that
    predict_forest's all-trees routing matches bit for bit."""
    out = np.empty(X.shape[0])
    # route row blocks down the tree instead of walking row by row
    stack = [(0, np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if rows.size == 0:
            continue
        f = tree.feature[node]
        if f < 0:
            out[rows] = tree.value[node]
            continue
        go_left = X[rows, f] <= tree.threshold[node]
        stack.append((tree.left[node], rows[go_left]))
        stack.append((tree.right[node], rows[~go_left]))
    return out


def _tree_by_tree(model, X):
    acc = np.zeros(X.shape[0])
    for tree in model.trees:
        acc += _tree_predict(tree, X)
    return acc / len(model.trees)


def _deepest_leaf(tree):
    deepest, stack = 0, [(0, 0)]
    while stack:
        node, depth = stack.pop()
        if tree.feature[node] < 0:
            deepest = max(deepest, depth)
        else:
            stack += [(tree.left[node], depth + 1),
                      (tree.right[node], depth + 1)]
    return deepest


@st.composite
def _forests_and_rows(draw):
    X, y, config, seed = draw(_small_integer_problems())
    # up to 12 trees: past 8, numpy's pairwise sum over the trees of a
    # single row differs from the sequential one
    config = dataclasses.replace(config, n_trees=draw(st.integers(1, 12)))
    if draw(st.booleans()):
        y = np.full_like(y, y[0])  # one-leaf trees
    else:
        # leaf means with full mantissas, whose sums round
        y = y + np.random.default_rng(seed).random(y.size)
    model = fit_random_forest(X, y, config, seed=seed)
    # cells on the trees' thresholds (ties go left), NaN (goes right),
    # the training grid and values between and beyond it
    thresholds = sorted({float(t) for tree in model.trees
                         for t in tree.threshold[tree.feature >= 0]})
    cell = st.one_of(st.sampled_from(thresholds or [0.5]),
                     st.just(np.nan), st.integers(-1, 4).map(float),
                     st.floats(-5.0, 5.0, allow_nan=False))
    n_rows = draw(st.sampled_from([0, 1, 1, 2, 7, 20]))
    d = X.shape[1]
    cells = draw(st.lists(cell, min_size=n_rows * d, max_size=n_rows * d))
    return model, np.array(cells, dtype=np.float64).reshape(n_rows, d)


@settings(max_examples=150, deadline=None, database=None)
@given(_forests_and_rows())
def test_predict_forest_matches_tree_by_tree(case):
    model, rows = case
    got = predict_forest(model, rows)
    want = _tree_by_tree(model, rows)
    assert got.shape == (rows.shape[0],)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # signed zeros too
    assert all(tree.depth == _deepest_leaf(tree) for tree in model.trees)


def test_predict_forest_row_blocks(monkeypatch):
    """Rows are routed in blocks of _ROUTE_CELLS // n_trees; every block
    size gives the same bits."""
    X, y, config, seed = next(iter(_golden_cases()))
    model = fit_random_forest(X, y, config, seed=seed)
    whole = predict_forest(model, X)
    monkeypatch.setattr(forest, "_ROUTE_CELLS", 7 * config.n_trees)
    assert predict_forest(model, X).tobytes() == whole.tobytes()
    monkeypatch.setattr(forest, "_ROUTE_CELLS", 1)
    assert predict_forest(model, X).tobytes() == whole.tobytes()


# SHA-256 of the little-endian float64 predictions of each _golden_cases
# forest on its training rows and on those rows reversed and shifted by
# 0.5, which puts the integer cases on their split thresholds.
_GOLDEN_PREDICTIONS = (
    "3b0551763b7c2d7ee55eba2d185f0832df0595fe0e100035ddbf26aa4d673d19",
    "53d82b768da7aebb66c90c5cb66211e3b36f25c52501f83581e86ed15489c616",
    "c8c900bdebcdb4502838010559dc5d3442dacec9270262404bc6db790c75ac2a",
    "b13b181344f2ff35d24eda2664dd16e7c625d06c87a23c59d4181b81bd0614c6",
)


def test_predictions_match_golden_digests():
    digests = []
    for X, y, config, seed in _golden_cases():
        model = fit_random_forest(X, y, config, seed=seed)
        rows = np.vstack([X, X[::-1] + 0.5])
        predictions = np.ascontiguousarray(predict_forest(model, rows),
                                           dtype="<f8")
        digests.append(hashlib.sha256(predictions.tobytes()).hexdigest())
    assert tuple(digests) == _GOLDEN_PREDICTIONS


# seeds of one and two entropy words, at the edges of each, and negative
# seeds, which substream takes modulo 2**64
_SEEDS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**63, 2**64 - 1]),
                   st.integers(0, 2**64 - 1), st.integers(-2**64, -1))


@settings(max_examples=150, deadline=None, database=None)
@given(st.lists(_SEEDS, min_size=1, max_size=3), st.integers(1, 4),
       st.sampled_from([2, 256, 300, 3 * 2**30 + 1]), st.integers(1, 30),
       st.integers(1, 12),
       st.lists(st.lists(st.integers(0, 9), min_size=12, max_size=12),
                max_size=6))
@example([0, 2**64 - 1, -3], 4, 3 * 2**30 + 1, 25, 3,
         [[9] * 12, [0, 5] * 6, [7] * 12])
def test_bulk_draws_are_the_calls(seeds, n_trees, n, n_boot, chunk, levels):
    """A pass's bootstrap rows and split uniforms, decoded from raw
    Philox words with a chunk small enough to force refills, are the
    draws of each tree's substream calls, integers(0, n, size=n_boot) and
    then random() level by level; at n = 3 * 2**30 + 1 Lemire rejects
    about one half in four, and the trees it rejects in are drawn by the
    calls."""
    keys = stream_keys([(seed, "tree") for seed in seeds], n_trees)
    rngs = [substream(seed, "tree", i) for seed in seeds
            for i in range(n_trees)]
    with mock.patch.object(forest, "_CHUNK", chunk):
        drawn = forest._PassDraws(keys, n, n_boot)
    expected = np.array([rng.integers(0, n, size=n_boot) for rng in rngs])
    assert drawn.rows.tobytes() == expected.tobytes()
    if n & (n - 1) == 0:
        # Lemire never rejects a power of two, so every tree is decoded
        assert not drawn.rngs
    for level in levels:
        sizes = np.array(level[:len(rngs)])
        trees = np.flatnonzero(sizes)
        if trees.size:
            expected = np.concatenate([rngs[t].random(sizes[t])
                                       for t in trees.tolist()])
            assert drawn.take(trees, sizes[trees]).tobytes() \
                == expected.tobytes()


@settings(max_examples=60, deadline=None, database=None)
@given(_integer_or_fractional_problems(),
       st.lists(_SEEDS, min_size=1, max_size=3), st.integers(1, 8))
def test_bulk_grown_forests_are_the_forests_of_the_calls(problem, seeds,
                                                         chunk):
    """Forests grown from raw Philox words, with refills forced by a
    small chunk, are the forests grown by substream and numpy's calls."""
    X, y, config, _ = problem
    jobs = [(seed, range(X.shape[1])) for seed in seeds]
    read = []
    philox_words = forest.philox_words
    with mock.patch.object(forest, "_CHUNK", chunk), \
            mock.patch.object(forest, "philox_words",
                              lambda *a: read.append(1) or philox_words(*a)):
        bulk = forest.fit_random_forests(X, y, config, jobs)
        assert read
        read.clear()
        with mock.patch.object(forest, "draws_agree", lambda: False):
            called = forest.fit_random_forests(X, y, config, jobs)
        assert not read
    assert [[_tree_bytes(t) for t in f.trees] for f in bulk] \
        == [[_tree_bytes(t) for t in f.trees] for f in called]


def test_a_failed_self_check_grows_every_tree_by_the_calls(monkeypatch):
    """With the bulk draws' self-check failing, a forest-swap-shaped mask
    search (fs-network-rf) reads no raw words, grows every tree by
    substream and numpy's calls and finds the very same result."""
    dataset, _ = generate_benchmark(BenchmarkConfig(
        n_observations=150, n_features=10, n_relevant=3), seed=5)
    partitioned = partition(dataset, seed=5)

    def search():
        return feature_selection_network(
            partitioned, OsgaParams(population_size=8, max_evaluations=24),
            FitnessConfig(penalty_per_feature=0.05),
            model=ForestConfig(n_trees=6, sample_ratio=0.8,
                               feature_ratio=0.7), seed=6, workers=2)

    read = []
    philox_words = forest.philox_words
    monkeypatch.setattr(forest, "philox_words",
                        lambda *a: read.append(len(a[0])) or philox_words(*a))
    with_decoder = search()
    assert read and all(read)
    read.clear()
    monkeypatch.setattr(forest, "draws_agree", lambda: False)
    assert search() == with_decoder
    assert read == []
