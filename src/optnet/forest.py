"""Bagged regression trees grown on variance reduction.

Each tree gets its own random substream derived from (seed, tree index),
so growing a larger forest with the same seed reproduces the smaller
forest's trees as a prefix. Bootstrap rows are drawn with replacement;
each split considers a random subset of feature columns and picks the
threshold minimizing the summed squared error of the two children.

Split rule: a node splits only if it is shallower than max_depth, holds
at least 2 * min_leaf_size rows and its targets are not all equal. It
then draws its candidate columns with one rng.choice (nodes draw in
preorder, left child first, after the tree's bootstrap draw). A cut
between two sorted neighbours is allowed when their x values differ
and each side keeps min_leaf_size rows; the threshold is their
midpoint, and rows with x <= threshold go left. Among equal costs the
earliest drawn candidate wins, then the smallest cut. A node with no
allowed cut stays a leaf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import substream
from .errors import EmptyInputError, InvalidConfigError, ShapeMismatchError


@dataclass
class ForestConfig:
    """Forest shape and sampling parameters.

    sample_ratio controls the bootstrap size ceil(sample_ratio * n_rows);
    feature_ratio controls how many columns each split may consider,
    ceil(feature_ratio * n_features). max_depth=None grows until leaves
    are pure or below min_leaf_size.
    """

    n_trees: int = 50
    sample_ratio: float = 0.7
    feature_ratio: float = 0.5
    max_depth: int | None = None
    min_leaf_size: int = 2

    def validate(self) -> None:
        if self.n_trees < 1:
            raise InvalidConfigError("n_trees must be at least 1")
        if not 0.0 < self.sample_ratio <= 1.0:
            raise InvalidConfigError("sample_ratio must lie in (0, 1]")
        if not 0.0 < self.feature_ratio <= 1.0:
            raise InvalidConfigError("feature_ratio must lie in (0, 1]")
        if self.max_depth is not None and self.max_depth < 0:
            raise InvalidConfigError("max_depth must be non-negative")
        if self.min_leaf_size < 1:
            raise InvalidConfigError("min_leaf_size must be at least 1")


@dataclass(frozen=True, eq=False)
class RegressionTree:
    """Flattened binary tree. Node i is a leaf iff feature[i] < 0; depth
    is the depth of the deepest leaf, 0 for a one-leaf tree."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    depth: int

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    def __eq__(self, other):
        if not isinstance(other, RegressionTree):
            return NotImplemented
        return (np.array_equal(self.feature, other.feature)
                and np.array_equal(self.threshold, other.threshold)
                and np.array_equal(self.left, other.left)
                and np.array_equal(self.right, other.right)
                and np.array_equal(self.value, other.value)
                and self.depth == other.depth)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """This tree's predictions, routed node by node: the reference
        that predict_forest's all-trees routing matches bit for bit."""
        X = np.asarray(features, dtype=np.float64)
        out = np.empty(X.shape[0])
        # route row blocks down the tree instead of walking row by row
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            node, rows = stack.pop()
            if rows.size == 0:
                continue
            f = self.feature[node]
            if f < 0:
                out[rows] = self.value[node]
                continue
            go_left = X[rows, f] <= self.threshold[node]
            stack.append((self.left[node], rows[go_left]))
            stack.append((self.right[node], rows[~go_left]))
        return out


@dataclass(frozen=True, eq=False)
class _Routing:
    """Every tree's nodes in one set of arrays, tree after tree. roots
    holds each tree's root index. child[2 * i] and child[2 * i + 1] are
    node i's left and right child in these indices; a leaf's children
    are the leaf itself, so depth steps take every row of every tree to
    its leaf."""

    roots: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    child: np.ndarray
    value: np.ndarray
    depth: int

    @classmethod
    def of(cls, trees) -> _Routing:
        sizes = [t.n_nodes for t in trees]
        roots = np.cumsum([0] + sizes[:-1])
        feature = np.concatenate([t.feature for t in trees])
        leaf = feature < 0
        own = np.arange(feature.size)
        shift = np.repeat(roots, sizes)
        child = np.empty(2 * feature.size, dtype=np.int64)
        child[0::2] = np.where(
            leaf, own, np.concatenate([t.left for t in trees]) + shift)
        child[1::2] = np.where(
            leaf, own, np.concatenate([t.right for t in trees]) + shift)
        return cls(roots,
                   np.where(leaf, 0, feature),  # a leaf reads column 0
                   np.concatenate([t.threshold for t in trees]),
                   child,
                   np.concatenate([t.value for t in trees]),
                   max(t.depth for t in trees))


@dataclass(frozen=True, eq=False)
class ForestModel:
    """A tuple of trees whose predictions are averaged."""

    trees: tuple[RegressionTree, ...]
    config: ForestConfig
    feature_names: tuple[str, ...]
    _routing: _Routing = field(init=False, repr=False)

    def __post_init__(self):
        if not self.trees:
            raise EmptyInputError("a forest needs at least one tree")
        object.__setattr__(self, "_routing", _Routing.of(self.trees))

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def __eq__(self, other):
        if not isinstance(other, ForestModel):
            return NotImplemented
        return (self.feature_names == other.feature_names
                and self.config == other.config
                and self.trees == other.trees)


class _TreeGrower:
    def __init__(self, X, y, config, rng):
        self.X = X
        self.y = y
        self.config = config
        self.rng = rng
        self.n_candidates = max(1, math.ceil(config.feature_ratio * X.shape[1]))
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self.depth = 0

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def grow(self, root_rows: np.ndarray) -> None:
        # preorder worklist, left child first, so random draws happen in
        # the same order a recursive implementation would make them
        max_depth = self.config.max_depth
        min_rows = 2 * self.config.min_leaf_size
        stack: list[tuple[np.ndarray, int, int, bool]] = [
            (root_rows, 0, -1, False)]
        while stack:
            rows, depth, parent, is_right = stack.pop()
            self.depth = max(self.depth, depth)
            node = self._new_node()
            if parent >= 0:
                if is_right:
                    self.right[parent] = node
                else:
                    self.left[parent] = node
            y = self.y[rows]
            # the pairwise sum and the one division of y.mean(), without
            # its dispatch overhead
            self.value[node] = float(y.sum() / y.size)
            if (max_depth is not None and depth >= max_depth) \
                    or rows.size < min_rows or (y == y[0]).all():
                continue
            split = self._best_split(rows, y)
            if split is None:
                continue
            feat, thr = split
            self.feature[node] = feat
            self.threshold[node] = thr
            go_left = self.X[rows, feat] <= thr
            stack.append((rows[~go_left], depth + 1, node, True))
            stack.append((rows[go_left], depth + 1, node, False))

    def _best_split(self, rows, y):
        """Score every cut of every drawn candidate column in one pass;
        return (column, threshold) or None when no cut is allowed."""
        d = self.X.shape[1]
        candidates = self.rng.choice(d, size=min(self.n_candidates, d),
                                     replace=False)
        min_leaf = self.config.min_leaf_size
        n = rows.size
        x = self.X[rows[:, None], candidates]
        order = x.argsort(axis=0, kind="stable")
        xs = x[order, np.arange(x.shape[1])]
        ys = y[order]
        # summed squared error of every prefix/suffix; cumsum adds in
        # sequence along each column, so every cost has the bits the
        # one-column scan gives
        csum = ys.cumsum(axis=0)
        csq = (ys * ys).cumsum(axis=0)
        # cut k puts sorted rows 0..k left; keep only the cuts that
        # leave min_leaf rows on each side
        lo, hi = min_leaf - 1, n - min_leaf
        sizes = np.arange(min_leaf, hi + 1)[:, None]
        left_sum = csum[lo:hi]
        left_sq = csq[lo:hi]
        left_sse = left_sq - left_sum ** 2 / sizes
        right_sum = csum[-1] - left_sum
        right_sse = (csq[-1] - left_sq) - right_sum ** 2 / (n - sizes)
        cost = (left_sse + right_sse).T
        # no threshold separates tied x values
        cost[(xs[lo:hi] == xs[lo + 1:hi + 1]).T] = np.inf
        # row-major argmin: the earliest drawn candidate, then the
        # smallest cut
        best = int(cost.argmin())
        j, k = divmod(best, cost.shape[1])
        if not cost[j, k] < np.inf:
            return None
        k += lo
        return int(candidates[j]), float((xs[k, j] + xs[k + 1, j]) / 2.0)

    def build(self) -> RegressionTree:
        n = self.X.shape[0]
        n_boot = max(1, math.ceil(self.config.sample_ratio * n))
        rows = self.rng.integers(0, n, size=n_boot)
        self.grow(rows)
        return RegressionTree(
            np.asarray(self.feature, dtype=np.int64),
            np.asarray(self.threshold, dtype=np.float64),
            np.asarray(self.left, dtype=np.int64),
            np.asarray(self.right, dtype=np.int64),
            np.asarray(self.value, dtype=np.float64),
            self.depth,
        )


def fit_random_forest(features: np.ndarray, target: np.ndarray,
                      config: ForestConfig | None = None, seed: int = 0,
                      feature_names: tuple[str, ...] | None = None
                      ) -> ForestModel:
    """Grow config.n_trees trees, each from its own (seed, index) stream."""
    config = config or ForestConfig()
    config.validate()
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(target, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeMismatchError("features must be 2-d")
    if y.ndim != 1:
        raise ShapeMismatchError("target must be 1-d")
    if X.shape[0] != y.shape[0]:
        raise ShapeMismatchError(
            f"{X.shape[0]} feature rows vs {y.shape[0]} targets")
    if X.shape[0] == 0:
        raise EmptyInputError("cannot fit on zero rows")
    if X.shape[1] == 0:
        raise EmptyInputError("forest needs at least one feature column")
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise InvalidConfigError("forest features and target must be finite")
    # a bootstrap sample has at most n rows, so (n * max|y|)^2 bounds
    # every sum of squares and squared sum the split scan forms
    peak = X.shape[0] * float(np.abs(y).max())
    if not math.isfinite(peak * peak):
        raise InvalidConfigError(
            "forest target too large: its sums of squares overflow")
    if feature_names is None:
        feature_names = tuple(f"x{i}" for i in range(X.shape[1]))
    if len(feature_names) != X.shape[1]:
        raise ShapeMismatchError("feature_names length mismatch")
    trees = []
    for i in range(config.n_trees):
        trees.append(
            _TreeGrower(X, y, config, substream(seed, "tree", i)).build())
    return ForestModel(tuple(trees), config, tuple(feature_names))


# predict_forest routes at most this many (tree, row) cells at once;
# larger inputs go in row blocks, which bounds memory and keeps the index
# matrices in cache
_ROUTE_CELLS = 1 << 16


def predict_forest(model: ForestModel, features: np.ndarray) -> np.ndarray:
    """Mean of the trees' predictions. Routes every tree at once: a
    trees x rows matrix of node indices moves one level per step."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ShapeMismatchError(
            f"expected (n, {model.n_features}) features, got {X.shape}")
    if X.shape[0] == 0:
        return np.zeros(0)
    r = model._routing
    n_trees = len(model.trees)
    out = np.empty(X.shape[0])
    block = max(1, _ROUTE_CELLS // n_trees)
    for start in range(0, X.shape[0], block):
        Xb = X[start:start + block]
        flat = Xb.ravel()
        first = np.arange(Xb.shape[0]) * Xb.shape[1]  # each row's column 0
        node = np.repeat(r.roots[:, None], Xb.shape[0], axis=1)
        for _ in range(r.depth):
            # NaN fails the test and goes right, as in RegressionTree
            go_left = flat[first + r.feature[node]] <= r.threshold[node]
            node = r.child[2 * node + ~go_left]
        # sum in tree order from zero, then divide once: the bits of
        # adding up RegressionTree.predict tree by tree
        acc = np.zeros(Xb.shape[0])
        for values in r.value[node]:
            acc += values
        out[start:start + block] = acc / n_trees
    return out
