"""Bagged regression trees grown on variance reduction.

Each tree gets its own random substream derived from (seed, tree index),
so growing a larger forest with the same seed reproduces the smaller
forest's trees as a prefix. Bootstrap rows are drawn with replacement;
each split considers a random subset of feature columns and picks the
threshold minimizing the summed squared error of the two children.

Trees grow level by level, every tree of a forest at once (the exact
greedy growth of XGBoost, Chen & Guestrin, KDD 2016, sections 3.1 and
4.1). Nodes are numbered in level order: the root is 0, and each level's
nodes follow the previous level's, children in their parents' order,
left child first.

Split rule: a node splits only if it is shallower than max_depth, holds
at least 2 * min_leaf_size rows and its targets are not all equal.
After its bootstrap draw, each tree draws one rng.random((m, d)) per
level, one row for each of the level's m splittable nodes in level
order. A node's candidate columns are the first
ceil(feature_ratio * d) entries of the stable argsort of its row, in
that order. A cut between two sorted neighbours is allowed when their
x values differ and each side keeps min_leaf_size rows; the threshold
is their midpoint (the lower value where the midpoint of two adjacent
floats rounds up to the upper one), and rows with x <= threshold go
left. Among equal costs the earliest candidate wins, then the smallest
cut. A node with no allowed cut stays a leaf.

A node's rows keep their bootstrap order, and its value is the
sequential sum of its targets in that order divided by their count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import substream
from .data import checked_design, checked_width
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


# the split scan handles at most this many (node, candidate, row) cells
# at once; a bucket of larger nodes goes in node chunks, which bounds
# memory on large inputs
_SCAN_CELLS = 1 << 16


def _rank_keys(X, shift):
    """Each cell's dense rank within its column, shifted left by shift
    bits, with one padding row of rank n below X. Equal x values share
    a rank, so sorting by rank is sorting by x."""
    n, d = X.shape
    order = X.argsort(axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    steps = np.zeros((n, d), dtype=np.int64)
    steps[1:] = xs[1:] != xs[:-1]
    ranks = np.full((n + 1, d), n, dtype=np.int64)
    np.put_along_axis(ranks[:n], order, steps.cumsum(axis=0), axis=0)
    return ranks << shift


def _best_splits(X, keys, shift, rows, y, start, count, candidates,
                 min_leaf):
    """Score every cut of every candidate column of every node; return
    each node's column and threshold, and whether it has an allowed cut.

    Node i holds rows[start[i]:start[i] + count[i]] and candidates[i];
    rows and y end in one padding entry (row n of keys, target 0.0)."""
    m, k = candidates.shape
    feature = np.zeros(m, dtype=np.int64)
    threshold = np.zeros(m)
    found = np.zeros(m, dtype=bool)
    pad = rows.size - 1
    # a node of n rows goes in the bucket of width 2^ceil(log2 n),
    # padded after its own rows
    width = np.left_shift(1, np.ceil(np.log2(count)).astype(np.int64))
    for w in np.unique(width):
        bucket = np.flatnonzero(width == w)
        chunk = max(1, _SCAN_CELLS // (k * w))
        for c in range(0, bucket.size, chunk):
            nodes = bucket[c:c + chunk]
            at = np.arange(nodes.size)
            n = count[nodes][:, None]
            place = np.arange(w)
            cell = np.where(place < n, start[nodes][:, None] + place, pad)
            # a key packs a cell's rank above its place in rows, so one
            # sort of each (node, candidate) row gives the stable argsort
            # of its x values
            cell_key = np.sort(
                keys[rows[cell][:, None, :], candidates[nodes][:, :, None]]
                + cell[:, None, :], axis=2)
            cell = cell_key & ((1 << shift) - 1)
            ys = y[cell]
            # summed squared error of every prefix/suffix; cumsum adds in
            # sequence along each row, so a node's costs do not depend on
            # its bucket
            csum = ys.cumsum(axis=2)
            csq = np.square(ys, out=ys).cumsum(axis=2)
            total_sum = csum[at, :, n[:, 0] - 1][:, :, None]
            total_sq = csq[at, :, n[:, 0] - 1][:, :, None]
            # cut c puts sorted rows 0..c left; only the cuts that leave
            # min_leaf rows on each side of a full bucket row are scored
            lo = min_leaf - 1
            cuts = slice(lo, w - min_leaf)
            # sizes as floats divide like the integers they hold
            sizes = np.arange(min_leaf, w - lo, dtype=np.float64)
            rest = n[:, :, None] - sizes
            left_sum = csum[:, :, cuts]
            left_sq = csq[:, :, cuts]
            # (left_sq - left_sum**2 / sizes)
            #     + ((total_sq - left_sq) - right_sum**2 / rest), in place
            cost = np.square(left_sum)
            cost /= sizes
            np.subtract(left_sq, cost, out=cost)
            right = np.subtract(total_sum, left_sum)
            np.square(right, out=right)
            right /= np.maximum(rest, 1.0)
            right_sse = np.subtract(total_sq, left_sq)
            right_sse -= right
            cost += right_sse
            # a padded row's right side keeps fewer than min_leaf rows,
            # and no threshold separates tied x values
            rank = cell_key >> shift
            barred = rank[:, :, cuts] == rank[:, :, lo + 1:w - lo]
            barred |= rest < min_leaf
            np.putmask(cost, barred, np.inf)
            # candidate-major argmin: the earliest candidate, then the
            # smallest cut
            flat = cost.reshape(nodes.size, -1)
            best = flat.argmin(axis=1)
            ok = flat[at, best] < np.inf
            at, nodes, best = at[ok], nodes[ok], best[ok]
            j, cut = np.divmod(best, sizes.size)
            cut += lo
            feat = candidates[nodes, j]
            below = X[rows[cell[at, j, cut]], feat]
            above = X[rows[cell[at, j, cut + 1]], feat]
            mid = (below + above) / 2.0
            found[nodes] = True
            feature[nodes] = feat
            # between adjacent floats the midpoint may round up to the
            # upper value, which would send both sides left
            threshold[nodes] = np.where(mid < above, mid, below)
    return feature, threshold, found


def _grow_forest(X, y, config, seed):
    """Grow config.n_trees trees level by level, all trees at once."""
    n, d = X.shape
    n_trees = config.n_trees
    n_candidates = min(d, max(1, math.ceil(config.feature_ratio * d)))
    min_leaf = config.min_leaf_size
    max_depth = math.inf if config.max_depth is None else config.max_depth
    rngs = [substream(seed, "tree", i) for i in range(n_trees)]
    n_boot = max(1, math.ceil(config.sample_ratio * n))
    # a level never holds more than the bootstrap rows of every tree
    shift = (n_trees * n_boot).bit_length()
    keys = _rank_keys(X, shift)
    # the live level: its nodes in tree order, then level order; rows
    # holds each node's rows in turn, count how many
    rows = np.concatenate([rng.integers(0, n, size=n_boot) for rng in rngs])
    tree = np.arange(n_trees)
    count = np.full(n_trees, n_boot)
    n_nodes = np.ones(n_trees, dtype=np.int64)
    levels = []
    depth = 0
    while tree.size:
        m = tree.size
        slot = np.repeat(np.arange(m), count)
        yr = y[rows]
        start = np.cumsum(count) - count
        # the sequential sum over the node's rows in order, then one
        # division
        value = np.bincount(slot, weights=yr, minlength=m) / count
        feature = np.full(m, -1, dtype=np.int64)
        threshold = np.zeros(m)
        left = np.full(m, -1, dtype=np.int64)
        split = np.zeros(0, dtype=np.int64)
        if depth < max_depth:
            mixed = np.bincount(slot[yr != yr[start][slot]], minlength=m) > 0
            split = np.flatnonzero(mixed & (count >= 2 * min_leaf))
        if split.size:
            per_tree = np.bincount(tree[split], minlength=n_trees)
            draws = np.concatenate([rngs[t].random((per_tree[t], d))
                                    for t in np.flatnonzero(per_tree)])
            candidates = draws.argsort(axis=1, kind="stable")[
                :, :n_candidates]
            feat, thr, found = _best_splits(
                X, keys, shift, np.append(rows, n), np.append(yr, 0.0),
                start[split], count[split], candidates, min_leaf)
            split = split[found]
            feature[split] = feat[found]
            threshold[split] = thr[found]
        # children follow their parents' order, left first, and take
        # the next indices of their tree
        child_tree = np.repeat(tree[split], 2)
        left[split] = (n_nodes[child_tree] + np.arange(child_tree.size)
                       - np.searchsorted(child_tree, child_tree))[0::2]
        n_nodes += np.bincount(child_tree, minlength=n_trees)
        levels.append((tree, feature, threshold, left, value,
                       np.full(m, depth)))
        # a stable sort on the child slot keeps each child's rows in
        # their order
        rank = np.full(m, -1)
        rank[split] = np.arange(split.size)
        keep = rank[slot] >= 0
        rows, slot = rows[keep], slot[keep]
        go_right = ~(X[rows, feature[slot]] <= threshold[slot])
        child = 2 * rank[slot] + go_right
        rows = rows[child.argsort(kind="stable")]
        count = np.bincount(child, minlength=child_tree.size)
        tree = child_tree
        depth += 1
    tree, feature, threshold, left, value, level = (
        np.concatenate(a) for a in zip(*levels))
    # a stable sort on the tree puts each tree's nodes in index order
    order = tree.argsort(kind="stable")
    bounds = np.cumsum(n_nodes)[:-1]
    pieces = [np.split(a[order], bounds)
              for a in (feature, threshold, left, value, level)]
    return [RegressionTree(f, t, l, np.where(l < 0, -1, l + 1), v,
                           int(lv[-1]))
            for f, t, l, v, lv in zip(*pieces)]


def fit_random_forest(features: np.ndarray, target: np.ndarray,
                      config: ForestConfig | None = None, seed: int = 0,
                      feature_names: tuple[str, ...] | None = None
                      ) -> ForestModel:
    """Grow config.n_trees trees, each from its own (seed, index) stream."""
    config = config or ForestConfig()
    config.validate()
    X, y = checked_design(features, target, "fit_random_forest")
    if X.shape[1] == 0:
        raise EmptyInputError("forest needs at least one feature column")
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
    return ForestModel(tuple(_grow_forest(X, y, config, seed)), config,
                       tuple(feature_names))


# predict_forest routes at most this many (tree, row) cells at once;
# larger inputs go in row blocks, which bounds memory and keeps the index
# matrices in cache
_ROUTE_CELLS = 1 << 16


def predict_forest(model: ForestModel, features: np.ndarray) -> np.ndarray:
    """Mean of the trees' predictions. Routes every tree at once: a
    trees x rows matrix of node indices moves one level per step."""
    X = checked_width(features, model.n_features, "predict_forest")
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
            # a value equal to the threshold goes left; NaN fails the
            # test and goes right
            go_left = flat[first + r.feature[node]] <= r.threshold[node]
            node = r.child[2 * node + ~go_left]
        # sum in tree order from zero, then divide once: the bits of
        # adding up the trees' own predictions tree by tree
        acc = np.zeros(Xb.shape[0])
        for values in r.value[node]:
            acc += values
        out[start:start + block] = acc / n_trees
    return out
