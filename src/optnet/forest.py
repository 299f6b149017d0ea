"""Bagged regression trees grown on variance reduction.

Each tree gets its own random substream derived from (seed, tree index),
so growing a larger forest with the same seed reproduces the smaller
forest's trees as a prefix. Bootstrap rows are drawn with replacement;
each split considers a random subset of feature columns and picks the
threshold minimizing the summed squared error of the two children.

Trees grow level by level, every tree of a forest at once (the exact
greedy growth of XGBoost, Chen & Guestrin, KDD 2016, sections 3.1 and
4.1). fit_random_forests grows one forest per (seed, columns) job on
one design, all together, and fit_random_forest is its one job of every
column. Each forest has the bits of fit_random_forest on its job's
columns alone: the design's column ranks are computed once, each tree
draws among its job's d columns by the rule below, and its features are
numbered within those columns. A large batch grows in passes of whole
trees, which moves no bit. Each level scans one row per (node, candidate
column) pair, the pairs in order of their node's row count and in runs
of at most _SCAN_CELLS cells, each run as wide as its largest node; which
run a pair lands in moves no bit either. Nodes are numbered in level
order: the root is 0, and each level's nodes follow the previous
level's, children in their parents' order, left child first.

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

Draws are read in bulk, with the streams and the bits of the calls
above. A batch's stream keys are hashed at once (_rng.stream_keys); each
pass reads every tree's bootstrap words and its first _CHUNK uniforms'
words in one raw-word read per tree, and _rng's decoders give the
calls' values for the whole pass; a tree that takes more uniforms draws
them by random() on its own stream, which goes on from those words
(see _PassDraws). A tree whose bootstrap draw meets a Lemire rejection
is drawn by the calls, and where _rng.draws_agree, a once-per-process
check against substream and the calls, fails, every tree draws by
substream and the calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import (draws_agree, lemire_halves, philox_stream, philox_words,
                   stream_keys, substream, uniforms)
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


# the split scan reads at most this many (node, candidate, row) cells
# at once, or one (node, candidate) pair's, which bounds memory on large
# inputs; of 2^11 to 2^15, 2^13 replayed forest-swap's scans fastest
_SCAN_CELLS = 1 << 13

# a pass grows at most this many bootstrap rows at once, at least one
# tree's; larger batches go in passes of whole trees, which bounds memory
# whatever the batch
_PASS_ROWS = 1 << 18

# each tree reads its bootstrap words and at most this many split
# uniforms' words in one philox_words call, and draws the rest by
# random() on its own stream; forest-swap's trees take 79 uniforms on
# average and 208 at most
_CHUNK = 192

# a split-scan key packs a rank of at most n above a position in a
# level's rows into this many bits of an int64
_KEY_BITS = 63


def _rank_keys(X, shift):
    """Each cell's dense rank within its column, shifted left by shift
    bits, with one padding row of rank n below X. Equal x values share a
    rank, so sorting by rank is sorting by x, and no cut between padding
    cells is allowed."""
    n, d = X.shape
    order = X.argsort(axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    steps = np.zeros((n, d), dtype=np.int64)
    steps[1:] = xs[1:] != xs[:-1]
    ranks = np.full((n + 1, d), n, dtype=np.int64)
    np.put_along_axis(ranks[:n], order, steps.cumsum(axis=0), axis=0)
    return ranks << shift


def _scan_runs(count):
    """The order the split scan reads pairs in, given each pair's node
    count, and the bounds of its runs in that order. The pairs go by
    count, ties in their own order; each run is the longest stretch from
    where the last one ended whose length times its largest count is at
    most _SCAN_CELLS, and holds at least one pair."""
    order = count.argsort(kind="stable")
    count = count[order]
    bounds = [0]
    while bounds[-1] < count.size:
        lo = bounds[-1]
        ahead = count[lo:lo + max(1, _SCAN_CELLS // int(count[lo]))]
        fits = np.arange(1, ahead.size + 1) * ahead <= _SCAN_CELLS
        bounds.append(lo + max(1, int(np.count_nonzero(fits))))
    return order, bounds


def _best_splits(X, keys, shift, rows, y, start, count, node, column,
                 min_leaf):
    """Score every cut of every (node, candidate) pair; return each
    node's column and threshold, and whether it has an allowed cut.

    Node i holds rows[start[i]:start[i] + count[i]]; pair p is column[p]
    of node node[p], and each node's pairs lie together in its candidate
    order. rows and y end in one padding entry (row n of keys, target
    0.0). The pairs are scanned in order of their node's count, in the
    runs of _scan_runs, each padded to its largest count after every
    pair's own rows; which run a pair lands in moves no bit."""
    m = start.size
    pad = rows.size - 1
    lo = min_leaf - 1
    order, bounds = _scan_runs(count[node])
    pair_count = count[node[order]]
    # each pair's least cost, and the cells either side of its cut
    pair_cost = np.empty(node.size)
    pair_cell = np.empty((node.size, 2), dtype=np.int64)
    for a, b in zip(bounds[:-1], bounds[1:]):
        pairs = order[a:b]
        w = int(pair_count[b - 1])
        at = np.arange(b - a)
        n = pair_count[a:b, None]
        place = np.arange(w)
        cell = np.where(place < n, start[node[pairs]][:, None] + place, pad)
        # a key packs a cell's rank above its place in rows, so one sort
        # of each pair's row gives the stable argsort of its x values
        cell_key = np.sort(keys[rows[cell], column[pairs][:, None]] + cell,
                           axis=1)
        cell = cell_key & ((1 << shift) - 1)
        ys = y[cell]
        # summed squared error of every prefix/suffix; cumsum adds in
        # sequence along each row, so a pair's costs do not depend on
        # its run
        csum = ys.cumsum(axis=1)
        csq = np.square(ys, out=ys).cumsum(axis=1)
        total_sum = csum[at, n[:, 0] - 1][:, None]
        total_sq = csq[at, n[:, 0] - 1][:, None]
        # cut c puts sorted rows 0..c left; only the cuts that leave
        # min_leaf rows on each side of a full run row are scored
        cuts = slice(lo, w - min_leaf)
        # sizes as floats divide like the integers they hold
        sizes = np.arange(min_leaf, w - lo, dtype=np.float64)
        rest = n - sizes
        left_sum = csum[:, cuts]
        left_sq = csq[:, cuts]
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
        barred = rank[:, cuts] == rank[:, lo + 1:w - lo]
        barred |= rest < min_leaf
        np.putmask(cost, barred, np.inf)
        best = cost.argmin(axis=1)  # the smallest cut of least cost
        pair_cost[pairs] = cost[at, best]
        pair_cell[pairs] = cell[at[:, None], best[:, None] + (lo, lo + 1)]
    # each node takes its earliest pair of least cost: with each pair's
    # smallest cut, the candidate-major argmin over the node's cuts
    first = np.searchsorted(node, np.arange(m))
    least = np.minimum.reduceat(pair_cost, first)
    found = least < np.inf
    tied = np.where(pair_cost == least[node], np.arange(node.size), node.size)
    best = np.minimum.reduceat(tied, first)[found]
    feat = column[best]
    below = X[rows[pair_cell[best, 0]], feat]
    above = X[rows[pair_cell[best, 1]], feat]
    mid = (below + above) / 2.0
    feature = np.zeros(m, dtype=np.int64)
    threshold = np.zeros(m)
    feature[found] = feat
    # between adjacent floats the midpoint may round up to the upper
    # value, which would send both sides left
    threshold[found] = np.where(mid < above, mid, below)
    return feature, threshold, found


def _grow_forest(X, y, config, jobs):
    """Grow config.n_trees trees for each (seed, columns) job on the
    columns of X it names, level by level, every tree of a pass at once;
    return each job's trees, their features numbered within its columns.

    A pass takes whole trees in job order, as many as _PASS_ROWS and the
    keys of the split scan allow; trees do not meet, so how the batch is
    split leaves every bit as it is."""
    n, d = X.shape
    n_boot = max(1, math.ceil(config.sample_ratio * n))
    # a key packs a rank of at most n above a position in a level's rows,
    # which never outnumber the bootstrap rows of the pass's trees
    position_bits = _KEY_BITS - (n + 1).bit_length()
    per_pass = min(config.n_trees * len(jobs),
                   max(1, _PASS_ROWS // n_boot),
                   ((1 << max(position_bits, 0)) - 1) // n_boot)
    if per_pass < 1:
        raise InvalidConfigError(
            "forest design too large: its split keys overflow int64")
    shift = (per_pass * n_boot).bit_length()
    keys = _rank_keys(X, shift)
    # design_column[j] starts with job j's columns, and local_column[j]
    # numbers them within the job
    widths = np.array([columns.size for _, columns in jobs])
    n_candidates = np.array([min(w, max(1, math.ceil(config.feature_ratio
                                                     * w))) for w in widths])
    design_column = np.zeros((len(jobs), widths.max()), dtype=np.int64)
    local_column = np.zeros((len(jobs), d), dtype=np.int64)
    for j, (_, columns) in enumerate(jobs):
        design_column[j, :columns.size] = columns
        local_column[j, columns] = np.arange(columns.size)
    job = np.repeat(np.arange(len(jobs)), config.n_trees)
    # tree i of a job draws from substream(seed, "tree", i): its Philox
    # key, or where the bulk draws disagree with numpy, the Generator
    if draws_agree():
        streams = stream_keys([(seed, "tree") for seed, _ in jobs],
                              config.n_trees)
    else:
        streams = [substream(seed, "tree", i) for seed, _ in jobs
                   for i in range(config.n_trees)]
    grown = []
    for lo in range(0, job.size, per_pass):
        grown += _grow_pass(X, y, keys, shift, config, n_boot,
                            streams[lo:lo + per_pass], job[lo:lo + per_pass],
                            widths, n_candidates, design_column, local_column)
    return [grown[lo:lo + config.n_trees]
            for lo in range(0, len(grown), config.n_trees)]


class _PassDraws:
    """The draws of one pass's trees, each from its own stream: its
    bootstrap rows, integers(0, n, size=n_boot), then its split
    uniforms, random() draws in the order the levels take them.

    streams holds each tree's Philox key, or its Generator where the
    bulk draws disagree with numpy. From keys, one philox_words call
    reads every tree's bootstrap words and its first chunk of uniforms'
    words, and lemire_halves and uniforms decode them; a tree whose
    bootstrap halves hold a Lemire rejection, or every tree when n is
    outside [2, 2**32), draws both by numpy's calls on its
    philox_stream. A tree that takes more uniforms than its chunk draws
    the rest by random() on its stream, past the words read."""

    def __init__(self, streams, n, n_boot):
        n_trees = len(streams)
        # the chunk keeps a pass's uniforms within _PASS_ROWS cells
        chunk = max(1, min(_CHUNK, _PASS_ROWS // n_trees))
        boot_words = (n_boot + 1) // 2
        self.keys = streams if isinstance(streams, np.ndarray) else None
        self.n_read = boot_words + chunk
        self.taken = np.zeros(n_trees, dtype=np.int64)
        # the Generators of the trees drawn by the calls, each past the
        # uniforms its tree has taken or holds in its chunk
        self.rngs = {}
        if self.keys is not None and 2 <= n < 2**32:
            words = philox_words(self.keys, self.n_read)
            rows, accepted = lemire_halves(words[:, :boot_words], n)
            self.rows = rows[:, :n_boot].astype(np.int64)
            self.chunk = uniforms(words[:, boot_words:])
            called = np.flatnonzero(~accepted[:, :n_boot].all(axis=1))
        else:
            self.rows = np.empty((n_trees, n_boot), dtype=np.int64)
            self.chunk = np.empty((n_trees, chunk))
            called = range(n_trees)
        for t in called:
            rng = self.rngs[t] = streams[t] if self.keys is None \
                else philox_stream(self.keys[t])
            self.rows[t] = rng.integers(0, n, size=n_boot)
            rng.random(out=self.chunk[t])

    def take(self, trees, sizes):
        """The next sizes[i] uniforms of each tree trees[i], one after
        the other."""
        chunk = self.chunk.shape[1]
        start = self.taken[trees]
        end = start + sizes
        self.taken[trees] = end
        at = np.cumsum(sizes) - sizes
        # read along each tree's chunk row; places past a row's end
        # read on into the next and are drawn again below
        drawn = self.chunk.take(
            np.repeat(trees * chunk + start - at, sizes)
            + np.arange(at[-1] + sizes[-1]), mode="clip")
        for i in np.flatnonzero(end > chunk).tolist():
            past = max(chunk, start[i])
            drawn[at[i] + past - start[i]:at[i] + sizes[i]] = \
                self._rng(int(trees[i])).random(int(end[i] - past))
        return drawn

    def _rng(self, t):
        """Tree t's Generator, past the uniforms it has taken."""
        if t not in self.rngs:
            self.rngs[t] = philox_stream(self.keys[t])
            self.rngs[t].bit_generator.random_raw(self.n_read, output=False)
        return self.rngs[t]


def _grow_pass(X, y, keys, shift, config, n_boot, streams, job, widths,
               n_candidates, design_column, local_column):
    """Grow the trees of one pass level by level, all at once; tree t
    draws from streams[t] (see _PassDraws) among the columns of
    job[t]."""
    n = X.shape[0]
    n_trees = len(streams)
    min_leaf = config.min_leaf_size
    max_depth = math.inf if config.max_depth is None else config.max_depth
    k = n_candidates[job].max()
    # the live level: its nodes in tree order, then level order; rows
    # holds each node's rows in turn, count how many
    drawn = _PassDraws(streams, n, n_boot)
    rows = drawn.rows.ravel()
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
            node_job = job[tree[split]]
            # each node's row of draws, padded after its job's width with
            # 2.0, which sorts after every draw
            draws = np.full((split.size, design_column.shape[1]), 2.0)
            drawing = np.flatnonzero(per_tree)
            draws[np.arange(draws.shape[1]) < widths[node_job][:, None]] = \
                drawn.take(drawing, per_tree[drawing] * widths[job[drawing]])
            local = draws.argsort(axis=1, kind="stable")[:, :k]
            # one (node, candidate) pair for each of a node's first
            # n_candidates columns, node after node
            real = np.arange(k) < n_candidates[node_job][:, None]
            node = np.nonzero(real)[0]
            feat, thr, found = _best_splits(
                X, keys, shift, np.append(rows, n), np.append(yr, 0.0),
                start[split], count[split], node,
                design_column[node_job[node], local[real]], min_leaf)
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
    feature = np.where(feature < 0, -1, local_column[job[tree], feature])
    # a stable sort on the tree puts each tree's nodes in index order,
    # so each tree is one slice of these arrays
    order = tree.argsort(kind="stable")
    feature, threshold, left, value, level = (
        a[order] for a in (feature, threshold, left, value, level))
    right = np.where(left < 0, -1, left + 1)
    end = np.cumsum(n_nodes)
    return [RegressionTree(feature[a:b], threshold[a:b], left[a:b],
                           right[a:b], value[a:b], depth)
            for a, b, depth in zip((end - n_nodes).tolist(), end.tolist(),
                                   level[end - 1].tolist())]


def fit_random_forests(features: np.ndarray, target: np.ndarray,
                       config: ForestConfig | None, jobs,
                       feature_names: tuple[str, ...] | None = None
                       ) -> list[ForestModel]:
    """One forest per (seed, columns) job, with the bits of
    fit_random_forest(features[:, columns], target, config, seed), all
    grown together on one design. columns are distinct column indices
    of features; each forest carries the names of its columns."""
    config = config or ForestConfig()
    config.validate()
    X, y = checked_design(features, target, "fit_random_forest")
    # a bootstrap sample has at most n rows, so (n * max|y|)^2 bounds
    # every sum of squares and squared sum the split scan forms
    peak = X.shape[0] * float(np.abs(y).max())
    if not math.isfinite(peak * peak):
        raise InvalidConfigError(
            "forest target too large: its sums of squares overflow")
    d = X.shape[1]
    if feature_names is None:
        feature_names = tuple(f"x{i}" for i in range(d))
    if len(feature_names) != d:
        raise ShapeMismatchError("feature_names length mismatch")
    jobs = [(seed, np.asarray(columns, dtype=np.int64))
            for seed, columns in jobs]
    for _, columns in jobs:
        if columns.size == 0:
            raise EmptyInputError("forest needs at least one feature column")
        if columns.ndim != 1 or columns.min() < 0 or columns.max() >= d \
                or np.unique(columns).size != columns.size:
            raise ShapeMismatchError(
                "a forest's columns must be distinct columns of features")
    if not jobs:
        return []
    return [ForestModel(tuple(trees), config,
                        tuple(feature_names[i] for i in columns))
            for (_, columns), trees in zip(jobs, _grow_forest(X, y, config,
                                                              jobs))]


def fit_random_forest(features: np.ndarray, target: np.ndarray,
                      config: ForestConfig | None = None, seed: int = 0,
                      feature_names: tuple[str, ...] | None = None
                      ) -> ForestModel:
    """Grow config.n_trees trees, each from its own (seed, index) stream:
    fit_random_forests' one job of every column."""
    width = np.shape(features)[1] if np.ndim(features) == 2 else 0
    return fit_random_forests(features, target, config,
                              [(seed, range(width))], feature_names)[0]


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
