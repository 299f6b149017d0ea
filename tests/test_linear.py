"""OLS and coordinate-descent elastic net against closed-form oracles."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optnet.data import BenchmarkConfig, Dataset, generate_benchmark, \
    partition
from optnet.errors import (
    EmptyInputError,
    InvalidConfigError,
    ShapeMismatchError,
)
from optnet.linear import (
    DEFAULT_L1_RATIO_GRID,
    DEFAULT_PENALTY_GRID,
    ElasticNetConfig,
    LinearModel,
    OlsGram,
    _coordinate_descent,
    elastic_net_objective,
    fit_elastic_net,
    fit_ols,
    grid_search_elastic_net,
    mae,
    predict,
    predict_each_row,
)


@pytest.fixture(scope="module")
def regression_case():
    """Well-conditioned data with mixed column scales and a true model."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((80, 6)) * np.array([1.0, 3.0, 0.5, 2.0, 1.0,
                                                 4.0])
    w = np.array([1.5, -2.0, 0.0, 3.0, 0.0, 1.0])
    y = X @ w + 2.0 + 0.1 * rng.standard_normal(80)
    return X, y


def _standardized(X, y):
    x_mean = X.mean(axis=0)
    x_scale = X.std(axis=0)
    return (X - x_mean) / x_scale, y - y.mean(), x_mean, x_scale


# ---------------------------------------------------------------------------
# Ordinary least squares

def test_ols_residual_orthogonality(regression_case):
    X, y = regression_case
    model = fit_ols(X, y)
    r = y - predict(model, X)
    # residual orthogonal to every column and to the intercept direction
    assert float(np.max(np.abs(X.T @ r))) <= 1e-8
    assert abs(float(r.sum())) <= 1e-8
    assert not model.rank_deficient


def test_ols_exact_recovery():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((50, 4))
    w = np.array([2.0, -1.0, 0.5, 3.0])
    y = X @ w + 7.0
    model = fit_ols(X, y)
    assert np.allclose(model.weights, w, atol=1e-10)
    assert abs(model.intercept - 7.0) < 1e-10


def test_ols_rank_deficient_flag():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((30, 2))
    X = np.column_stack([X, X[:, 0] + X[:, 1]])  # third column dependent
    model = fit_ols(X, X[:, 0])
    assert model.rank_deficient
    # the minimum-norm solution still fits
    assert mae(predict(model, X), X[:, 0]) < 1e-8


def test_ols_more_columns_than_rows():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((5, 10))
    y = rng.standard_normal(5)
    model = fit_ols(X, y)
    assert model.rank_deficient
    assert mae(predict(model, X), y) < 1e-8  # interpolates


def test_ols_zero_features_intercept_only():
    y = np.array([1.0, 3.0, 5.0])
    model = fit_ols(np.zeros((3, 0)), y)
    assert model.weights.shape == (0,)
    assert model.intercept == pytest.approx(3.0)
    assert np.allclose(predict(model, np.zeros((2, 0))), 3.0)


def test_ols_input_errors():
    with pytest.raises(ShapeMismatchError):
        fit_ols(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(EmptyInputError):
        fit_ols(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ShapeMismatchError):
        fit_ols(np.zeros(3), np.zeros(3))


@pytest.mark.parametrize("where", ["features", "target"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ols_non_finite_inputs_are_rejected(regression_case, where, bad,
                                            capfd):
    """Raised before the solve: LAPACK never sees the value (a NaN used
    to make it print to stderr), and an inf target no longer gives an
    all-NaN model."""
    X, y = (a.copy() for a in regression_case)
    if where == "features":
        X[7, 2] = bad
    else:
        y[7] = bad
    with pytest.raises(InvalidConfigError, match="finite"):
        fit_ols(X, y)
    if where == "target":  # the intercept-only path checks it too
        with pytest.raises(InvalidConfigError, match="finite"):
            fit_ols(X[:, :0], y)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("fit", [fit_ols, fit_elastic_net])
def test_fitters_reject_a_target_that_is_not_1d(regression_case, fit):
    X, y = regression_case
    with pytest.raises(ShapeMismatchError, match="target must be 1-d"):
        fit(X, y[:, None])


def test_predict_shape_check(regression_case):
    X, y = regression_case
    model = fit_ols(X, y)
    with pytest.raises(ShapeMismatchError):
        predict(model, X[:, :3])
    with pytest.raises(ShapeMismatchError):
        predict_each_row(model, X[:, :3])


@settings(max_examples=200, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(0, 60),
       cols=st.integers(1, 12), fortran=st.booleans())
def test_predict_each_row_has_the_bits_of_one_row_predicts(seed, rows, cols,
                                                          fortran):
    rng = np.random.default_rng(seed)
    model = LinearModel(rng.normal(size=cols) * 10.0 ** rng.integers(-3, 4),
                        float(rng.normal()), [f"x{i}" for i in range(cols)])
    X = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-3, 4)
    if fortran:
        X = np.asfortranarray(X)
    got = predict_each_row(model, X)
    assert got.shape == (rows,)
    for i in range(rows):
        alone = np.array(X[i:i + 1], order="C")  # a fresh one-row array
        assert got[i].tobytes() == predict(model, alone)[0].tobytes()


# ---------------------------------------------------------------------------
# OLS from a Gram matrix

#: How far an OlsGram solve may be from fit_ols, relative to the largest
#: coefficient: the two differ by rounding only on well-conditioned masks
#: (at most 1.0e-14 over 2 000 random flagship masks).
GRAM_TOLERANCE = 1e-10


@pytest.fixture(scope="module")
def flagship_train():
    """The flagship's train rows: dataset seed 3, 250 x 100."""
    dataset, _ = generate_benchmark(BenchmarkConfig(), seed=3)
    X, y = partition(dataset, seed=3).train_xy()
    return X, y, OlsGram(X, y)


def _close_to_fit_ols(coef, X, y, columns):
    reference = fit_ols(X[:, columns], y)
    expected = np.append(reference.weights, reference.intercept)
    scale = max(1.0, float(np.abs(expected).max()))
    assert np.abs(coef - expected).max() <= GRAM_TOLERANCE * scale
    assert not reference.rank_deficient


@settings(max_examples=200, deadline=None, database=None)
@given(columns=st.sets(st.integers(0, 99), min_size=1, max_size=100))
def test_gram_solve_matches_fit_ols_on_flagship_masks(flagship_train,
                                                      columns):
    X, y, gram = flagship_train
    assert gram.usable
    columns = np.array(sorted(columns), dtype=np.intp)
    coef = gram.solve_stacked(columns[None])
    assert coef.shape == (1, len(columns) + 1)
    _close_to_fit_ols(coef[0], X, y, columns)


@pytest.mark.parametrize("scale, rank_deficient", [
    (0.0, True), (1e-12, True), (1e-7, False)])
def test_gram_refuses_a_design_with_a_collinear_pair(
        flagship_train, scale, rank_deficient):
    """Column 100 is column 0 plus scaled noise. Even where fit_ols finds
    full rank, the Gram matrix is too ill-conditioned to solve from, so
    every mask is left to fit_ols."""
    X, y, _ = flagship_train
    noise = np.random.default_rng(5).standard_normal(X.shape[0])
    X = np.column_stack([X, X[:, 0] + scale * noise])
    gram = OlsGram(X, y)
    assert not gram.usable
    for columns in ([0, 100], [0, 5], [3]):
        assert gram.solve_stacked(np.array([columns])) is None
    assert fit_ols(X[:, [0, 100]], y).rank_deficient == rank_deficient


@settings(max_examples=60, deadline=None, database=None)
@given(k=st.integers(1, 100), seed=st.integers(0, 2 ** 32 - 1),
       b=st.integers(1, 12))
def test_gram_solve_stacked_has_the_bits_of_each_solve(flagship_train, k,
                                                       seed, b):
    """Each row of a stack has the bits of one two-dimensional solve of
    its sub-system, and so has a stack of that row alone."""
    _, _, gram = flagship_train
    rng = np.random.default_rng(seed)
    columns = np.stack([np.sort(rng.choice(100, k, replace=False))
                        for _ in range(b)])
    coef = gram.solve_stacked(columns)
    assert coef.shape == (b, k + 1)
    for row, cols in zip(coef, columns):
        idx = np.append(cols, 100)
        alone = np.linalg.solve(gram.gram[np.ix_(idx, idx)],
                                gram.moment[idx])
        assert row.tobytes() == alone.tobytes()
        assert gram.solve_stacked(cols[None])[0].tobytes() == row.tobytes()


def test_gram_solve_stacked_refuses_what_solve_refuses(flagship_train):
    """An unusable Gram matrix solves no stack, and a singular sub-system
    (here on a zero column) of a Gram matrix taken as usable fails its
    whole stack."""
    X, y, _ = flagship_train
    X = np.column_stack([X, np.zeros(len(X))])
    gram = OlsGram(X, y)
    assert not gram.usable
    assert gram.solve_stacked(np.array([[1, 2]])) is None
    gram.usable = True
    assert gram.solve_stacked(np.array([[1, 2]])) is not None
    assert gram.solve_stacked(np.array([[1, 2], [0, 100]])) is None
    assert gram.solve_stacked(np.array([[0, 100]])) is None


@pytest.mark.parametrize("where", ["features", "target"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gram_solve_refuses_non_finite_data(flagship_train, where, bad):
    """A non-finite Gram matrix solves nothing; fit_ols then raises its
    own error for every mask that reads a bad value."""
    X, y, _ = flagship_train
    X, y = X.copy(), y.copy()
    if where == "features":
        X[3, 7] = bad
    else:
        y[3] = bad
    gram = OlsGram(X, y)
    for columns in ([7], [0, 7, 9], [0, 1]):
        assert gram.solve_stacked(np.array([columns])) is None
    with pytest.raises(InvalidConfigError, match="finite"):
        fit_ols(X[:, [0, 7, 9]], y)


def test_linear_model_keeps_a_tuple_of_str_and_converts_the_rest():
    names = ("a", "b")
    assert LinearModel(np.zeros(2), 0.0, names).feature_names is names
    for other in (["a", "b"], (np.str_("a"), "b"), ("a", 2)):
        kept = LinearModel(np.zeros(2), 0.0, other).feature_names
        assert kept == tuple(str(n) for n in other)
        assert all(type(n) is str for n in kept)


# ---------------------------------------------------------------------------
# Mean absolute error

def test_mae_basics():
    a = np.array([1.0, 2.0, 3.0])
    assert mae(a, a) == 0.0
    assert mae(a + 0.5, a) == pytest.approx(0.5)
    assert mae(a, a + 0.5) == mae(a + 0.5, a)


@settings(max_examples=200, deadline=None, database=None)
@given(values=st.lists(st.tuples(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=300))
def test_mae_has_the_bits_of_numpy_mean(values):
    p, a = np.array(values).T
    assert mae(p, a) == float(np.mean(np.abs(p - a)))


def test_mae_errors():
    with pytest.raises(ShapeMismatchError):
        mae(np.zeros(3), np.zeros(4))
    with pytest.raises(EmptyInputError):
        mae(np.zeros(0), np.zeros(0))


# ---------------------------------------------------------------------------
# Elastic net

def test_elastic_net_zero_penalty_matches_ols(regression_case):
    X, y = regression_case
    ols = fit_ols(X, y)
    en = fit_elastic_net(X, y, ElasticNetConfig(penalty=0.0, tolerance=1e-12,
                                                max_sweeps=20000))
    assert en.converged
    assert float(np.max(np.abs(en.weights - ols.weights))) <= 1e-6
    assert abs(en.intercept - ols.intercept) <= 1e-6


def test_elastic_net_ridge_closed_form(regression_case):
    """Pure ridge has an analytic solution on the standardized scale."""
    X, y = regression_case
    penalty = 0.7
    model = fit_elastic_net(X, y, ElasticNetConfig(
        penalty=penalty, l1_ratio=0.0, tolerance=1e-12, max_sweeps=20000))
    Z, yc, x_mean, x_scale = _standardized(X, y)
    n, d = X.shape
    w_std = np.linalg.solve(Z.T @ Z / n + penalty * np.eye(d), Z.T @ yc / n)
    expected = w_std / x_scale
    assert np.allclose(model.weights, expected, atol=1e-8)
    assert model.intercept == pytest.approx(
        float(y.mean() - x_mean @ expected), abs=1e-8)


def test_elastic_net_lasso_null_threshold(regression_case):
    """Above the critical penalty max|Z'y|/n, pure lasso zeroes all
    coefficients; just below it, something survives."""
    X, y = regression_case
    Z, yc, _, _ = _standardized(X, y)
    lam_max = float(np.max(np.abs(Z.T @ yc / X.shape[0])))
    null = fit_elastic_net(X, y, ElasticNetConfig(penalty=lam_max * 1.001,
                                                  l1_ratio=1.0))
    assert null.n_selected == 0
    live = fit_elastic_net(X, y, ElasticNetConfig(penalty=lam_max * 0.95,
                                                  l1_ratio=1.0))
    assert live.n_selected >= 1


def test_elastic_net_kkt_conditions(regression_case):
    """First-order optimality on the standardized problem."""
    X, y = regression_case
    penalty, ratio = 0.3, 0.6
    model = fit_elastic_net(X, y, ElasticNetConfig(
        penalty=penalty, l1_ratio=ratio, tolerance=1e-12, max_sweeps=50000))
    Z, yc, _, x_scale = _standardized(X, y)
    w = model.weights * x_scale
    g = Z.T @ (yc - Z @ w) / X.shape[0]
    l1 = penalty * ratio
    l2 = penalty * (1.0 - ratio)
    for j in range(X.shape[1]):
        if w[j] != 0.0:
            assert abs(g[j] - l1 * np.sign(w[j]) - l2 * w[j]) < 1e-8
        else:
            assert abs(g[j]) <= l1 + 1e-8


def test_elastic_net_objective_monotone(regression_case):
    """The fit stopped after s sweeps is the solver's s-th iterate, and
    the objective of the standardized problem never rises from one
    iterate to the next."""
    X, y = regression_case
    cfg = ElasticNetConfig(penalty=0.1, l1_ratio=0.5, tolerance=1e-10)
    full = fit_elastic_net(X, y, cfg)
    Z, yc, _, x_scale = _standardized(X, y)
    fits = [fit_elastic_net(X, y, replace(cfg, max_sweeps=s))
            for s in range(1, full.n_sweeps + 1)]
    assert len(fits) >= 2
    assert fits[-1] == full
    objectives = np.array([
        elastic_net_objective(Z, yc, fit.weights * x_scale, 0.0,
                              cfg.penalty, cfg.l1_ratio) for fit in fits])
    assert np.all(np.diff(objectives) <= 1e-12)


def test_elastic_net_objective_matches_helper(regression_case):
    # the helper is the objective the solver minimizes: at the converged
    # weights (on the standardized scale) it equals the formula written
    # out by hand, and no single-coordinate step lowers it
    X, y = regression_case
    cfg = ElasticNetConfig(penalty=0.2, l1_ratio=0.5, tolerance=1e-12)
    model = fit_elastic_net(X, y, cfg)
    assert model.converged
    Z, yc, _, x_scale = _standardized(X, y)
    w = model.weights * x_scale
    at_fit = elastic_net_objective(Z, yc, w, 0.0, cfg.penalty, cfg.l1_ratio)
    r = yc - Z @ w
    by_hand = (0.5 * np.mean(r * r)
               + cfg.penalty * (cfg.l1_ratio * np.sum(np.abs(w))
                                + 0.5 * (1.0 - cfg.l1_ratio) * np.sum(w * w)))
    assert at_fit == pytest.approx(by_hand, abs=1e-12)
    for j in range(w.size):
        for step in (-1e-4, 1e-4):
            moved = w.copy()
            moved[j] += step
            assert elastic_net_objective(Z, yc, moved, 0.0, cfg.penalty,
                                         cfg.l1_ratio) >= at_fit - 1e-12


def test_elastic_net_sweep_limit_flags_convergence(regression_case):
    X, y = regression_case
    model = fit_elastic_net(X, y, ElasticNetConfig(penalty=0.01,
                                                   tolerance=1e-14,
                                                   max_sweeps=1))
    assert not model.converged
    assert model.n_sweeps == 1


def test_elastic_net_constant_column_stays_zero():
    rng = np.random.default_rng(4)
    X = np.column_stack([rng.standard_normal(40), np.full(40, 3.0)])
    y = 2.0 * X[:, 0] + 1.0
    model = fit_elastic_net(X, y, ElasticNetConfig(penalty=0.01))
    assert model.weights[1] == 0.0
    assert model.weights[0] != 0.0


def test_elastic_net_constant_column_with_inexact_mean_stays_zero():
    """The mean of ten copies of 28.4625111 is not exactly that value,
    so the column's std is about 7e-15 rather than 0; the column used to
    be standardized to a constant and got a weight of about -0.25, with
    the intercept making up for it."""
    rng = np.random.default_rng(5)
    X = np.column_stack([np.full(10, 28.4625111), rng.standard_normal(10)])
    assert X[:, 0].std() > 0
    y = X[:, 1] - 19.0 + 0.1 * rng.standard_normal(10)
    model = fit_elastic_net(X, y, ElasticNetConfig(penalty=0.0))
    assert model.weights[0] == 0.0
    assert model.intercept == pytest.approx(
        float(y.mean() - X[:, 1].mean() * model.weights[1]))


def test_elastic_net_zero_features():
    y = np.array([2.0, 4.0])
    model = fit_elastic_net(np.zeros((2, 0)), y)
    assert model.intercept == pytest.approx(3.0)


@pytest.mark.parametrize("where", ["features", "target"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_elastic_net_non_finite_inputs_are_rejected(regression_case, where,
                                                    bad):
    """A NaN column used to come back as a zero weight with a NaN
    intercept and converged=True."""
    X, y = (a.copy() for a in regression_case)
    if where == "features":
        X[7, 2] = bad
    else:
        y[7] = bad
    with pytest.raises(InvalidConfigError, match="finite"):
        fit_elastic_net(X, y)


def test_elastic_net_config_validation():
    with pytest.raises(InvalidConfigError):
        ElasticNetConfig(penalty=-1.0).validate()
    with pytest.raises(InvalidConfigError):
        ElasticNetConfig(l1_ratio=1.5).validate()
    with pytest.raises(InvalidConfigError):
        ElasticNetConfig(tolerance=0.0).validate()
    with pytest.raises(InvalidConfigError, match="penalty"):
        ElasticNetConfig(penalty=float("nan")).validate()
    with pytest.raises(InvalidConfigError, match="tolerance"):
        ElasticNetConfig(tolerance=float("nan")).validate()
    with pytest.raises(InvalidConfigError):
        ElasticNetConfig(max_sweeps=0).validate()


def test_linear_model_validation():
    with pytest.raises(ShapeMismatchError):
        LinearModel(np.zeros((2, 2)), 0.0, ("a", "b"))
    with pytest.raises(ShapeMismatchError):
        LinearModel(np.zeros(2), 0.0, ("a",))


def test_linear_model_n_selected():
    model = LinearModel(np.array([1.0, 0.0, -2.0]), 0.5, ("a", "b", "c"))
    assert model.n_selected == 2


# ---------------------------------------------------------------------------
# Grid search

def test_default_grids():
    assert len(DEFAULT_PENALTY_GRID) == 25
    assert DEFAULT_PENALTY_GRID[0] == pytest.approx(1e-4)
    assert DEFAULT_PENALTY_GRID[-1] == pytest.approx(1e2)
    assert DEFAULT_L1_RATIO_GRID == (0.0, 0.25, 0.5, 0.75, 1.0)


def test_grid_search_picks_validation_minimum(small_partitioned):
    result = grid_search_elastic_net(small_partitioned,
                                     penalty_grid=(0.001, 0.1, 10.0),
                                     l1_ratio_grid=(0.0, 1.0))
    assert len(result.cells) == 6
    best = min(result.cells, key=lambda c: (c.validation_mae, c.n_selected,
                                            c.penalty, c.l1_ratio))
    assert result.best_cell == best
    assert result.validation_mae == best.validation_mae
    assert result.test_mae is not None


def test_grid_search_cell_order_is_row_major(small_partitioned):
    result = grid_search_elastic_net(small_partitioned,
                                     penalty_grid=(0.1, 1.0),
                                     l1_ratio_grid=(0.0, 0.5, 1.0),
                                     compute_test_mae=False)
    combos = [(c.penalty, c.l1_ratio) for c in result.cells]
    assert combos == [(0.1, 0.0), (0.1, 0.5), (0.1, 1.0),
                      (1.0, 0.0), (1.0, 0.5), (1.0, 1.0)]
    assert result.test_mae is None


def test_grid_search_flags_failed_cells(small_partitioned):
    # a negative penalty fails config validation inside the fit; the cell
    # is recorded and the scan continues
    result = grid_search_elastic_net(small_partitioned,
                                     penalty_grid=(-1.0, 0.1),
                                     l1_ratio_grid=(0.5,))
    bad, good = result.cells
    assert not bad.ok
    assert bad.validation_mae == float("inf")
    assert "penalty" in bad.error
    assert good.ok and good.error is None
    assert result.best_cell == good


def test_grid_search_flags_a_nan_penalty_cell(small_partitioned):
    """A NaN penalty used to pass validation, run every sweep, score a
    NaN validation MAE and win the grid."""
    result = grid_search_elastic_net(small_partitioned,
                                     penalty_grid=(float("nan"), 0.1),
                                     l1_ratio_grid=(0.5,))
    bad, good = result.cells
    assert not bad.ok and "penalty" in bad.error
    assert bad.validation_mae == float("inf")
    assert result.best_cell == good
    assert np.isfinite(result.test_mae)


def test_grid_search_all_cells_failed(small_partitioned):
    with pytest.raises(InvalidConfigError):
        grid_search_elastic_net(small_partitioned, penalty_grid=(-1.0,),
                                l1_ratio_grid=(0.0, 1.0))


def test_grid_search_cells_csv(small_partitioned):
    result = grid_search_elastic_net(small_partitioned,
                                     penalty_grid=(-1.0, 0.1),
                                     l1_ratio_grid=(0.5,),
                                     compute_test_mae=False)
    assert len(result.cells) == 2
    flagged = result.cells[0]
    assert flagged.error == "penalty must be non-negative"
    assert flagged.validation_mae == float("inf")
    assert flagged.n_selected == 0
    assert not flagged.converged


def test_grid_search_rejects_empty_grid(small_partitioned):
    with pytest.raises(InvalidConfigError):
        grid_search_elastic_net(small_partitioned, penalty_grid=())


# ---------------------------------------------------------------------------
# Lockstep grid against single fits and the scalar reference loop

def _soft_threshold(v, t):
    if v > t:
        return v - t
    if v < -t:
        return v + t
    return 0.0


def _scalar_reference(X, y, config):
    """The one-cell, one-coordinate-at-a-time residual-update loop the
    batched solver replaced; returns raw-scale weights, n_sweeps and
    converged."""
    n, d = X.shape
    x_mean = X.mean(axis=0)
    live = X.max(axis=0) > X.min(axis=0)
    x_scale = np.where(live, X.std(axis=0), 1.0)
    Z = (X - x_mean) / x_scale
    resid = y - float(y.mean())
    l1 = config.penalty * config.l1_ratio
    l2 = config.penalty * (1.0 - config.l1_ratio)
    w = np.zeros(d)
    for sweeps in range(1, config.max_sweeps + 1):
        max_delta = 0.0
        for j in np.flatnonzero(live):
            zj = Z[:, j]
            wj = w[j]
            w_new = _soft_threshold((zj @ resid) / n + wj, l1) / (1.0 + l2)
            if w_new != wj:
                resid += zj * (wj - w_new)
                w[j] = w_new
                max_delta = max(max_delta, abs(w_new - wj))
        if max_delta <= config.tolerance:
            return w / x_scale, sweeps, True
    return w / x_scale, config.max_sweeps, False


@st.composite
def _grid_problems(draw):
    """A small regression, sometimes with a constant column, and a grid
    of 1-6 penalties (some negative) by 1-3 ratios, sometimes with a
    sweep limit low enough to stop cells unconverged."""
    n = draw(st.integers(10, 60))
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-1, 1, size=d)
    if draw(st.booleans()):
        X[:, draw(st.integers(0, d - 1))] = draw(
            st.floats(-100.0, 100.0, allow_nan=False))
    y = X @ rng.standard_normal(d) + rng.standard_normal(n)
    penalties = draw(st.lists(
        st.sampled_from([-0.5, 0.0, 1e-3, 0.03, 0.3, 1.0, 10.0])
        | st.floats(1e-4, 10.0), min_size=1, max_size=6))
    ratios = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0])
                           | st.floats(0.0, 1.0), min_size=1, max_size=3))
    max_sweeps = draw(st.sampled_from([1, 2, 5, 1000]))
    return X, y, penalties, ratios, max_sweeps


@settings(max_examples=80, deadline=None, database=None)
@given(_grid_problems())
def test_every_grid_cell_equals_its_single_fit(problem):
    X, y, penalties, ratios, max_sweeps = problem
    p = partition(Dataset(X, y, tuple(f"f{i}" for i in range(X.shape[1]))),
                  seed=0)
    if all(pen < 0 for pen in penalties):
        with pytest.raises(InvalidConfigError, match="every grid cell"):
            grid_search_elastic_net(p, penalties, ratios,
                                    max_sweeps=max_sweeps)
        return
    result = grid_search_elastic_net(p, penalties, ratios,
                                     max_sweeps=max_sweeps)
    X_train, y_train = p.train_xy()
    X_val, y_val = p.validation_xy()
    assert len(result.cells) == len(penalties) * len(ratios)
    for cell in result.cells:
        if cell.penalty < 0:
            assert cell.error == "penalty must be non-negative"
            assert cell.validation_mae == float("inf")
            assert (cell.n_selected, cell.converged) == (0, False)
            continue
        single = fit_elastic_net(
            X_train, y_train,
            ElasticNetConfig(cell.penalty, cell.l1_ratio,
                             max_sweeps=max_sweeps),
            p.base.feature_names)
        assert cell.ok
        assert (cell.validation_mae, cell.n_selected, cell.converged) == (
            mae(predict(single, X_val), y_val), single.n_selected,
            single.converged)
        if cell is result.best_cell:
            assert single == result.best_model
            assert single.weights.tobytes() == \
                result.best_model.weights.tobytes()
            assert single.intercept == result.best_model.intercept


@settings(max_examples=60, deadline=None, database=None)
@given(_grid_problems())
def test_lockstep_core_matches_scalar_loop(problem):
    X, y, penalties, ratios, _ = problem
    configs = [ElasticNetConfig(pen, ratio, tolerance=1e-12,
                                max_sweeps=20000)
               for pen in penalties if pen >= 0 for ratio in ratios]
    names = tuple(f"f{i}" for i in range(X.shape[1]))
    for cfg, model in zip(configs,
                          _coordinate_descent(X, y, configs, names)):
        weights, _, _ = _scalar_reference(X, y, cfg)
        assert np.max(np.abs(model.weights - weights)) <= 1e-8
