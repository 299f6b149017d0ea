"""Linear regression fitting: ordinary least squares and elastic net.

Both fitters return a LinearModel operating on raw (unstandardized)
inputs. The elastic net standardizes internally for the coordinate
descent updates and maps the solution back, so its coefficients are
directly comparable with the OLS ones.

One coordinate-descent solver serves both elastic-net entry points: it
fits a batch of configs on one design in lockstep, from a Gram matrix
of the standardized features that holds d*d floats (more than the
features themselves only when d exceeds the row count).
fit_elastic_net is its one-cell call, and grid_search_elastic_net runs
the whole grid as one batch; every grid cell has the same bits as
fit_elastic_net on that cell alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import checked_design, checked_width
from .errors import (
    EmptyInputError,
    InvalidConfigError,
    OptnetError,
    ShapeMismatchError,
)

#: Penalty strengths 10^k for k from -4 to 2 in quarter-decade steps.
DEFAULT_PENALTY_GRID = tuple(10.0 ** k for k in np.arange(-4.0, 2.25, 0.25))
#: Mixing weights from pure ridge (0) to pure lasso (1).
DEFAULT_L1_RATIO_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)

_RCOND = 1e-10


@dataclass(frozen=True)
class LinearModel:
    """Affine predictor y = X @ weights + intercept.

    rank_deficient marks an OLS fit whose design matrix had linearly
    dependent columns; the stored weights are then the minimum-norm
    solution. converged is False when coordinate descent hit its sweep
    limit, in which case the last iterate is stored.
    """

    weights: np.ndarray
    intercept: float
    feature_names: tuple[str, ...]
    rank_deficient: bool = False
    converged: bool = True
    n_sweeps: int = 0

    def __post_init__(self):
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        if w.ndim != 1:
            raise ShapeMismatchError("weights must be 1-d")
        if len(self.feature_names) != w.shape[0]:
            raise ShapeMismatchError(
                f"{len(self.feature_names)} names for {w.shape[0]} weights")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        names = self.feature_names
        # a tuple of exact str (not np.str_) is kept as it is
        if type(names) is not tuple \
                or not all(type(n) is str for n in names):
            object.__setattr__(self, "feature_names",
                               tuple(str(n) for n in names))
        object.__setattr__(self, "intercept", float(self.intercept))

    @property
    def n_selected(self) -> int:
        """Number of features with a nonzero coefficient."""
        return int(np.count_nonzero(self.weights))

    def __eq__(self, other):
        if not isinstance(other, LinearModel):
            return NotImplemented
        return (self.feature_names == other.feature_names
                and np.array_equal(self.weights, other.weights)
                and self.intercept == other.intercept
                and self.rank_deficient == other.rank_deficient
                and self.converged == other.converged)

    def __hash__(self):
        return hash((self.feature_names, self.intercept))


def predict(model: LinearModel, features: np.ndarray) -> np.ndarray:
    X = checked_width(features, model.weights.shape[0], "predict")
    return X @ model.weights + model.intercept


def predict_each_row(model: LinearModel, features: np.ndarray) -> np.ndarray:
    """predict, with every row getting the bits of predicting it alone.

    A plain X @ weights may round a row's last bit differently from the
    one-row product; one stacked 1 x k product per row, on a C-ordered
    X, does not (an F-ordered X takes numpy's non-BLAS loop).
    """
    X = checked_width(np.ascontiguousarray(features, dtype=np.float64),
                      model.weights.shape[0], "predict_each_row")
    return (X[:, None, :] @ model.weights)[:, 0] + model.intercept


def mae(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Mean absolute error between two equal-length vectors."""
    p = np.asarray(predicted, dtype=np.float64).ravel()
    a = np.asarray(actual, dtype=np.float64).ravel()
    if p.shape != a.shape:
        raise ShapeMismatchError(f"shape mismatch {p.shape} vs {a.shape}")
    if p.size == 0:
        raise EmptyInputError("mae of empty vectors is undefined")
    # np.mean's bits without its Python overhead: the same pairwise sum,
    # divided by the count
    return float(np.add.reduce(np.abs(p - a))) / p.size


def fit_ols(features: np.ndarray, target: np.ndarray,
            feature_names: tuple[str, ...] | None = None) -> LinearModel:
    """Least-squares fit with an unpenalized intercept.

    Solved through an orthogonal decomposition, which handles more
    columns than rows by returning the minimum-norm solution; the model
    is flagged rank_deficient in that case rather than raising. NaN or
    infinite features or targets raise InvalidConfigError before the
    solve.
    """
    X, y = checked_design(features, target, "fit_ols")
    n, d = X.shape
    if feature_names is None:
        feature_names = tuple(f"x{i}" for i in range(d))
    if d == 0:
        return LinearModel(np.zeros(0), float(np.mean(y)), ())
    A = np.column_stack([X, np.ones(n)])
    coef, _, rank, _ = np.linalg.lstsq(A, y, rcond=_RCOND)
    return LinearModel(coef[:d], float(coef[d]), tuple(feature_names),
                       rank_deficient=bool(rank < d + 1))


#: Largest 2-norm condition number of a Gram matrix OlsGram solves
#: from. The relative error of the solved weights grows like
#: cond * 2.2e-16, so about 1e-6 here at worst. fit_ols flags rank
#: deficiency from a condition of 1e10 of [X 1] (its rcond), which is a
#: Gram condition of 1e20, far past this limit, so no mask fit_ols would
#: flag is solved from the Gram matrix.
_GRAM_COND_LIMIT = 1e10


class OlsGram:
    """G = [X 1]'[X 1] and m = [X 1]'y of one design, built once, for
    OLS fits on subsets of its columns.

    solve(columns, names) fits y on X[:, columns] plus an intercept by
    solving S w = m_S, where S is the (k+1) x (k+1) sub-matrix of G on
    those columns and the intercept, at a fraction of fit_ols's cost.
    The normal equations square the condition number of the
    least-squares problem (Golub & Van Loan, Matrix Computations,
    section 5.3), so solve returns None, and the caller fits with
    fit_ols, whenever
      - G or m is not finite (fit_ols then raises its InvalidConfigError
        for non-finite columns, or fits finite ones that overflowed);
      - G's condition number exceeds _GRAM_COND_LIMIT, or G is not
        positive definite;
      - the factorization of S fails;
      - columns is empty (fit_ols's constant model is exact and cheap).
    The condition test is made once, on G's extreme eigenvalues, and is
    sound for every subset: by Cauchy's interlacing theorem a principal
    sub-matrix S of G is positive definite with a condition number no
    larger than G's. So one LU solve per mask is as accurate as a
    Cholesky solve, with one numpy call where Cholesky takes three. A
    design with one collinear pair of columns is fitted by fit_ols for
    every mask.

    A solved model is never rank_deficient and agrees with fit_ols up to
    rounding, not bit for bit.
    """

    def __init__(self, features: np.ndarray, target: np.ndarray):
        X = np.asarray(features, dtype=np.float64)
        y = np.asarray(target, dtype=np.float64)
        n, self._d = X.shape
        A = np.column_stack([X, np.ones(n)])
        self.gram = A.T @ A
        self.moment = A.T @ y
        self.usable = bool(np.isfinite(self.gram).all()
                           and np.isfinite(self.moment).all())
        if self.usable:
            eig = np.linalg.eigvalsh(self.gram)
            self.usable = bool(
                eig[0] > 0 and eig[-1] <= _GRAM_COND_LIMIT * eig[0])

    def solve(self, columns: np.ndarray,
              feature_names: tuple[str, ...]) -> LinearModel | None:
        """The OLS model on the given columns, or None where fit_ols
        must fit it (see the class docstring)."""
        if not self.usable or len(columns) == 0:
            return None
        idx = np.concatenate((columns, [self._d]))
        try:
            coef = np.linalg.solve(self.gram.take(idx, 0).take(idx, 1),
                                   self.moment[idx])
        except np.linalg.LinAlgError:
            return None
        return LinearModel(coef[:-1], coef[-1], feature_names)


@dataclass
class ElasticNetConfig:
    """Settings for the coordinate-descent elastic net.

    penalty scales the whole regularizer; l1_ratio splits it between the
    absolute-value term (1) and the squared term (0).
    """

    penalty: float = 1.0
    l1_ratio: float = 0.5
    tolerance: float = 1e-6
    max_sweeps: int = 1000

    def validate(self) -> None:
        if not self.penalty >= 0:
            raise InvalidConfigError("penalty must be non-negative")
        if not 0.0 <= self.l1_ratio <= 1.0:
            raise InvalidConfigError("l1_ratio must lie in [0, 1]")
        if not self.tolerance > 0:
            raise InvalidConfigError("tolerance must be positive")
        if self.max_sweeps < 1:
            raise InvalidConfigError("max_sweeps must be at least 1")


def elastic_net_objective(features, target, weights, intercept,
                          penalty: float, l1_ratio: float) -> float:
    """Penalized half mean squared error minimized by fit_elastic_net."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(target, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    r = y - X @ w - intercept
    loss = 0.5 * float(np.mean(r * r))
    reg = penalty * (l1_ratio * float(np.sum(np.abs(w)))
                     + 0.5 * (1.0 - l1_ratio) * float(np.sum(w * w)))
    return loss + reg


def _coordinate_descent(X, y, configs, feature_names) -> list[LinearModel]:
    """One elastic net per (validated) config on the same checked X, y,
    run in lockstep.

    X is standardized once, and the Gram matrix G = Z'Z/n and c = Z'yc/n
    are built once; G holds d*d floats, more than X only when d > n.
    Cyclic coordinate descent then updates coordinate j of every live
    cell at once from one product of the cells x features weights with
    G[j] (covariance updates, Friedman, Hastie & Tibshirani, JSS 33(1),
    2010, section 2.2). Each cell's products are reduced along its own
    row by einsum, never by a BLAS product whose rounding depends on how
    many cells share the call, so a cell's bits do not depend on the
    other configs in the batch. A cell leaves the batch at its own
    convergence or its own sweep limit.
    """
    n, d = X.shape
    y_mean = float(y.mean())
    x_mean = X.mean(axis=0)
    # a constant column keeps a zero weight; its rounded std can be > 0
    live = X.max(axis=0) > X.min(axis=0)
    # ddof=0, so scaled columns have unit 2nd moment
    x_scale = np.where(live, X.std(axis=0), 1.0)
    Z = (X - x_mean) / x_scale
    yc = y - y_mean
    c = Z.T @ yc / n
    # the Gram matrix without its unit diagonal: row j then gives the
    # fit of the other coordinates, so rho needs no add-back of w_j
    G = Z.T @ Z / n
    np.fill_diagonal(G, 0.0)

    l1 = np.array([cfg.penalty * cfg.l1_ratio for cfg in configs])
    shrink = np.array([1.0 + cfg.penalty * (1.0 - cfg.l1_ratio)
                       for cfg in configs])
    tolerance = np.array([cfg.tolerance for cfg in configs])
    sweep_limit = np.array([cfg.max_sweeps for cfg in configs])
    W = np.zeros((len(configs), d))
    converged = np.zeros(len(configs), dtype=bool)
    n_sweeps = np.zeros(len(configs), dtype=np.int64)
    active = np.flatnonzero(live)
    cells = np.arange(len(configs))
    sweep = 0
    while cells.size:
        sweep += 1
        start = W[cells]
        w = start.copy()
        hi = l1[cells]
        lo = -hi
        div = shrink[cells]
        for j in active:
            # rho is the coordinate-wise least-squares fit to the partial
            # residual; with unit second moment columns the update is exact
            rho = c[j] - np.einsum("ji,i->j", w, G[j])
            w[:, j] = (rho - np.minimum(np.maximum(rho, lo), hi)) / div
        W[cells] = w
        # each coordinate moves once per sweep, so its step is end - start
        settled = np.abs(w - start).max(axis=1, initial=0.0) \
            <= tolerance[cells]
        done = settled | (sweep >= sweep_limit[cells])
        converged[cells[done]] = settled[done]
        n_sweeps[cells[done]] = sweep
        cells = cells[~done]

    W_orig = W / x_scale
    intercepts = y_mean - np.einsum("ji,i->j", W_orig, x_mean)
    names = tuple(feature_names)
    return [LinearModel(W_orig[i].copy(), intercepts[i], names,
                        converged=bool(converged[i]),
                        n_sweeps=int(n_sweeps[i]))
            for i in range(len(configs))]


def fit_elastic_net(features: np.ndarray, target: np.ndarray,
                    config: ElasticNetConfig | None = None,
                    feature_names: tuple[str, ...] | None = None
                    ) -> LinearModel:
    """Minimize (1/2n)||y - Xw - b||^2 + penalty * mix(w) by cyclic
    coordinate descent.

    mix(w) = l1_ratio * ||w||_1 + (1 - l1_ratio)/2 * ||w||_2^2. Features
    are centered and scaled to unit second moment internally; the
    returned model is on the original scale. The intercept is never
    penalized. Convergence is declared when no coefficient moves more
    than config.tolerance in a sweep; hitting max_sweeps first yields the
    last iterate with converged=False instead of an exception. NaN or
    infinite features or targets raise InvalidConfigError.

    This is the one-cell case of the solver grid_search_elastic_net runs
    on a whole grid at once, and gives the same bits as that grid's cell
    for this config. The solver keeps a d x d Gram matrix of the
    standardized features, which outweighs X itself only when d > n.
    """
    config = config or ElasticNetConfig()
    config.validate()
    X, y = checked_design(features, target, "fit_elastic_net")
    if feature_names is None:
        feature_names = tuple(f"x{i}" for i in range(X.shape[1]))
    return _coordinate_descent(X, y, [config], feature_names)[0]


@dataclass(frozen=True)
class GridCell:
    """Outcome of one (penalty, l1_ratio) grid point.

    A failed fit leaves a cell with error set, an infinite validation
    MAE, and no model; the search carries on with the rest of the grid.
    """

    penalty: float
    l1_ratio: float
    validation_mae: float
    n_selected: int
    converged: bool
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class GridSearchResult:
    """All grid cells plus the winning refit model and its test error."""

    cells: list[GridCell]
    best_cell: GridCell
    best_model: LinearModel
    validation_mae: float
    test_mae: float | None

    def cells_csv(self) -> str:
        lines = ["penalty,l1_ratio,validation_mae,n_selected,converged,error"]
        for c in self.cells:
            err = "" if c.error is None else c.error.replace("\n", " ")
            if "," in err or '"' in err:
                err = '"' + err.replace('"', '""') + '"'
            lines.append(f"{c.penalty!r},{c.l1_ratio!r},{c.validation_mae!r},"
                         f"{c.n_selected},{int(c.converged)},{err}")
        return "\n".join(lines) + "\n"


def _fit_cells(features, target, configs,
               feature_names) -> list[LinearModel | str]:
    """Each config's model, or the text of the error that stopped it: the
    config's own validation error, else the error of the one batched fit
    of every valid config."""
    errors = {}
    for i, cfg in enumerate(configs):
        try:
            cfg.validate()
        except InvalidConfigError as exc:
            errors[i] = str(exc)
    valid = [cfg for i, cfg in enumerate(configs) if i not in errors]
    try:
        X, y = checked_design(features, target, "fit_elastic_net")
        fits = iter(_coordinate_descent(X, y, valid, feature_names))
    except (OptnetError, FloatingPointError) as exc:
        return [errors.get(i, str(exc)) for i in range(len(configs))]
    return [errors[i] if i in errors else next(fits)
            for i in range(len(configs))]


def grid_search_elastic_net(partitioned, penalty_grid=None, l1_ratio_grid=None,
                            tolerance: float = 1e-6, max_sweeps: int = 1000,
                            compute_test_mae: bool = True) -> GridSearchResult:
    """Fit every (penalty, l1_ratio) combination on the training part and
    pick the cell with the lowest validation MAE.

    Ties prefer fewer selected features, then the smaller penalty, then
    the smaller l1_ratio. The winner is scored once on the test part.

    The valid cells are fitted in lockstep by one call of the solver
    behind fit_elastic_net, so the training features are standardized
    and their d x d Gram matrix built once per grid. Each cell stops at
    its own convergence or sweep limit, and its model has the same bits
    as fit_elastic_net on that cell alone. A cell whose config fails
    validation, or whose fit or validation scoring raises, is flagged
    with the error text and an infinite validation MAE.
    """
    penalties = tuple(penalty_grid) if penalty_grid is not None \
        else DEFAULT_PENALTY_GRID
    ratios = tuple(l1_ratio_grid) if l1_ratio_grid is not None \
        else DEFAULT_L1_RATIO_GRID
    if not penalties or not ratios:
        raise InvalidConfigError("grids must be non-empty")
    X_train, y_train = partitioned.train_xy()
    X_val, y_val = partitioned.validation_xy()
    names = partitioned.base.feature_names

    configs = [ElasticNetConfig(penalty=float(penalty), l1_ratio=float(ratio),
                                tolerance=tolerance, max_sweeps=max_sweeps)
               for penalty in penalties for ratio in ratios]
    cells: list[GridCell] = []
    models: list[LinearModel | None] = []
    for cfg, fit in zip(configs, _fit_cells(X_train, y_train, configs,
                                             names)):
        if isinstance(fit, LinearModel):
            try:
                val_mae = mae(predict(fit, X_val), y_val)
            except (OptnetError, FloatingPointError) as exc:
                fit = str(exc)
        if isinstance(fit, str):
            # flag the cell, keep scanning the grid
            cells.append(GridCell(cfg.penalty, cfg.l1_ratio, float("inf"), 0,
                                  False, fit))
            models.append(None)
            continue
        cells.append(GridCell(cfg.penalty, cfg.l1_ratio, val_mae,
                              fit.n_selected, fit.converged))
        models.append(fit)

    if all(m is None for m in models):
        raise InvalidConfigError("every grid cell failed to fit")
    best_i = min(range(len(cells)), key=lambda i: (
        cells[i].validation_mae, cells[i].n_selected,
        cells[i].penalty, cells[i].l1_ratio))
    best = models[best_i]
    test_mae = None
    if compute_test_mae:
        X_test, y_test = partitioned.test_xy()
        test_mae = mae(predict(best, X_test), y_test)
    return GridSearchResult(cells, cells[best_i], best,
                            cells[best_i].validation_mae, test_mae)
