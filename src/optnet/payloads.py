"""Message payload types exchanged between network nodes.

Ports are typed by a small closed set of payload kinds; the engine
checks every emitted payload against its port's kind at runtime so a
miswired network fails loudly at the offending node instead of deep
inside a downstream handler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FeatureMask
from .errors import ShapeMismatchError


@dataclass(frozen=True, eq=False)
class RegressionProblem:
    """A concrete fit request: projected train and validation splits.

    mask, when set, is the selection the features were projected with.
    Model nodes may reuse a fit for a later problem with equal mask bits
    and the very same (identical, not merely equal) target arrays, so
    such problems must carry the same features; an orchestrator's
    projections share its target arrays and keep this. Problems built by
    hand without a mask are always fitted afresh.
    """

    train_features: np.ndarray
    train_target: np.ndarray
    validation_features: np.ndarray
    validation_target: np.ndarray
    feature_names: tuple[str, ...]
    mask: FeatureMask | None = None


@dataclass
class ModelWithQuality:
    """A fitted model bundled with its error measurements.

    test_mae is None while a search is still running; it is only filled
    in by a final scoring pass. flags carries non-fatal conditions such
    as "budget-exhausted" from an inner search that was cut short.
    """

    model: object
    train_mae: float
    validation_mae: float
    test_mae: float | None = None
    n_features: int = 0
    flags: tuple[str, ...] = ()
    label: str = ""


@dataclass(frozen=True, eq=False)
class ParameterVector:
    """A point in a named parameter space."""

    values: np.ndarray
    names: tuple[str, ...]

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if v.ndim != 1:
            raise ShapeMismatchError("parameter values must be 1-d")
        if len(self.names) != v.shape[0]:
            raise ShapeMismatchError("parameter names length mismatch")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "names", tuple(str(n) for n in self.names))

    def as_dict(self) -> dict[str, float]:
        return {n: float(v) for n, v in zip(self.names, self.values)}


def _is_scalar(p) -> bool:
    return isinstance(p, (int, float, np.integer, np.floating)) \
        and not isinstance(p, bool)


#: The closed set of payload kinds, each with its runtime check.
PAYLOAD_KINDS: dict[str, object] = {
    "feature-mask": lambda p: isinstance(p, FeatureMask),
    "regression-problem": lambda p: isinstance(p, RegressionProblem),
    "model-with-quality": lambda p: isinstance(p, ModelWithQuality),
    "parameter-vector": lambda p: isinstance(p, ParameterVector),
    "scalar-quality": _is_scalar,
    "run-result": lambda p: True,
}
