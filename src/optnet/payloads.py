"""Message payload types exchanged between network nodes.

Ports are typed by a small closed set of payload kinds; the engine
checks every emitted payload against its port's kind at runtime so a
miswired network fails loudly at the offending node instead of deep
inside a downstream handler.

Each checked kind has a batch kind, named "<kind>-batch": a non-empty
tuple of payloads of that kind, each element checked. The mask-search
loop and the nested forest search send one batch per search step on
every edge, so a step costs one message per edge, not one per genome.

One kind is unchecked: "run-result" accepts any object. A search node
sends its stream's return value through it (the feature-selection
node's RunResult, the inner forest search's budget flag), and the
analysis pipeline its model pools, subsets and ranked report, so those
ports are typed in name only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import FeatureMask, PartitionedDataset
from .errors import ShapeMismatchError


@dataclass(frozen=True, eq=False)
class RegressionProblem:
    """A concrete fit request: projected train and validation splits.

    mask, when set, is the selection the features were projected with.

    source is set only on an orchestrator's search-time problems, made
    by RegressionProblem.projected, and is the orchestrator's whole
    problem (RegressionProblem.whole). Such a problem holds the mask and
    source's target arrays, and gathers train_features,
    validation_features and feature_names from source on their first
    read, so a model node that answers from a memo reads none of them;
    an OLS node keeps a Gram matrix and a memo per source. Every other
    problem, built by hand or by dataclasses.replace (which leaves
    source unset), is fitted from its own arrays.
    """

    train_features: np.ndarray
    train_target: np.ndarray
    validation_features: np.ndarray
    validation_target: np.ndarray
    feature_names: tuple[str, ...]
    mask: FeatureMask | None = None
    source: RegressionProblem | None = field(default=None, init=False,
                                             repr=False)

    @classmethod
    def whole(cls, partitioned: PartitionedDataset) -> RegressionProblem:
        """partitioned's train and validation rows on every column."""
        return cls(*partitioned.train_xy(), *partitioned.validation_xy(),
                   partitioned.base.feature_names)

    @classmethod
    def projected(cls, source: RegressionProblem,
                  mask: FeatureMask) -> RegressionProblem:
        """source's columns selected by mask, gathered on first read."""
        problem = object.__new__(cls)
        problem.__dict__.update(
            train_target=source.train_target,
            validation_target=source.validation_target,
            mask=mask, source=source)
        return problem

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks: the columns
        # and names of a projected problem before their first read
        source = self.__dict__.get("source")
        if source is None or name not in (
                "train_features", "validation_features", "feature_names"):
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        keep = np.flatnonzero(self.mask.bits)
        self.__dict__.update(
            train_features=source.train_features[:, keep],
            validation_features=source.validation_features[:, keep],
            feature_names=tuple(source.feature_names[i] for i in keep))
        return self.__dict__[name]


@dataclass
class ModelWithQuality:
    """A fitted model bundled with its error measurements.

    train_mae is None on a search-time fit (of a problem whose source is
    set), whose fitness reads only validation_mae; test_mae is None until
    networks.with_test_mae scores a search's result. flags carries
    non-fatal conditions such as "budget-exhausted" from an inner search
    that was cut short.
    """

    model: object
    train_mae: float | None
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


def _is_scalar(p) -> bool:
    return isinstance(p, (int, float, np.integer, np.floating)) \
        and not isinstance(p, bool)


def _batch_of(check):
    """The check of a batch kind: a non-empty tuple whose every element
    passes check."""
    return lambda p: isinstance(p, tuple) and len(p) > 0 \
        and all(map(check, p))


_CHECKED_KINDS = {
    "feature-mask": lambda p: isinstance(p, FeatureMask),
    "regression-problem": lambda p: isinstance(p, RegressionProblem),
    "model-with-quality": lambda p: isinstance(p, ModelWithQuality),
    "parameter-vector": lambda p: isinstance(p, ParameterVector),
    "scalar-quality": _is_scalar,
}

#: The closed set of payload kinds, each with its runtime check: every
#: checked kind, its batch kind "<kind>-batch", and "run-result".
PAYLOAD_KINDS: dict[str, object] = {
    **_CHECKED_KINDS,
    **{f"{kind}-batch": _batch_of(check)
       for kind, check in _CHECKED_KINDS.items()},
    "run-result": lambda p: True,
}
