"""The benchmark harness's tracing hooks still fit the library.

perfbench/tracing.py wraps optnet functions and node methods by name;
a library refactor that renames or moves one of them would break
`perfbench/run.py --trace 1` without failing anything else here.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("hook", ["Tracer", "FitnessWatch"])
def test_every_patched_attribute_exists_and_is_restored(monkeypatch, hook):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert Path(tracing.__file__).parent == PERFBENCH
    seen = []
    patched = tracing.patched

    def recording(replacements):
        seen.extend(replacements)
        return patched(replacements)

    monkeypatch.setattr(tracing, "patched", recording)
    installed = getattr(tracing, hook)().installed()
    originals = [owner.__dict__[attr] for owner, attr, _ in seen]
    assert seen
    with installed:
        for owner, attr, value in seen:
            assert owner.__dict__[attr] is value
    for (owner, attr, _), original in zip(seen, originals):
        assert owner.__dict__[attr] is original


def test_every_workload_runs_and_checks_clean_at_tiny_size(monkeypatch):
    """Each benchmark workload, at its tiny size, runs in process and its
    own output check finds no problem; so a library change that breaks
    the harness fails here and not only in a benchmark run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    assert Path(workloads.__file__).parent == PERFBENCH
    assert "tiny" in workloads.SIZES
    for name, workload in workloads.WORKLOADS.items():
        wl = workload(0, "tiny")
        wl.warm()
        outcome = wl.check(wl.run())
        assert outcome.problems == [], name
        assert outcome.flagged == 0, name
        assert outcome.ops > 0, name


_MASK_SEARCH_SPANS = {
    "engine.run_network", "linear.fit_ols", "linear.predict",
    "networks.fit_problem", "networks.model", "networks.orchestrator",
    "networks.project", "networks.selector"}

#: span names each workload records at its tiny size; a run may record
#: more of them, never fewer
SIGHTED_SPANS = {
    "fs-ols": _MASK_SEARCH_SPANS,
    "forest-swap": _MASK_SEARCH_SPANS | {"forest.fit", "forest.predict"},
    "enet-grid": {"linear.predict"},
    "input-search": {
        "analysis.build_model_pool", "analysis.optimize_inputs",
        "analysis.pool_node", "analysis.search_node",
        "analysis.selection_node", "engine.run_network", "forest.fit",
        "forest.predict", "linear.fit_ols", "linear.predict",
        "networks.fit_problem"},
}


@pytest.mark.parametrize("name", sorted(SIGHTED_SPANS))
def test_every_workload_stays_in_the_tracers_sight(monkeypatch, name):
    """A library refactor that moves a wrapped call out of the tracer's
    reach would zero per-layer metrics without failing a run; here it
    fails as a missing span name."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    wl = workloads.WORKLOADS[name](0, "tiny")
    wl.warm()
    tracer = tracing.Tracer()
    with tracer.installed():
        wl.run()
    seen = {span[1] for span in tracer.spans}
    assert SIGHTED_SPANS[name] <= seen, sorted(SIGHTED_SPANS[name] - seen)
