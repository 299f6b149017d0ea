"""One workload in a fresh process: set up, time the study, check it.

run.py starts this script with PYTHONPATH pointing at the checkout's
src/ and BLAS pinned to one thread. It prints one JSON object as the
last line of its standard output.

Set-up (imports, data generation and partitioning, the workload's
fixed inputs and one warm-up call at a tiny budget) ends when the first
timed call starts; setup_s is measured from the moment the parent
started this process, on the shared monotonic clock.

Timed calls repeat while the next is expected to end within --seconds
(at least one call). Untraced calls run under hostspeed.SpeedSampler,
and their run_s is the host-speed corrected time; the raw wall time is
kept beside it. With --trace 1 the first half of that time runs untraced
and the second half traced (wall time only, no sampler), so the tracing
overhead is the traced wall time minus the untraced net wall time.
"""

from __future__ import annotations

import argparse
import gzip
import itertools
import json
import os
import platform
import resource
import sys
import time
from dataclasses import replace

import numpy as np
from optnet.data import FeatureMask

from hostspeed import SpeedSampler
from tracing import FitnessWatch, Tracer, tail_percentile
from workloads import SIZES, WORKLOADS


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=SIZES, default="full")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() when the parent started us")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", help="gzip JSON file for the spans")
    ap.add_argument("--corrupt", action="store_true",
                    help="damage each result before checking it (self-test)")
    return ap.parse_args(argv)


class Session:
    """The timed calls of one process and what their checks found."""

    def __init__(self, workload, watch: FitnessWatch, corrupt: bool):
        self.workload = workload
        self.watch = watch
        self.corrupt = corrupt
        self.reps: list[dict] = []
        self.first_result = None
        self.first_fingerprint = None
        self.search_stats: dict = {}
        self.sampler = SpeedSampler()

    def run_once(self, tracer: Tracer | None = None) -> None:
        wl = self.workload
        started = time.perf_counter()
        try:
            if tracer is None:
                result, timing = self.sampler.time_call(wl.run)
            else:
                tracer.run_id = len(self.reps)
                with tracer.installed():
                    result = tracer.call(wl.root_span, wl.run)
                timing = {"wall_s": time.perf_counter() - started}
        except Exception as exc:  # a failed study is a measured outcome
            self._record({"wall_s": time.perf_counter() - started}, tracer,
                         None, [f"timed call raised {exc!r}"])
            return
        if self.corrupt:
            result = corrupted(wl.name, result)
        try:
            outcome = wl.check(result)
        except Exception as exc:
            self._record(timing, tracer, None,
                         [f"output check raised {exc!r}"])
            return
        if self.first_fingerprint is None:
            self.first_fingerprint = outcome.fingerprint
            self.first_result = result
        elif outcome.fingerprint != self.first_fingerprint:
            outcome.problems.append("result differs from the first run "
                                    "with the same seed")
        searches = result if isinstance(result, list) else [result]
        if all(hasattr(r, "pressure_history") for r in searches):
            self.search_stats[len(self.reps)] = (
                sum(r.evaluations for r in searches),
                sum(r.generations for r in searches),
                [p for r in searches for p in r.pressure_history])
        self._record(timing, tracer, outcome, outcome.problems)

    def _record(self, timing, tracer, outcome, problems) -> None:
        nonfinite = self.watch.take_nonfinite()
        if outcome is None:
            ops = self.workload.expected_ops
            failed, test_mae, notes = ops, None, {}
        else:
            ops, notes, test_mae = outcome.ops, outcome.notes, \
                outcome.test_mae
            # a run that fails its output check fails all its operations
            failed = ops if problems \
                else min(ops, outcome.flagged + nonfinite)
        self.reps.append({
            # host-speed corrected where the sampler ran, wall time where not
            "run_s": timing.get("corrected_s", timing["wall_s"]),
            **timing, "ops": ops, "failed": failed,
            "nonfinite": nonfinite, "problems": problems,
            "test_mae": test_mae, "notes": notes,
            "traced": tracer is not None})

    def run_for(self, seconds: float, tracer: Tracer | None = None) -> None:
        """Repeat the timed call while the next one is expected to end
        within `seconds`; always at least once."""
        start = time.perf_counter()
        for done in itertools.count(1):
            self.run_once(tracer)
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / done > seconds:
                break


def corrupted(name: str, result):
    """A deliberately wrong copy of a result, for the self-test."""
    if name in ("fs-ols", "forest-swap"):
        searches = result if isinstance(result, list) else [result]
        bits = searches[0].best_mask.bits.copy()
        bits[0] = not bits[0]
        flipped = replace(searches[0], best_mask=FeatureMask(bits))
        return [flipped] + searches[1:] if isinstance(result, list) \
            else flipped
    if name == "enet-grid":
        first = result[0]
        worst = max(first.cells, key=lambda c: c.validation_mae)
        return [replace(first, best_cell=worst)] + result[1:]
    combo, found = result.ranked[0]
    inputs = dict(found.inputs)
    key = next(iter(inputs))
    inputs[key] = float(np.asarray(result.task.bounds)[0, 1]) + 1.0
    ranked = [(combo, replace(found, inputs=inputs))] + result.ranked[1:]
    return replace(result, ranked=ranked)


def main(argv=None) -> int:
    args = _parse(argv)
    watch = FitnessWatch()
    wl = WORKLOADS[args.workload](args.seed, args.size)
    with watch.installed():
        wl.warm()
    watch.take_nonfinite()
    setup_s = time.monotonic() - args.spawned_at
    out = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    session = Session(wl, watch, args.corrupt)
    tracer = Tracer() if args.trace else None
    with watch.installed():
        session.run_for(args.seconds / 2 if tracer else args.seconds)
        out["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            session.run_for(args.seconds / 2, tracer)
    if hasattr(wl, "twin") and session.first_result is not None:
        out["twin_equal"] = bool(wl.twin(session.first_result))
    out["reps"] = session.reps
    out["run_s_tail"] = tail_percentile(
        [r["run_s"] for r in session.reps if not r["traced"]])
    out["data_ms"] = {"generate": wl.data_timing.generate_s * 1e3,
                      "partition": wl.data_timing.partition_s * 1e3}
    if tracer is not None:
        runs = [i for i, r in enumerate(session.reps) if r["traced"]]
        layers, tails = tracer.layer_metrics(
            runs, session.search_stats,
            {i: session.reps[i]["nonfinite"] for i in runs})
        layers["data.generate_ms"] = out["data_ms"]["generate"]
        layers["data.partition_ms"] = out["data_ms"]["partition"]
        out["layers"] = layers
        out["tails"] = tails
        if args.trace_out:
            with gzip.open(args.trace_out, "wt") as fh:
                json.dump(tracer.dump(), fh)
    out["env"] = _environment()
    print(json.dumps(out))
    return 0


def _environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas}


if __name__ == "__main__":
    sys.exit(main())
