"""optnet benchmark: time to solution, search throughput and per-layer spans.

    python3 perfbench/run.py --workload fs-ols --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Run from the root of a checkout. Each workload runs in fresh processes
(see child.py) with BLAS and OpenMP pinned to one thread: a few
set-up-only processes, whose median set-up time is setup_s, then one
process that repeats the timed study for --seconds and checks every
result. run_s and evals_per_s are corrected for the host's speed while
the study ran (see hostspeed.py), and setup_s for the median host speed
of the timed runs; the raw times are printed beside them. With --trace 0 the last stdout line carries the end-to-end
metrics of BENCHMARK.json; with --trace 1 it carries the per-layer
metrics, measured by wrapping optnet's public functions and node methods
(see tracing.py). Results and spans are also written to .perfbench/.

Exit status: 0 when every output, determinism and twin check passed,
1 when one failed, 2 when the checkout is incomplete.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 5  # set-up-only processes, besides the measuring one
DEADLINE_S = 170.0  # one invocation per workload must end within 180 s
E2E_NOTES = {
    "setup_s": "median of {n_setups} set-ups, process start to first "
               "timed call, host-speed corrected",
    "run_s": "median of {n_runs} timed runs, host-speed corrected",
    "evals_per_s": "median of {n_runs} timed runs, host-speed corrected",
    "peak_rss_mb": "peak resident memory of the measuring process",
    "test_mae": "held-out MAE of the returned model / noise sigma",
}


def _parse(argv, workload_names):
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=list(workload_names) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny budgets are for selftest.py only")
    ap.add_argument("--corrupt", action="store_true",
                    help="damage every result before its check "
                         "(selftest.py uses this to prove the checks bite)")
    return ap.parse_args(argv)


def _git_revision() -> str:
    """HEAD's commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _run_child(args, name: str, flags: list, timeout: float) -> dict:
    """Start child.py, wait for it, return its last-line JSON."""
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, *flags]
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)],
                            stdout=subprocess.PIPE, env=_child_env(),
                            cwd=str(ROOT), text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{name} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{name} process exited with status "
                           f"{proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def _median(values) -> float:
    return float(statistics.median(values))


def run_workload(args, name: str, started: float) -> dict:
    """Measure one workload; returns metrics, counts and problems."""
    load_before = os.getloadavg()
    setups = []
    problems = []
    main = None
    try:
        for _ in range(SETUP_PROBES):
            probe = _run_child(args, name, ["--setup-only"],
                               DEADLINE_S - (time.monotonic() - started))
            setups.append(probe["setup_s"])
        flags = ["--trace-out", str(OUT_DIR / f"{name}-seed{args.seed}"
                                    f"-spans.json.gz")] if args.trace else []
        if args.corrupt:
            flags.append("--corrupt")
        main = _run_child(args, name, flags,
                          DEADLINE_S - (time.monotonic() - started))
    except (RuntimeError, ValueError, IndexError) as exc:
        problems.append(str(exc))
    load_after = os.getloadavg()
    if main is None:
        return {"workload": name, "seed": args.seed,
                "problems": problems, "attempted": 1,
                "failed": 1, "metrics": {}, "load": [load_before,
                                                     load_after]}

    setups.append(main["setup_s"])
    reps = main["reps"]
    timed = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    for i, rep in enumerate(reps):
        problems += [f"run {i}: {p}" for p in rep["problems"]]
    if main.get("twin_equal") is False:
        problems.append("network result differs from the plain-loop twin")
    attempted = sum(r["ops"] for r in reps)
    failed = attempted if problems else sum(r["failed"] for r in reps)

    if args.trace:
        metrics = dict(main["layers"])
        metrics["trace.overhead_s"] = _median(
            r["wall_s"] for r in traced) - _median(
            r.get("net_s", r["wall_s"]) for r in timed)
    else:
        maes = [r["test_mae"] for r in timed]
        # the set-ups ran just before the timed runs, and a few kernel
        # samples taken at their end track the host worse than the
        # hundreds taken during the timed runs (NOTES.md)
        slowdown = _median(r["slowdown"] for r in timed
                           if "slowdown" in r) \
            if any("slowdown" in r for r in timed) else 1.0
        metrics = {
            "setup_s": _median(setups) / slowdown,
            "run_s": _median(r["run_s"] for r in timed),
            "evals_per_s": _median(r["ops"] / r["run_s"] for r in timed),
            "peak_rss_mb": main["peak_rss_mb"],
            "test_mae": _median(maes) if None not in maes else float("nan"),
        }
    return {"workload": name, "seed": args.seed, "problems": problems,
            "attempted": attempted, "failed": failed, "metrics": metrics,
            "n_setups": len(setups), "setups_s": setups,
            "n_runs": len(timed), "n_traced": len(traced),
            "runs": reps, "twin_equal": main.get("twin_equal"),
            "tails": main.get("tails", {}), "env": main.get("env", {}),
            "run_s_tail": main.get("run_s_tail"),
            "load": [load_before, load_after]}


def _report(res, units: dict, trace: bool) -> None:
    name = res["workload"]
    env = res.get("env", {})
    print(f"== {name}  seed {res.get('seed')}  trace {int(trace)}")
    if env:
        print(f"   nproc {env['nproc']}, Python {env['python']}, numpy "
              f"{env['numpy']}, BLAS {env['blas']}, rev {env['git']}")
    (b1, b5, _), (a1, a5, _) = res["load"]
    print(f"   load average 1/5 min: before {b1:.2f}/{b5:.2f}, "
          f"after {a1:.2f}/{a5:.2f}")
    for metric, value in res["metrics"].items():
        note = E2E_NOTES.get(metric, "").format(**res) if not trace else ""
        tail = res.get("tails", {}).get(metric.rsplit(".", 1)[0])
        if trace and metric.endswith(".tail") and tail:
            note = f"p{tail:g}"
        print(f"   {metric:34s} {value:14.6g} {units.get(metric, ''):6s}"
              f" {note}")
    if not trace and res.get("n_runs"):
        timed = [r for r in res["runs"] if not r["traced"]]
        slow = [r["slowdown"] for r in timed if "slowdown" in r]
        print(f"   raw set-up median {_median(res['setups_s']):.4f} s, "
              f"raw wall time median "
              f"{_median(r['wall_s'] for r in timed):.4f} s"
              + (f", host slowdown median {_median(slow):.3f}" if slow
                 else ""))
        tail = res["run_s_tail"]
        print("   run_s tail: " + (f"p{tail[0]:g} = {tail[1]:.4f} s" if tail
                                   else f"none ({res['n_runs']} runs; a "
                                   f"tail needs 10 runs beyond it)"))
    rate = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"   fail_rate {rate:.6g} ({res['failed']} of "
          f"{res['attempted']} operations failed)")
    notes = res["runs"][0]["notes"] if res.get("runs") else {}
    if notes:
        print("   " + ", ".join(f"{k} {v:.4g}" if isinstance(v, float)
                                else f"{k} {v}" for k, v in notes.items()))
    if res.get("twin_equal") is not None:
        print(f"   plain-loop twin equal: {res['twin_equal']}")
    for p in res["problems"]:
        print(f"   CHECK FAILED: {p}")
    if not res["problems"]:
        print(f"   checks passed: outputs, determinism across "
              f"{len(res.get('runs', []))} runs")


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "optnet" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print(f"perfbench: {ROOT} is not an optnet checkout (needs "
              f"src/optnet and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    args = _parse(argv, names)
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    OUT_DIR.mkdir(exist_ok=True)

    results = []
    for name in names if args.workload == "all" else [args.workload]:
        res = run_workload(args, name, time.monotonic())
        if res.get("env"):
            res["env"]["git"] = _git_revision()
        missing = [m for m in units if m not in res["metrics"]]
        if missing and res["metrics"]:
            res["problems"].append(f"metrics not emitted: {missing}")
        _report(res, units, bool(args.trace))
        (OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
         ).write_text(json.dumps(res, indent=1))
        results.append(res)

    def entry(metric, value):
        return {"value": value, "unit": units.get(metric, "")}

    if len(results) == 1:
        metrics = {m: entry(m, v) for m, v in results[0]["metrics"].items()
                   if m in units}
    else:
        metrics = {f"{r['workload']}/{m}": entry(m, v)
                   for r in results for m, v in r["metrics"].items()
                   if m in units}
    correct = not any(r["problems"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, sum(r["attempted"] for r in results)),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
