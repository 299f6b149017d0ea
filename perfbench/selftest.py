"""Self-test of the benchmark itself, at tiny budgets (about a minute).

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json:
  1. it completes with --trace 0 and --trace 1, passes its output checks,
     and emits every metric BENCHMARK.json names, each with its unit;
  2. a deliberately corrupted result (a flipped mask bit, a grid cell
     that is not the minimum, an input outside its bounds) fails the
     output check, so the run reports correct: false and exits 1.
Then it checks that the benchmark refuses to run, with a non-zero exit
and no result line, in a directory holding only BENCHMARK.json and the
benchmark's own files. Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bench(cwd: Path, workload: str, trace: int, *flags: str):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace),
         "--size", "tiny", *flags],
        cwd=str(cwd), capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for w in spec["workloads"]:
        name = w["name"]
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, result = _bench(ROOT, name, trace)
            expect(code == 0 and result is not None and result["correct"]
                   and result["failed"] == 0,
                   f"{name} trace {trace}: completes and passes its checks")
            got = (result or {}).get("metrics", {})
            wrong = [m["name"] for m in spec[group]
                     if got.get(m["name"], {}).get("unit") != m["unit"]
                     or not isinstance(got[m["name"]].get("value"),
                                       (int, float))]
            expect(not wrong, f"{name} trace {trace}: every {group} metric "
                              f"emitted with its unit (missing {wrong})")
        code, result = _bench(ROOT, name, 0, "--corrupt")
        expect(code == 1 and result is not None and not result["correct"]
               and result["failed"] == result["attempted"],
               f"{name}: a corrupted result trips the output check")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result = _bench(bare, spec["workloads"][0]["name"], 0)
    expect(code != 0 and result is None,
           "refuses to run without the optnet sources")
    shutil.rmtree(bare)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
