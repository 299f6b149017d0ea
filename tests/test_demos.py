"""Smoke test: every demo runs as a script, exits 0 and prints nothing
to stderr, and every demo's imports resolve.

05_forest_swap (about 14 s on a shared 2-core machine) and
06_nested_tuning (about 8 s) are the slowest; since forests grow level
by level, all trees at once, they are fast enough for the full runs.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUICK_DEMOS = ["01_network_basics.py", "02_benchmark_data.py",
               "03_linear_baselines.py", "04_feature_selection.py",
               "05_forest_swap.py", "06_nested_tuning.py",
               "07_optimization_analysis.py"]


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_runs_cleanly(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


ALL_DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", ALL_DEMOS)
def test_demo_imports_resolve(demo, tmp_path):
    """Run only the demo's import statements, wherever they sit."""
    tree = ast.parse((ROOT / "demos" / demo).read_text())
    imports = [ast.unparse(node) for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", "\n".join(imports)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
