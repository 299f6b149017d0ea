"""The package's lower layers import only the layers below them, and
only the data module reads the rows of a partitioned dataset directly.

Payloads and the engine are generic: they carry problems and models
without knowing how any model is fitted, so they must not import a
model module. Each module's module-level relative imports are read with
ast, without importing anything.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "optnet"

#: module -> the sibling modules it may import at module level
ALLOWED = {
    "_rng": set(),
    "errors": set(),
    "data": {"_rng", "errors"},
    "linear": {"data", "errors"},
    "forest": {"_rng", "data", "errors"},
    "osga": {"_rng", "errors"},
    "payloads": {"data", "errors"},
    "engine": {"_rng", "errors", "payloads"},
}


def relative_imports(path: Path) -> set[str]:
    """The sibling modules path's module-level statements import."""
    found = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import x, y
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_lower_layers(module):
    extra = relative_imports(SRC / f"{module}.py") - ALLOWED[module]
    assert not extra, f"{module} imports {sorted(extra)}"


def test_relative_imports_reads_both_forms(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from .data import FeatureMask\n"
                    "from . import linear, forest\n"
                    "from numpy import ndarray\n"
                    "def f():\n    from .osga import drive\n")
    assert relative_imports(path) == {"data", "linear", "forest"}


def base_row_reads(path: Path) -> list[int]:
    """The lines of path that read .base.features or .base.target: rows
    of a partitioned dataset's base that bypass its train, validation
    and test accessors."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and node.attr in ("features", "target")
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "base")


def test_only_data_reads_rows_of_a_partitioned_base():
    bypasses = {path.name: base_row_reads(path)
                for path in sorted(SRC.glob("*.py")) if path.name != "data.py"}
    assert not {name: lines for name, lines in bypasses.items() if lines}
    assert base_row_reads(SRC / "data.py")  # the accessors themselves


def test_base_row_reads_finds_either_column_kind(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("a = p.base.features[:, 0]\n"
                    "b = p.base.feature_names\n"
                    "c = q.base.target\n"
                    "d = p.features\n")
    assert base_row_reads(path) == [1, 3]
