"""README's network-model section names every wiring rule the engine
enforces, so a new rule cannot land undocumented. The rules are read
from engine.py with ast, without importing anything."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def topology_error_codes(source: str) -> set[str]:
    """The code of every TopologyError(...) call in source. A code that
    is not a string literal fails, since no guard could read it."""
    codes = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name != "TopologyError":
            continue
        code = node.args[0] if node.args else next(
            (k.value for k in node.keywords if k.arg == "code"), None)
        if not (isinstance(code, ast.Constant)
                and isinstance(code.value, str)):
            raise AssertionError(
                f"line {node.lineno}: a TopologyError code must be a "
                f"string literal")
        codes.add(code.value)
    return codes


def readme_section(title: str) -> str:
    """The text of README's level-2 section title, up to the next one."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    _, found, rest = text.partition(f"\n## {title}\n")
    assert found, f"README has no section {title!r}"
    return rest.split("\n## ", 1)[0]


def test_readme_network_model_names_every_wiring_rule():
    codes = topology_error_codes(
        (ROOT / "src" / "optnet" / "engine.py").read_text(encoding="utf-8"))
    assert {"MissingEndpoint", "KindMismatch", "DuplicateRoute"} <= codes
    section = readme_section("The network model")
    missing = sorted(c for c in codes if f"`{c}`" not in section)
    assert not missing, f"README's network model does not name {missing}"


def test_topology_error_codes_reads_every_call_form():
    source = ('TopologyError("A", "x")\n'
              'engine.TopologyError(code="B", detail="y")\n'
              'Other("C", "z")\n')
    assert topology_error_codes(source) == {"A", "B"}
    with pytest.raises(AssertionError, match="^line 2: "):
        topology_error_codes('TopologyError("A", "x")\n'
                             'TopologyError(code, "y")\n')
