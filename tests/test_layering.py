"""The package's lower layers import only the layers below them, it
imports nothing outside the standard library and its declared
dependencies, and only the data module reads the rows of a partitioned
dataset directly.

Payloads and the engine are generic: they carry problems and models
without knowing how any model is fitted, so they must not import a
model module. Each module's imports are read with ast, without
importing anything.
"""

import ast
import re
import sys
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


#: The top-level modules the package may import besides the standard
#: library: the dependencies pyproject.toml declares.
DEPENDENCIES = {"numpy", "yaml"}


def absolute_imports(path: Path) -> set[str]:
    """The top-level modules path imports by absolute name, at any
    depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_package_imports_only_the_standard_library_and_its_dependencies():
    stray = {path.name: absolute_imports(path) - DEPENDENCIES
             - sys.stdlib_module_names for path in sorted(SRC.glob("*.py"))}
    assert not {name: sorted(mods) for name, mods in stray.items() if mods}


def test_absolute_imports_reads_every_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import numpy as np, os.path\n"
                    "from yaml import safe_load\n"
                    "from . import linear\n"
                    "def f():\n    import scipy.linalg\n")
    assert absolute_imports(path) == {"numpy", "os", "yaml", "scipy"}


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



def fit_problem_outside_model_nodes(paths) -> list[str]:
    """The classes of paths' modules that define fit_problem but do not
    derive from ModelNode through classes those modules define: a second
    kind of model node, which the mask search would not wire."""
    bases, fitting = {}, []
    for path in paths:
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            bases[cls.name] = [getattr(b, "attr", getattr(b, "id", None))
                               for b in cls.bases]
            defined = [item.name for item in cls.body
                       if isinstance(item, ast.FunctionDef)]
            defined += [t.id for item in cls.body
                        if isinstance(item, ast.Assign)
                        for t in item.targets if isinstance(t, ast.Name)]
            if "fit_problem" in defined:
                fitting.append(cls.name)

    def model_node(name) -> bool:
        return name == "ModelNode" or any(map(model_node, bases.get(name, ())))

    return [name for name in fitting if not model_node(name)]


def test_every_fit_problem_is_a_model_node():
    assert fit_problem_outside_model_nodes(sorted(SRC.glob("*.py"))) == []


def test_fit_problem_outside_model_nodes_follows_the_bases(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("class A(Node):\n    def fit_problem(self): pass\n"
                    "class B(networks.ModelNode):\n"
                    "    def fit_problem(self): pass\n"
                    "class C(B):\n    fit_problem = A.fit_problem\n"
                    "class D(A):\n    fit_problem = B.fit_problem\n"
                    "class E(Node):\n    def handle(self): pass\n")
    assert fit_problem_outside_model_nodes([path]) == ["A", "D"]


def advance_callers(paths) -> list[str]:
    """module.Class for each call of osga's advance in paths' modules,
    under whatever name it was imported, with module.<module> for a call
    outside any class: each place that steps an evaluation stream."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {alias.asname or alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 for alias in node.names if alias.name == "advance"}

        def visit(node, owner):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Call) and (
                        getattr(child.func, "id", None) in names
                        or getattr(child.func, "attr", None) == "advance"):
                    found.append(f"{path.stem}.{owner}")
                visit(child, child.name if isinstance(child, ast.ClassDef)
                      else owner)

        visit(tree, "<module>")
    return found


def test_only_the_search_node_steps_a_stream():
    """Outside osga, SearchNode alone steps an evaluation stream, so a
    new search node subclasses it instead of stepping its own."""
    paths = [path for path in sorted(SRC.glob("*.py"))
             if path.name != "osga.py"]
    assert advance_callers(paths) == ["networks.SearchNode"]


def test_advance_callers_finds_every_spelling(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from .osga import advance as step, drive\n"
                    "from . import osga\n"
                    "class A(Node):\n"
                    "    def handle(self):\n"
                    "        step(self.s, None)\n"
                    "class B(A):\n"
                    "    def f(self):\n"
                    "        return [osga.advance(s) for s in self.s]\n"
                    "def g(s):\n    return drive(s, len)\n"
                    "osga.advance(s)\n")
    assert advance_callers([path]) == ["m.A", "m.B", "m.<module>"]


ROOT = SRC.parents[1]


def uses(text: str, name: str) -> bool:
    """Whether text names name outside a def or class line defining it."""
    name = re.escape(name)
    defining = re.compile(rf"^\s*(?:def|class)\s+{name}\b.*$", re.MULTILINE)
    return re.search(rf"\b{name}\b", defining.sub("", text)) is not None


def outside_the_tests() -> list[Path]:
    """The src/optnet modules other than __init__.py, the demos, the
    benchmark harness and README.md."""
    paths = [path for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"]
    paths += sorted((ROOT / "demos").glob("*.py"))
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    paths.append(ROOT / "README.md")
    return paths


def export_users(name: str) -> list[str]:
    """The files outside the tests that use name."""
    return [str(path.relative_to(ROOT)) for path in outside_the_tests()
            if uses(path.read_text(encoding="utf-8"), name)]


def test_every_export_has_a_user_outside_the_tests():
    """A name the package exports is library, demo or documented API, not
    an oracle only the tests call."""
    import optnet

    assert [name for name in optnet.__all__ if not export_users(name)] == []


def public_methods(path: Path) -> list[str]:
    """Class.name for each public method, property or classmethod that a
    class of path's module defines."""
    return [f"{cls.name}.{item.name}"
            for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(cls, ast.ClassDef)
            for item in cls.body
            if isinstance(item, ast.FunctionDef)
            and not item.name.startswith("_")]


def test_every_public_method_has_a_user_outside_the_tests():
    """A public method is called, or read as a property, as .name by the
    library, a demo, the benchmark harness or README, not only by the
    tests."""
    text = "\n".join(path.read_text(encoding="utf-8")
                     for path in outside_the_tests())
    methods = [m for path in sorted(SRC.glob("*.py"))
               for m in public_methods(path)]
    assert [m for m in methods
            if not re.search(rf"\.{m.split('.')[1]}\b", text)] == []


def test_public_methods_lists_each_kind_of_method(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("class A:\n    x = 1\n    def f(self): pass\n"
                    "    @property\n    def p(self): pass\n"
                    "    @classmethod\n    def c(cls): pass\n"
                    "    def _private(self): pass\n"
                    "def g(): pass\n")
    assert public_methods(path) == ["A.f", "A.p", "A.c"]


def test_uses_ignores_the_line_that_defines_the_name():
    text = "def fit(x):\n    return x\n\nclass Model:\n    pass\n"
    assert not uses(text, "fit") and not uses(text, "Model")
    assert uses(text + "model = Model()\n", "Model")
    assert not uses("def refit():\n    fitted = 1\n", "fit")


def _int_value(node):
    """node's value where it is an int literal or a power or left shift
    of two of them (2**32, 1 << 32), else None."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    if isinstance(node, ast.BinOp) and isinstance(node.op,
                                                  (ast.Pow, ast.LShift)):
        a, b = _int_value(node.left), _int_value(node.right)
        if a is not None and b is not None:
            return a ** b if isinstance(node.op, ast.Pow) else a << b
    return None


def raw_word_decodes(path: Path) -> list[int]:
    """The lines of path's code that decode raw 64-bit words by hand:
    Lemire's rejection threshold (2**32 - n) % n, and a right shift by
    11, the top 53 bits of a uniform."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod) \
                and isinstance(node.left, ast.BinOp) \
                and isinstance(node.left.op, ast.Sub) \
                and _int_value(node.left.left) == 2**32:
            lines.append(node.lineno)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, ast.RShift) \
                and _int_value(getattr(node, "right", None)
                               or node.value) == 11:
            lines.append(node.lineno)
    return sorted(lines)


def test_raw_philox_words_are_decoded_only_in_the_rng_module():
    """osga's child draws and forest's tree draws decode raw words with
    _rng's lemire_halves and uniforms, one copy of numpy's arithmetic."""
    by_hand = {path.name: raw_word_decodes(path)
               for path in sorted(SRC.glob("*.py")) if path.name != "_rng.py"}
    assert not {name: lines for name, lines in by_hand.items() if lines}
    assert len(raw_word_decodes(SRC / "_rng.py")) == 2


def test_raw_word_decodes_finds_each_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("t = (2**32 - n) % n\n"
                    "t = ((1 << 32) - pop_n) % pop_n\n"
                    "u = (w >> 11) * 2.0 ** -53\n"
                    "u >>= 11\n"
                    "v = (2**31 - n) % n\n"
                    "v = w >> 12\n"
                    "v = n % (2**32 - n)\n")
    assert raw_word_decodes(path) == [1, 2, 3, 4]
