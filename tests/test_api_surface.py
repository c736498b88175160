"""Every top-level name of the package has a caller outside the tests.

A top-level function, class or constant of `src/cubepu` counts as used when
some other code in `src/cubepu` (anything outside its own definition) or a
`perfbench/*.py` script names it: as a plain name, as an attribute, or in an
import.  A name only the tests call is API kept for the tests alone, and
fails this check.  Dunders such as `__version__` are read by tools, not by
code, and are left out.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _definitions(tree):
    """(name, node) for each top-level function, class and constant of a
    module, dunders excluded."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, node


def _referenced(tree, skip=None):
    """Names that `tree` mentions, leaving out the subtree `skip`."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names


def unreferenced_names(package=ROOT / "src" / "cubepu", scripts=ROOT / "perfbench"):
    """`module.name` for every top-level name in `package` that neither the
    rest of the package nor a script in `scripts` refers to."""
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(package.glob("*.py"))}
    outside = set()
    for p in sorted(scripts.glob("*.py")):
        outside |= _referenced(ast.parse(p.read_text(), str(p)))
    refs = {module: _referenced(tree) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        elsewhere = outside.union(*(r for m, r in refs.items() if m != module))
        for name, node in _definitions(tree):
            if name not in elsewhere and name not in _referenced(tree, skip=node):
                unused.append(f"{module}.{name}")
    return unused


def test_every_top_level_name_has_a_caller_outside_the_tests():
    assert unreferenced_names() == []


def test_a_name_used_only_by_itself_is_reported(tmp_path):
    package, scripts = tmp_path / "pkg", tmp_path / "scripts"
    package.mkdir()
    scripts.mkdir()
    (package / "mod.py").write_text(
        "LIMIT = 3\n"
        "__version__ = '1'\n"
        "def used(n):\n    return n < LIMIT\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used(n)\n"
    )
    (scripts / "run.py").write_text("import mod\nmod.used(1)\n")
    assert unreferenced_names(package, scripts) == ["mod.recursive"]
