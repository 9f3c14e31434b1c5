"""The program's surface is what the program runs.

Every function, method and class defined in src/schurq, other than a
dunder, must be used by the program: referenced in a module of src/schurq
other than __init__.py, outside its own definition, or named in
perfbench/*.py (whose tracer finds its boundaries by name).  A member that
only tests call belongs in the tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _walk(node, enclosing, definitions, uses, aliases):
    """Record each definition under `node` as (name, its node) and each use
    of a name as (name, the definitions that enclose it).  A use of a name
    imported under another name is a use of the imported name."""
    if isinstance(node, DEFINITIONS):
        definitions.append((node.name, node))
        enclosing = enclosing + (node,)
    elif isinstance(node, ast.Name):
        uses.append((aliases.get(node.id, node.id), enclosing))
    elif isinstance(node, ast.Attribute):
        uses.append((node.attr, enclosing))
    for child in ast.iter_child_nodes(node):
        _walk(child, enclosing, definitions, uses, aliases)


def unused_names(package=ROOT / "src" / "schurq", perfbench=ROOT / "perfbench"):
    """The non-dunder names defined in the package that its modules other
    than __init__.py do not use outside their own definitions and that no
    perfbench/*.py file names, as sorted "module.qualified_name" texts."""
    perfbench_words = set()
    for path in perfbench.glob("*.py"):
        perfbench_words.update(re.findall(r"[A-Za-z_]\w*", path.read_text()))
    definitions, uses = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {alias.asname: alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   for alias in node.names if alias.asname}
        found = []
        _walk(tree, (), found, [] if path.name == "__init__.py" else uses,
              aliases)
        definitions.extend((path.stem, name, node) for name, node in found)
    parents = {child: node for _, _, node in definitions for child in node.body
               if isinstance(child, DEFINITIONS)}
    unused = []
    for module, name, node in definitions:
        if (name.startswith("__") and name.endswith("__")) or name in perfbench_words:
            continue
        if any(used == name and node not in enclosing for used, enclosing in uses):
            continue
        qualified, owner = name, parents.get(node)
        while owner is not None:
            qualified, owner = "%s.%s" % (owner.name, qualified), parents.get(owner)
        unused.append("%s.%s" % (module, qualified))
    return sorted(unused)


def test_every_definition_is_used_by_the_program():
    assert unused_names() == []


def test_the_scan_finds_what_only_it_or_the_exports_name(tmp_path):
    package, perfbench = tmp_path / "pkg", tmp_path / "perfbench"
    package.mkdir()
    perfbench.mkdir()
    (package / "__init__.py").write_text("from .a import exported\n")
    (package / "a.py").write_text(
        "def exported():\n    pass\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "def aliased():\n    pass\n"
        "def traced():\n    pass\n"
        "class Box:\n"
        "    def __len__(self):\n        return self.size()\n"
        "    def size(self):\n        return 0\n"
        "    def spare(self):\n        return self.size()\n")
    (package / "b.py").write_text("from .a import Box, aliased as _al\n"
                                  "_al()\nBox()\n")
    (perfbench / "tracer.py").write_text('BOUNDARIES = [("pkg.a", "traced")]\n')
    assert unused_names(package, perfbench) == [
        "a.Box.spare", "a.exported", "a.recursive"]
