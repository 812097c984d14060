"""Import layering of the package, read from the source with ``ast``.

The ``okkit`` module docstring lists the public modules from the bottom
layer up; a module may import only modules listed before it.  The private
helpers (``_lattice``, ``_polytope``) sit below every listed module.
"""

import ast
import re
from pathlib import Path

import okkit

PACKAGE = Path(okkit.__file__).parent
DOCUMENTED = tuple(re.findall(r"^``(\w+)``$", okkit.__doc__, re.MULTILINE))


def _modules():
    """Module name (first component under okkit) -> source files."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE)
        if rel.parts != ("__init__.py",):
            out.setdefault(rel.parts[0].removesuffix(".py"), []).append(path)
    return out


def _rank(name):
    """Raises ValueError for a public module the docstring does not list."""
    return -1 if name.startswith("_") else DOCUMENTED.index(name)


def _imported(path):
    """The okkit modules a file imports, anywhere in it, relative or not."""
    package = ["okkit", *path.relative_to(PACKAGE).parts[:-1]]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            targets = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            full = base + (node.module.split(".") if node.module else [])
            if full == ["okkit"]:
                targets = [full + [alias.name] for alias in node.names]
            else:
                targets = [full]
        else:
            continue
        found.update(t[1] for t in targets if t[0] == "okkit" and len(t) > 1)
    return found


def test_imports_follow_the_documented_order():
    wrong = []
    for name, paths in _modules().items():
        for path in paths:
            for target in sorted(_imported(path) - {name}):
                if _rank(target) >= _rank(name):
                    wrong.append("%s imports %s" % (path.relative_to(PACKAGE), target))
    assert wrong == []


def test_catalog_needs_no_numerics():
    imported = set().union(*map(_imported, _modules()["catalog"]))
    assert not imported & {"flow", "embedding"}
