"""Every name a library module imports is used in that module."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "edgecolorkit"


def test_library_modules_use_every_name_they_import():
    # __init__.py imports to re-export, and a __future__ import is a flag
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert sources, "no modules found under %s" % PACKAGE
    unused = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [
                    "%s:%d imports %s" % (path.name, node.lineno, bound)
                    for bound in ((a.asname or a.name).split(".")[0] for a in node.names)
                    if bound not in used
                ]
    assert not unused, unused
