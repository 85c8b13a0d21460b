"""The library imports nothing outside the Python standard library."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "edgecolorkit"


def test_library_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, "no modules found under %s" % PACKAGE
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue  # relative imports stay inside the package
            foreign += [
                "%s:%d imports %s" % (path.name, node.lineno, name)
                for name in modules
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert not foreign, foreign
