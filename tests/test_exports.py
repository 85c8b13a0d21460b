"""The package's export list: every name resolves, once, in sorted order."""

import edgecolorkit


def test_all_names_resolve_once_in_sorted_order():
    names = edgecolorkit.__all__
    missing = [name for name in names if not hasattr(edgecolorkit, name)]
    assert not missing, missing
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def test_star_import_succeeds():
    namespace = {}
    exec("from edgecolorkit import *", namespace)
    assert set(edgecolorkit.__all__) <= namespace.keys()
