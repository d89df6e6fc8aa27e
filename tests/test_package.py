"""The package's public surface."""

import ast
from pathlib import Path

import massey_census


def test_exports_resolve():
    names = massey_census.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(massey_census, n)]
    assert not missing
    namespace = {}
    exec("from massey_census import *", namespace)
    assert set(names) <= set(namespace)


def _imported_names(path):
    """Every module and name a source file imports, dotted paths included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def test_census_and_oracle_stay_independent():
    # the two engines check each other only while neither reaches the other
    src = Path(massey_census.__file__).parent
    for module, other in (("census", "oracle"), ("oracle", "census")):
        names = _imported_names(src / f"{module}.py")
        assert not [n for n in names if n.split(".")[-1] == other], module
