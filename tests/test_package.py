"""The package's public surface."""

import massey_census


def test_exports_resolve():
    names = massey_census.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(massey_census, n)]
    assert not missing
    namespace = {}
    exec("from massey_census import *", namespace)
    assert set(names) <= set(namespace)
