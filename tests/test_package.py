"""The package's public names."""

import subgamelab


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from subgamelab import *", namespace)
    assert len(subgamelab.__all__) == len(set(subgamelab.__all__))
    assert set(subgamelab.__all__) <= namespace.keys()
