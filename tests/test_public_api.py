"""The package's public name list: every listed name resolves."""

import mberlink


def test_every_listed_name_resolves():
    assert len(set(mberlink.__all__)) == len(mberlink.__all__)
    missing = [name for name in mberlink.__all__ if not hasattr(mberlink, name)]
    assert missing == []


def test_star_import_binds_the_listed_names():
    namespace = {}
    exec("from mberlink import *", namespace)
    assert set(mberlink.__all__) <= set(namespace)
    assert "auto_step" in namespace
