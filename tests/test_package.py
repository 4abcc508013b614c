"""The package surface: every exported name exists."""

import tunesim


def test_every_name_in_all_resolves():
    assert [name for name in tunesim.__all__ if not hasattr(tunesim, name)] == []
    assert len(set(tunesim.__all__)) == len(tunesim.__all__)
