"""Tests for the package's public names."""

import mlocality


def test_every_public_name_resolves():
    missing = [name for name in mlocality.__all__ if not hasattr(mlocality, name)]
    assert missing == []


def test_public_names_are_unique():
    assert len(set(mlocality.__all__)) == len(mlocality.__all__)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from mlocality import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(mlocality.__all__)
