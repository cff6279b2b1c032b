"""The package's public surface."""

from __future__ import annotations

import types

import cycolor


def test_all_names_every_public_name_that_is_not_a_module():
    public = {
        name
        for name, value in vars(cycolor).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(cycolor.__all__) == sorted(public)


def test_star_import_binds_every_name_in_all():
    scope: dict = {}
    exec("from cycolor import *", scope)
    assert set(cycolor.__all__) <= set(scope)
