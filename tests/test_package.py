"""The package's public name list."""

import types

import cnoidal_kdv


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(cnoidal_kdv.__all__)) == len(cnoidal_kdv.__all__)
    for name in cnoidal_kdv.__all__:
        assert not isinstance(getattr(cnoidal_kdv, name), types.ModuleType), name
