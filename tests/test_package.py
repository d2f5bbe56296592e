"""The package's public surface."""

import prodquot


def test_every_exported_name_resolves():
    missing = [name for name in prodquot.__all__ if not hasattr(prodquot, name)]
    assert not missing
