"""The package's public names."""

import grac


def test_every_exported_name_resolves():
    for name in grac.__all__:
        getattr(grac, name)
