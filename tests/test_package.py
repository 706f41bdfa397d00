"""The package's public surface."""

import lorenzlinks


def test_every_export_resolves():
    missing = [name for name in lorenzlinks.__all__ if not hasattr(lorenzlinks, name)]
    assert missing == []
    assert len(set(lorenzlinks.__all__)) == len(lorenzlinks.__all__)
