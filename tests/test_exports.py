from __future__ import annotations

import multimax
import multimax.zoo


def test_every_export_resolves():
    for package in (multimax, multimax.zoo):
        missing = [name for name in package.__all__ if not hasattr(package, name)]
        assert missing == [], package.__name__
        assert len(set(package.__all__)) == len(package.__all__)
