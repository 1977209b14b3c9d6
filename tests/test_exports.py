"""Every name the package exports must resolve: a name left in ``__all__``
after its definition is deleted breaks ``from plap import *``."""

import plap


def test_every_exported_name_resolves():
    assert len(set(plap.__all__)) == len(plap.__all__)
    for name in plap.__all__:
        assert hasattr(plap, name), name
