import dimsched


def test_every_export_resolves():
    # A name left in __all__ after its definition is gone breaks
    # ``from dimsched import *``.
    assert [name for name in dimsched.__all__ if not hasattr(dimsched, name)] == []
