"""The package's public name list."""

import splitopt


def test_public_names_resolve_unique_and_sorted():
    """A name dropped from the imports but left in __all__ fails here."""
    names = splitopt.__all__
    assert all(hasattr(splitopt, name) for name in names)
    assert len(set(names)) == len(names)
    assert names == sorted(names)
