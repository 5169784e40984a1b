"""Shared fixtures."""

import pytest

from favard import diffop


@pytest.fixture
def solves(monkeypatch):
    """Every eigensolve a DiffMatrix makes, by driver: "stemr", or "dbdsdc" for
    the half-size solve of a zero diagonal."""
    calls = []
    stemr, dbdsdc = diffop.eigh_tridiagonal, diffop.singular_vectors

    def counted_stemr(*args, **kwargs):
        calls.append(kwargs.get("lapack_driver"))
        return stemr(*args, **kwargs)

    def counted_dbdsdc(*args):
        calls.append("dbdsdc")
        return dbdsdc(*args)

    monkeypatch.setattr(diffop, "eigh_tridiagonal", counted_stemr)
    monkeypatch.setattr(diffop, "singular_vectors", counted_dbdsdc)
    return calls
