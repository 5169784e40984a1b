"""Shared fixtures."""

import pytest

from favard import _lapack


@pytest.fixture
def solves(monkeypatch):
    """Every eigenvector solve LAPACK is asked for, by routine: "dstemr", or
    "dbdsdc" for the half-size solve of a zero diagonal.  Node solves
    ("dsterf", "dlasq1") are not counted."""
    calls = []
    call = _lapack._call

    def counted(name, *args):
        if name in ("dstemr", "dbdsdc"):
            calls.append(name)
        return call(name, *args)

    monkeypatch.setattr(_lapack, "_call", counted)
    return calls
