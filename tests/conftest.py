import pytest

from thetasums import catalog as catalog_module
from thetasums import transfer
from thetasums.catalog import load_catalog
from thetasums.polygonal import SieveTable


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()


class RecordingStore(dict):
    """A mask store that keeps every entry written to it, in order, and the
    most masks it held at once."""

    def __init__(self):
        super().__init__()
        self.written = []
        self.peak_masks = 0

    def __setitem__(self, families, entry):
        super().__setitem__(families, entry)
        self.written.append((families, entry))
        live = sum(mask is not None for _, mask in self.values())
        self.peak_masks = max(self.peak_masks, live)


@pytest.fixture
def sieve_tables(monkeypatch):
    """Every SieveTable the catalog makes during the test, in order, each
    folding into a RecordingStore."""
    tables = []

    class Recorded(SieveTable):
        def __init__(self):
            super().__init__()
            self.store = RecordingStore()
            tables.append(self)

    monkeypatch.setattr(catalog_module, "SieveTable", Recorded)
    return tables


@pytest.fixture
def series_checks(monkeypatch):
    """Decompositions that reach the series check, in call order."""
    calls = []
    series_check = transfer._series_check

    def spy(d, order):
        calls.append(d)
        return series_check(d, order)

    monkeypatch.setattr(transfer, "_series_check", spy)
    return calls
