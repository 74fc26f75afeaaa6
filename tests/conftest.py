"""Suite-wide checks."""

import pytest

from archuncert.errors import WidthLimitError


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "width_limit: the test expects bn.MAX_WIDTH to refuse a "
                   "query")


@pytest.fixture(autouse=True)
def width_refusals(request, monkeypatch):
    """Fail any test not marked width_limit in which the width guard
    refuses a query, so that the guard is seen to fire on nothing else."""
    refusals = []
    init = WidthLimitError.__init__

    def recording(self, *args):
        refusals.append(args)
        init(self, *args)
    monkeypatch.setattr(WidthLimitError, "__init__", recording)
    yield
    if request.node.get_closest_marker("width_limit") is None:
        assert refusals == []
