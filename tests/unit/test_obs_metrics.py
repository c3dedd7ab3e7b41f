"""Unit tests for the pull-only observability metrics registry."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry


def test_registry_snapshot_merges_and_sorts():
    reg = MetricsRegistry()
    reg.register_collector("late", lambda: {"z.count": 2, "a.depth": 7})
    reg.register_collector("src", lambda: {"m.pulled": 42})
    snap = reg.snapshot()
    assert snap == {"a.depth": 7, "m.pulled": 42, "z.count": 2}
    assert list(snap) == sorted(snap)


def test_registry_collector_replacement():
    reg = MetricsRegistry()
    reg.register_collector("src", lambda: {"v": 1})
    reg.register_collector("src", lambda: {"v": 2})
    assert reg.snapshot() == {"v": 2}


def test_registry_collector_name_clash_raises():
    reg = MetricsRegistry()
    reg.register_collector("first", lambda: {"v": 1})
    reg.register_collector("src", lambda: {"v": 9})
    with pytest.raises(ConfigurationError, match="'src' redefines"):
        reg.snapshot()


def test_registry_get_and_render():
    reg = MetricsRegistry()
    runs = [3]
    reg.register_collector("src", lambda: {"runs": runs[0], "rate": 0.5})
    assert reg.get("runs") == 3
    runs[0] = 4                      # pulled again at every query
    assert reg.get("runs") == 4
    assert reg.get("missing", default=0) == 0
    text = reg.render()
    assert "runs" in text and "0.5" in text
    assert MetricsRegistry().render() == "(no metrics)"
