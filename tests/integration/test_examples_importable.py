"""Sanity: every example script parses, imports, and defines main().

CI's trace-demo job runs every example end to end; here tier-1 pins
that they at least stay importable against the current API (import-time
breakage is the most common doc rot).
"""

import importlib.util
import pathlib

import pytest

EXAMPLES = sorted(
    pathlib.Path(__file__).resolve().parents[2].joinpath("examples")
    .glob("*.py"))


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports_and_has_main(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)   # __main__ guard: nothing runs
    assert callable(getattr(module, "main", None))
