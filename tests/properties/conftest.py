"""Everything under tests/properties is Hypothesis fuzzing — the slow tier.

The default run excludes it (``-m "not slow"`` in pyproject.toml); run
``pytest -m slow`` for just this tier or ``pytest -m ""`` for everything.
CI runs it under the ``ci`` Hypothesis profile registered in
``tests/conftest.py``.
"""

import pathlib

import pytest

_HERE = pathlib.Path(__file__).parent


def pytest_collection_modifyitems(items):
    for item in items:
        if pathlib.Path(str(item.fspath)).parent == _HERE:
            item.add_marker(pytest.mark.slow)
