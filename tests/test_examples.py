"""Every example under ``examples/`` imports cleanly against the library.

The examples are runnable scripts, not tests, so nothing else exercises
them; importing each one catches a removed or renamed library name the
moment it happens.  Each example guards its ``main()`` behind
``if __name__ == "__main__"``, so importing runs no measurement.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def test_examples_found():
    assert EXAMPLES, "no examples/*.py found"


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
