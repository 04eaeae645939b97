"""Every script under scripts/ still imports what it uses from the package.

Each script runs ``main()`` only under ``__main__``, so loading it under
another name executes just its imports and top-level constants.
"""

import runpy
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=[path.name for path in SCRIPTS])
def test_script_imports_resolve(path):
    namespace = runpy.run_path(str(path), run_name="smoke")
    assert callable(namespace["main"])
