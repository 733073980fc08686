import os
from pathlib import Path

import pytest

import hardylab


@pytest.fixture(scope="session")
def cli_env():
    """Environment for a `python -m hardylab.cli` child process.

    PYTHONPATH starts with the directory holding the imported hardylab, since
    pytest's `pythonpath` setting reaches only the test process itself.
    """
    src = str(Path(hardylab.__file__).resolve().parent.parent)
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
