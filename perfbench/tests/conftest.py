"""Make the package (src/) and the benchmark modules importable."""

import os
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture
def workdir(request):
    """A scratch directory inside the checkout, removed afterwards."""
    path = BENCH / "results" / f"selftest-{os.getpid()}-{request.node.name}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
