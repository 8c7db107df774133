"""Shared fixtures. The desk run executes the whole pipeline once per
session (search, derive, retrain, baseline) so several acceptance checks
can share its cost. `artifact_hashes.py` holds it, and writes and hashes
its artifacts when run as a script."""

import pytest

from artifact_hashes import run_desk


@pytest.fixture(scope="session")
def desk_run():
    return run_desk()
