"""Pytest fixtures (helpers live in tests.helpers)."""

import os

import pytest

from tests.helpers import small_config


@pytest.fixture(scope="session", autouse=True)
def _hermetic_result_cache(tmp_path_factory):
    """Point the orchestrator's default result store at a per-session
    temporary directory so unit tests neither read stale cells from a
    developer's ``.repro-cache/`` nor leave one behind."""
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture
def cfg4():
    return small_config(4)


@pytest.fixture
def fake_workers():
    """Start scripted worker daemons (see tests.distributed.fakes):
    ``fake_workers("good", "silent", slots=2)`` returns every fake
    started so far; their listeners close at teardown."""
    from tests.distributed.fakes import FakeWorker

    workers = []

    def _spawn(*modes: str, slots: int = 1):
        for mode in modes:
            worker = FakeWorker(mode=mode, slots=slots)
            worker.start()
            workers.append(worker)
        return workers

    yield _spawn
    for worker in workers:
        worker.close()
