"""Service-test guard: no served loop may leave a handler task pending."""

import gc
import logging

import pytest

PENDING = "Task was destroyed but it is pending!"


@pytest.fixture(autouse=True)
def no_task_destroyed_pending():
    """Fail a test after which asyncio reports a task destroyed while
    still pending -- a connection handler whose loop closed under it.

    asyncio logs that report when the task is garbage-collected, so the
    teardown collects before it looks.
    """
    records: list[logging.LogRecord] = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("asyncio")
    logger.addHandler(handler)
    try:
        yield
        gc.collect()
    finally:
        logger.removeHandler(handler)
    leaked = [
        record.getMessage() for record in records if PENDING in record.getMessage()
    ]
    assert not leaked, leaked
