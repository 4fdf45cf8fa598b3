"""Fixtures shared by the kernel tests."""

import hashlib
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from vidsr import tensor


class CountingPool(ThreadPoolExecutor):
    """A thread pool that counts the shares handed to it, and refuses one
    handed to it by its own thread, which could wait on itself forever."""

    PREFIX = "counting-pool"

    def __init__(self, threads):
        super().__init__(threads, thread_name_prefix=self.PREFIX)
        self.submits = 0

    def submit(self, *args, **kwargs):
        if threading.current_thread().name.startswith(self.PREFIX):
            raise RuntimeError("a pool thread split its share over its own pool")
        self.submits += 1
        return super().submit(*args, **kwargs)


def _digest(value):
    if isinstance(value, np.ndarray):
        a = np.ascontiguousarray(value)
        return (a.dtype.str, a.shape, hashlib.sha256(a.tobytes()).hexdigest())
    return repr(value)


@pytest.fixture()
def split_and_serial(monkeypatch):
    """run(fn) calls fn split over three workers (two pool threads and the
    caller, whatever WORKERS this process started with), then in turn at
    one worker with no pool. It returns the sha256 digest of each result
    (the repr of a non-array) and how many shares the pool was handed."""
    pool = CountingPool(2)

    def run(fn):
        before = pool.submits
        with monkeypatch.context() as m:
            m.setattr(tensor, "WORKERS", 3)
            m.setattr(tensor, "_POOL", pool)
            split = fn()
        with monkeypatch.context() as m:
            m.setattr(tensor, "WORKERS", 1)
            m.setattr(tensor, "_POOL", None)
            serial = fn()
        return _digest(split), _digest(serial), pool.submits - before

    yield run
    pool.shutdown()
