"""parallel.run_workers: the package's one fan-out to threads."""

import threading
import time

import numpy as np
import pytest

from facegen import parallel
from facegen.parallel import run_workers


def test_one_worker_runs_inline_and_starts_no_thread(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was opened")

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", no_pool)
    ran = []
    run_workers(lambda k: ran.append((k, threading.get_ident())), 1)
    assert ran == [(0, threading.get_ident())]
    run_workers(ran.append, 0)
    assert len(ran) == 1


def test_task_0_runs_on_the_calling_thread():
    before = set(threading.enumerate())
    ran = {}
    run_workers(lambda k: ran.setdefault(k, threading.get_ident()), 3)
    caller = threading.get_ident()
    assert sorted(ran) == [0, 1, 2]
    assert ran[0] == caller and caller not in (ran[1], ran[2])
    assert set(threading.enumerate()) == before


def test_pool_threads_take_the_callers_error_state():
    states = {}
    with np.errstate(over="raise", invalid="ignore", divide="warn", under="call"):
        caller = np.geterr()
        run_workers(lambda k: states.setdefault(k, np.geterr()), 3)
    assert caller != np.geterr()
    assert states == {k: caller for k in range(3)}


def test_first_error_is_raised_after_every_task_has_returned():
    before = set(threading.enumerate())
    failed, returned = threading.Event(), []

    def task(k):
        if k == 0:
            failed.set()
            raise ValueError("0")
        failed.wait(5.0)            # still running when task 0 has failed
        time.sleep(0.05)
        returned.append(k)

    with pytest.raises(ValueError, match="0"):
        run_workers(task, 3)
    assert sorted(returned) == [1, 2]
    assert set(threading.enumerate()) == before

    def later(k):
        if k == 2:
            failed.set()
            raise ValueError("2")
        if k == 1:
            failed.wait(5.0)        # fails after task 2 has failed
            raise ValueError("1")

    failed.clear()
    with pytest.raises(ValueError, match="1"):
        run_workers(later, 3)
    assert set(threading.enumerate()) == before
