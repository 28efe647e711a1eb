"""The leak guard in ``conftest.py`` reports what a module left running."""

from __future__ import annotations

import threading


def test_reports_a_leaked_thread_and_not_a_finished_one(leak_check):
    threads_before = set(threading.enumerate())
    finished = threading.Thread(target=lambda: None, name="finished")
    finished.start()
    finished.join()
    release = threading.Event()
    leaked = threading.Thread(target=release.wait, name="leaked", daemon=True)
    leaked.start()
    try:
        assert leak_check(threads_before, set(), grace=0.1) == ["thread 'leaked'"]
    finally:
        release.set()
        leaked.join()
    assert leak_check(threads_before, set(), grace=0.1) == []
