"""Spread the index build's independent tasks over the CPUs the process has.

The build's heavy steps (SQLite's `SELECT DISTINCT` and numpy's array
arithmetic) release the interpreter lock, so threads run them side by side.
No option sets the thread count, and no result depends on it: each task
writes only its own slot of the output.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable, Iterator


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity masks
        return os.cpu_count() or 1


def on_threads(tasks: int, work: Callable[[Iterator[int]], None]) -> None:
    """Run `work` on min(`usable_cpus()`, `tasks`) threads and wait for them.

    Each call of `work` takes task ids from one shared queue of 0 ..
    `tasks` - 1, in order, until the queue is empty; it may hold a resource
    (a connection, say) across its tasks. The calling thread is one of the
    threads, so one thread (or no task) starts none.

    Once a `work` raises, no more ids are handed out, and when every thread
    has ended the exception of the lowest task id is raised. That is the
    one a loop over the tasks in order would have met first: every id before
    it had been handed out, and its task ran to its end or raised.
    """
    count = min(usable_cpus(), tasks) if tasks > 1 else 1
    if count == 1:
        work(iter(range(tasks)))
        return
    lock = threading.Lock()
    queue = iter(range(tasks))
    # task id -> error; -1 before a thread's first task, `tasks` after its last
    failed: dict[int, BaseException] = {}

    def run() -> None:
        taken = -1

        def take() -> Iterator[int]:
            nonlocal taken
            while True:
                with lock:
                    taken = tasks if failed else next(queue, tasks)
                if taken == tasks:
                    return
                yield taken

        try:
            work(take())
        except BaseException as exc:  # handed to the caller below
            with lock:
                failed[taken] = exc

    helpers = [threading.Thread(target=run, name=f"value-index-{n}", daemon=True)
               for n in range(1, count)]
    for helper in helpers:
        helper.start()
    try:
        run()
    finally:
        for helper in helpers:
            helper.join()
    if failed:
        raise failed[min(failed)]
