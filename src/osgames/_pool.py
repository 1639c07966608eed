"""The one process pool: runs independent tasks on up to `jobs` workers.

Under the fork start method the first submit starts every one of the
pool's workers at once, so the pool is never larger than the work or the
machine: min(jobs, tasks, CPUs).  One worker runs the tasks in-process.
"""

from __future__ import annotations

import os

from .arena import ArenaError


def workers(jobs: int, tasks: int) -> int:
    """How many processes `tasks` tasks get for `jobs`: at least 1."""
    if jobs < 1:
        raise ArenaError(f"jobs must be at least 1, not {jobs}")
    return max(1, min(jobs, tasks, os.cpu_count() or 1))


def pool_map(fn, tasks: list[tuple], jobs: int) -> list:
    """[fn(*task) for task in tasks], run on workers(jobs, len(tasks))
    processes; with more than one, fn must be top level and the tasks
    picklable."""
    count = workers(jobs, len(tasks))
    if count == 1:
        return [fn(*task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor  # only runs that need it pay the import

    with ProcessPoolExecutor(max_workers=count) as pool:
        return list(pool.map(fn, *zip(*tasks)))
