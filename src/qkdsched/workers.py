"""Forked child processes for the stages that can use more than one core.

The estimate dump runs in a child made with the ``fork`` start method,
which inherits the parent's table without pickling it, while the parent
runs the schedulers. It runs inline where that cannot help: on one usable
CPU, or where the platform has no ``fork``. The visibility scan needs one
core and forks nothing.
"""

from __future__ import annotations

import os


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fork_context():
    """The ``fork`` multiprocessing context, or None to run inline."""
    if usable_cpus() < 2:
        return None
    # imported on first use, so that it stays out of the command's start-up
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")
