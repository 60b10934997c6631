"""The independent trials of a roundtrip job, run on every usable core.

:func:`map_trials` puts the trial indices into one pipe, written whole before
any worker starts.  This process and ``min(count, usable cores) - 1``
children forked from it drain the pipe one index at a time, so a slow trial
holds up only its own worker.  Each child pickles ``{index: result}`` back
over a pipe of its own and leaves with ``os._exit``.  BLAS runs one thread
per process for the whole map: a second thread per process only spins
against the other workers, and with one thread a trial's sums no longer
depend on the machine's default thread count.  Where no OpenBLAS thread
control is found, or one core is usable, or there is one trial, the same
loop runs in this process alone.

Workers are forked per map, not spawned or pooled: a spawned worker pays the
package's import on every CLI run, and a pool outlives one run only inside
one process.  OpenBLAS stops its own threads at fork, and a child runs only
trials before ``os._exit``.
"""

from __future__ import annotations

import contextlib
import functools
import os
import pickle
import warnings

# the thread-count symbols of the OpenBLAS builds numpy ships or links
_BLAS_SYMBOLS = [(f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
                 for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "_64", "")]
# 4-byte indices that one atomic write puts into an empty pipe: Linux's
# PIPE_BUF is 4096 bytes, and only Linux takes the forked path
_BATCH = 1024


@functools.cache
def _blas_thread_control():
    """``(get, set)`` for the thread count of the OpenBLAS mapped into this
    process, or None.  It is found through ``/proc/self/maps``, so only on
    Linux, which also has ``os.fork`` and ``os.sched_getaffinity``."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in maps
                            if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get, set_ in _BLAS_SYMBOLS:
            if hasattr(lib, get) and hasattr(lib, set_):
                get, set_ = getattr(lib, get), getattr(lib, set_)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body on one BLAS thread and restore the count after; yields
    whether the count could be set."""
    control = _blas_thread_control()
    if control is None:
        yield False
        return
    get, set_ = control
    before = get()
    set_(1)
    try:
        yield True
    finally:
        set_(before)


def map_trials(fn, count: int) -> list:
    """``[fn(i) for i in range(count)]``, on one BLAS thread per process and
    spread over the usable cores.  ``fn`` runs in forked children, so its
    results must pickle; an exception other than in its result stops the
    map, and a child's is raised here as a RuntimeError with its traceback."""
    with _one_blas_thread() as pinned:
        workers = min(count, len(os.sched_getaffinity(0))) if pinned else 1
        if workers == 1:
            return [fn(i) for i in range(count)]
        results = {}
        for start in range(0, count, _BATCH):
            results |= _fork_map(fn, range(start, min(start + _BATCH, count)), workers)
        return [results[i] for i in range(count)]


def _drain(fn, queue: int) -> dict:
    results = {}
    while index := os.read(queue, 4):
        i = int.from_bytes(index, "little")
        results[i] = fn(i)
    return results


def _fork_map(fn, indices: range, workers: int) -> dict:
    """``{i: fn(i)}`` over ``indices``, drained by this process and
    ``workers - 1`` children; every child is reaped before it returns or
    raises."""
    queue, feed = os.pipe()
    os.write(feed, b"".join(i.to_bytes(4, "little") for i in indices))
    os.close(feed)
    children = {}   # pid -> read end of its result pipe
    try:
        for _ in range(min(workers, len(indices)) - 1):
            out, into = os.pipe()
            with warnings.catch_warnings():
                # Python 3.12+ warns on fork in a threaded process; the child
                # runs only trials, and OpenBLAS stops its own threads at fork
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                _child(fn, queue, into)
            os.close(into)
            children[pid] = out
        results = _drain(fn, queue)
        for pid, out in list(children.items()):
            with open(out, "rb", closefd=False) as pipe:
                payload = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            os.close(out)
            reply = pickle.loads(payload) if payload else None
            if status != 0 or not isinstance(reply, dict):
                raise RuntimeError(f"a trial worker exited with {status}:\n{reply}")
            results |= reply
        return results
    finally:
        os.close(queue)
        if children:   # stopped early: no child outlives the map
            import signal

            for pid, out in children.items():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                os.close(out)


def _child(fn, queue: int, into: int):
    """A forked worker: drain the queue, send the results or the traceback
    of what stopped it, and exit without returning to the caller's stack."""
    status = 1
    try:
        try:
            payload = pickle.dumps(_drain(fn, queue))
            status = 0
        except BaseException:   # reported to the parent, which raises it; the child exits
            import traceback

            payload = pickle.dumps(traceback.format_exc())
        with open(into, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(status)
