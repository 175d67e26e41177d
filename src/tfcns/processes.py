"""The one place that forks: a helper process for the length of a ``with``
block, joined by a pipe and one shared anonymous mmap.

``forked`` serves the training worker (a replica forked for a whole run) and
the prediction partner (forked for one ``predict`` or
``class_activation_map``). The child writes nothing to stdout, ends when its
caller is gone (end of file on the pipe), and sends the caller any error it
raises. No child outlives the block: it is joined whether the block
returns or raises, and killed first if it has not ended on its own.
``RowPartner`` carries a forward split by rows between the caller and the
partner (see ``autodiff.split_rows``).
"""

from __future__ import annotations

import contextlib
import mmap
import os
import threading
import traceback

import numpy as np

from .autodiff import RowSplit
from .errors import NonFiniteValue, WorkerFailed

SLOT_ITEMSIZE = 8  # a slot holds ``slot`` elements of float32 or float64


def usable_cpus() -> int:
    """CPUs this process may run on (1 where the platform cannot tell)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def fork_exists() -> bool:
    # imported only to fork: it adds about 6 ms to a process's start, and
    # with it loaded, one-chunk training steps measured about 5 % slower
    import multiprocessing
    return "fork" in multiprocessing.get_all_start_methods()


def may_fork_partner() -> bool:
    """Whether a call may fork a partner now: two CPUs are usable, the
    calling thread is the process's only thread (another thread could hold a
    lock across the fork) and ``fork`` exists."""
    return usable_cpus() >= 2 and threading.active_count() == 1 and fork_exists()


def swap(conn, obj):
    """Send ``obj`` and return what the other side sent. If that side has
    ended, the pipe still holds what it sent last (its error) or ends:
    recv() raises EOFError, or ConnectionResetError where the ended side
    left unread data in its end of the socket pair."""
    with contextlib.suppress(BrokenPipeError):
        conn.send(obj)
    msg = conn.recv()
    if isinstance(msg, BaseException):  # the other side failed; see _child_main
        raise msg
    return msg


def _child_main(target, conn, caller_end, shared, args, what: str) -> None:
    """The child's side of ``forked``."""
    caller_end.close()  # so that the pipe ends when the caller does
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)
    try:
        target(conn, shared, *args)
    except (EOFError, ConnectionResetError):
        return  # the caller is gone
    except NonFiniteValue as exc:
        failure = exc
    except Exception:
        failure = WorkerFailed(f"{what} failed:\n" + traceback.format_exc())
    else:
        return
    with contextlib.suppress(OSError):
        conn.send(failure)


@contextlib.contextmanager
def forked(target, args: tuple, what: str, shared_bytes: int, join_s: float):
    """Fork one child, now, that runs ``target(conn, shared, *args)``, and
    yield the caller's ``(conn, shared)``: the two ends of one pipe and one
    shared anonymous mmap of ``shared_bytes`` bytes. A pipe that ends inside
    the block (the child died or exited) raises WorkerFailed naming
    ``what`` and its exit code. When the block returns, the child gets
    ``join_s`` seconds to end on its own; then, or at once if the block
    raised, it is killed and joined."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    shared = mmap.mmap(-1, shared_bytes)
    conn, child_end = ctx.Pipe()
    child = ctx.Process(target=_child_main, daemon=True, name=f"tfcns {what}",
                        args=(target, child_end, conn, shared, args, what))
    child.start()
    child_end.close()
    finished = False
    try:
        yield conn, shared
        finished = True
    except (EOFError, ConnectionResetError) as exc:
        child.join(1.0)
        raise WorkerFailed(f"{what} exited unexpectedly (exit code {child.exitcode})") from exc
    finally:
        conn.close()
        if finished and join_s:
            child.join(join_s)
        if child.is_alive():
            child.kill()
        child.join()


class RowPartner(RowSplit):
    """Process ``rank`` (0, the caller, or 1, the partner) of a forward
    split by rows over two processes: each computes its half, and
    ``exchange`` sends its rows and receives the other's, band by band,
    through two slots of ``slot`` elements in ``shared``, with one pipe
    token per band each way. Band k goes out through slot (rank + k) % 2
    and comes in through the other, so a process writes only the slot it
    read from last, after reading it: no slot is written while it is read."""

    def __init__(self, rank: int, conn, shared, slot: int):
        self.ranks, self._conn, self._shared, self._slot = (rank,), conn, shared, slot
        self._bands = 0

    def _slot_view(self, k: int, dtype, size: int) -> np.ndarray:
        return np.frombuffer(self._shared, dtype, size, k * self._slot * SLOT_ITEMSIZE)

    def exchange(self, arr: np.ndarray, halves: list) -> None:
        (rank,) = self.ranks
        own, other = halves[rank], halves[1 - rank]
        bsz, c, _, w = arr.shape
        rows = max(own[1] - own[0], other[1] - other[0])
        if rows * w <= self._slot:  # bands of whole channels
            chans, step = self._slot // max(1, rows * w), max(1, rows)
        else:  # bands of rows of one channel
            chans, step = 1, self._slot // w
        for b in range(bsz):
            for c0 in range(0, c, chans):
                for q in range(0, rows, step):
                    mine = arr[b, c0:c0 + chans, min(own[1], own[0] + q):min(own[1], own[0] + q + step)]
                    theirs = arr[b, c0:c0 + chans, min(other[1], other[0] + q):min(other[1], other[0] + q + step)]
                    k = rank + self._bands
                    self._bands += 1
                    self._slot_view(k % 2, arr.dtype, mine.size).reshape(mine.shape)[...] = mine
                    swap(self._conn, None)
                    theirs[...] = self._slot_view((k + 1) % 2, arr.dtype, theirs.size).reshape(theirs.shape)
