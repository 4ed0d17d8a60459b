"""One stage of a computation in a forked child, feeding the parent
through a pipe.

A large sweep computes its second half in a child (sweeps._table), and a
large replay parses its trace in one (engine.stream_replay). Each caller
keeps its own size threshold; can_fork is the platform's part of the
choice, spawn starts the child and reap ends it.
"""

import os
import sys


def can_fork():
    """Whether a forked child can run beside this process: Linux with
    os.fork, more than one usable CPU, and no other thread."""
    if sys.platform != "linux" or not hasattr(os, "fork"):
        return False
    try:
        # a fork copies only the calling thread; the kernel's count also
        # sees threads that the threading module does not know of
        return len(os.sched_getaffinity(0)) > 1 and len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def spawn(child, pipe_bytes=None):
    """(pid, pipe): child(out) runs in a forked child that writes its
    output to out, a binary file, and the parent reads it from pipe; None
    if no process can be forked. The child leaves through os._exit, with
    status 0 once child returns and 1 if it raises, so it runs no exit
    handler and returns to no caller. pipe_bytes asks for a pipe buffer of
    that size, where the system allows it."""
    r, w = os.pipe()
    if pipe_bytes is not None:
        import fcntl

        try:
            fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, pipe_bytes)
        except OSError:  # above the system's per-pipe limit: the default size
            pass
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with open(w, "wb") as out:
                child(out)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def reap(pid, pipe):
    """The wait status of spawn's child, once it has ended. pipe is closed
    first, so a child still writing to it fails and ends."""
    pipe.close()
    return os.waitpid(pid, 0)[1]
