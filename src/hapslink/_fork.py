"""One stage of a computation in a forked child, feeding the parent
through a pipe.

A large sweep computes its second half in a child (sweeps._table), and a
large replay parses its trace in one (engine.stream_replay). Each caller
keeps its own size threshold; can_fork is the platform's part of the
choice, and Child is the one channel from a child to its parent.
"""

import marshal
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


class Child:
    """child() in a forked child, as a context manager. Each value of the
    iterable it returns is written as one frame, its marshal bytes' length
    (4 bytes, little-endian) then the bytes, and flushed; an empty frame
    ends the output. The child leaves through os._exit, with status 0 once
    its values end and 1 if it raises, so it runs no exit handler and
    returns to no caller.

    In the parent, iterating yields the values as they arrive. On exit the
    pipe is closed, so a child still writing to it fails and ends, then
    the child is waited for: ok is true only if the end mark came and the
    exit status was 0. A fork that fails counts as a child that sent
    nothing.
    """

    def __init__(self, child):
        self.ok = self._ended = False
        r, w = os.pipe()
        try:
            import fcntl

            # most of a sweep's half, or many trace blocks, fit in it at once
            fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 1 << 20)
        except OSError:  # above the system's per-pipe limit: the default size
            pass
        try:
            self._pid = os.fork()
        except OSError:  # its pipe is at its end at once
            self._pid = None
        if self._pid == 0:
            code = 1
            try:
                os.close(r)
                with open(w, "wb") as out:
                    for value in child():
                        out.write(_frame(value))
                        out.flush()  # the parent reads each value as soon as it is made
                    out.write(bytes(4))
                code = 0
            finally:
                os._exit(code)
        os.close(w)
        self._pipe = open(r, "rb")

    def __enter__(self):
        return self

    def __iter__(self):
        read = self._pipe.read
        while len(head := read(4)) == 4:
            size = int.from_bytes(head, "little")
            if not size:
                self._ended = True
                return
            frame = read(size)
            if len(frame) < size:
                return
            yield marshal.loads(frame)

    def __exit__(self, *exc):
        self._pipe.close()
        if self._pid is not None:
            self.ok = os.waitpid(self._pid, 0)[1] == 0 and self._ended


def _frame(value):
    data = marshal.dumps(value)
    return len(data).to_bytes(4, "little") + data
