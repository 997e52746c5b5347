"""One function call in a forked child process, overlapping the caller's work.

This module imports nothing else from the package, so every layer can use
it: ``metrics.run_summary`` splits its statistics across two processes,
``artifacts.write_run_dir`` overlaps the summary with the verification and
the writes, and ``qdtp analyze --compare`` loads the second run meanwhile.
"""
from __future__ import annotations

import os

__all__ = ["Forked"]


class Forked:
    """``fn(*args)`` in a forked child while the parent does other work.

    A context manager: leaving the ``with`` block kills and reaps a child
    whose :meth:`result` was not read.  The child pipes back its pickled
    result, or the exception that stopped it.  It leaves through
    ``os._exit``, so it never flushes the stdio buffers or runs the atexit
    handlers it inherited.  ``doing`` names the child's work in the error
    raised when it dies without a result.

    The child leads a process group of its own, and the children it forks
    through ``Forked`` stay in that group, so killing the child kills them
    with it: no process outlives the ``with`` block.
    """

    # true in a Forked child: the children it forks stay in the process
    # group that the outermost Forked child leads
    _in_child = False

    def __init__(self, doing: str, fn, *args):
        # pickle is imported after the fork, so the parent does not carry it
        # while the child works
        self.doing = doing
        self.own_group = not Forked._in_child
        read_fd, write_fd = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if self.pid:
            os.close(write_fd)
            if self.own_group:  # as the child does, so kill() never races it
                os.setpgid(self.pid, self.pid)
            self.pipe = open(read_fd, "rb")
            return
        status = 1
        try:
            if self.own_group:
                os.setpgid(0, 0)
            Forked._in_child = True
            import pickle

            os.close(read_fd)
            try:
                result = fn(*args)
            except BaseException as exc:
                result = exc
            with open(write_fd, "wb") as pipe:
                pickle.dump(result, pipe)
            status = 0
        finally:
            os._exit(status)

    def __enter__(self) -> Forked:
        return self

    def __exit__(self, *exc_info) -> None:
        self.kill()

    def result(self):
        """Wait for the child; its result, or its exception raised here."""
        import pickle

        with self.pipe:
            data = self.pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise ChildProcessError(f"the child {self.doing} {how} without a result")
        result = pickle.loads(data)
        if isinstance(result, BaseException):
            raise result
        return result

    def kill(self) -> None:
        """Stop and reap the child, and its group, unless :meth:`result` already has."""
        import signal

        if self.pid is None:
            return
        self.pipe.close()
        (os.killpg if self.own_group else os.kill)(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        self.pid = None
