"""One call run in a forked child process while the caller goes on.

``fork_call(fn, *args)`` forks; the child runs ``fn(*args)``, pickles the
value it returned or the exception it raised into a pipe, and leaves with
``os._exit``, so it flushes none of the stdio buffers it inherited and runs
no ``atexit`` handlers.  ``result()`` in the parent reads the pipe to EOF
(a pickled result can be larger than a pipe holds), reaps the child, and
returns the value or raises the exception.  Pickle's highest protocol keeps
arrays bit for bit, read-only flag included, so the value is the one the
call would have returned in the parent.

``in_halves`` is the one policy for using a second CPU: ``cli.cmd_sweep``
trains its networks and ``evalharness.TrainedModelForecaster.forecasts``
samples a panel's series through it.  No other module forks.
"""

from __future__ import annotations

import functools
import os
import pickle
import signal

__all__ = ["ForkError", "can_fork", "fork_call", "in_halves", "usable_cpus"]


class ForkError(ValueError):
    """A forked call ended without sending its result."""


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot tell."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def can_fork() -> bool:
    """Whether a forked call can run beside the caller on a CPU of its own."""
    return hasattr(os, "fork") and usable_cpus() >= 2


class ForkedCall:
    """A call running in a child process.  As a context manager it kills and
    reaps a child whose result was never collected."""

    def __init__(self, fn, args: tuple) -> None:
        self._name = getattr(fn, "__name__", "call")
        read_fd, write_fd = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(read_fd)
                try:
                    outcome = (True, fn(*args))
                except Exception as exc:
                    outcome = (False, exc)
                data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
                with os.fdopen(write_fd, "wb") as fh:
                    fh.write(data)
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        self._fd = read_fd
        self._outcome: tuple | None = None

    def result(self):
        """Wait for the child; return its value or raise its exception."""
        if self._outcome is None:
            try:
                with os.fdopen(self._fd, "rb") as fh:
                    data = fh.read()
            finally:
                self._fd = -1
                _, status = os.waitpid(self.pid, 0)
            try:
                self._outcome = pickle.loads(data)
            except Exception:
                code = os.waitstatus_to_exitcode(status)
                self._outcome = (
                    False,
                    ForkError(f"forked {self._name} ended (exit status {code}) without a result"),
                )
        ok, value = self._outcome
        if ok:
            return value
        raise value

    def __enter__(self) -> "ForkedCall":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._outcome is None and self._fd >= 0:
            os.kill(self.pid, signal.SIGKILL)
            os.close(self._fd)
            self._fd = -1
            os.waitpid(self.pid, 0)


def fork_call(fn, *args) -> ForkedCall:
    """Start ``fn(*args)`` in a forked child and return its handle."""
    return ForkedCall(fn, args)


def in_halves(run, n: int, per_round: int | None = None):
    """Yield the results of items 0..n-1 in order; ``run(lo, hi)`` returns
    those of items lo..hi-1.  They go in rounds of ``per_round`` (all n by
    default).  In a round of two or more, when ``can_fork()`` holds, a forked
    child computes ``list(run(mid, hi))``, mid = lo + ceil((hi - lo) / 2),
    while this process yields ``run(lo, mid)`` as it is consumed.  An error
    here propagates at once and the child is killed; the child's results, or
    its error, follow this process's half.  So for a pure ``run`` the results
    and the first error do not depend on the CPU count.
    """
    per_round = per_round or max(n, 1)

    @functools.wraps(run)  # so a ForkError names run
    def listed(lo: int, hi: int) -> list:
        return list(run(lo, hi))

    for lo in range(0, n, per_round):
        hi = min(lo + per_round, n)
        if hi - lo < 2 or not can_fork():
            yield from run(lo, hi)
            continue
        mid = lo + (hi - lo + 1) // 2
        with fork_call(listed, mid, hi) as child:
            yield from run(lo, mid)
            ahead = child.result()
        yield from ahead
