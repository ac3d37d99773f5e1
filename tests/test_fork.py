"""The forked-call helper: results cross the pipe bit for bit, errors keep
their type, and every child is reaped."""

import os
import time

import numpy as np
import pytest

from cellcast._fork import ForkError, fork_call
from cellcast.deepar import TrainError


def frozen_noise(n):
    a = np.random.default_rng(5).standard_normal(n)
    a.setflags(write=False)
    return a


def reaped(pid):
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_result_larger_than_a_pipe_is_bit_identical():
    """1 MB of float64 is more than a pipe buffer holds."""
    call = fork_call(frozen_noise, 1 << 17)
    got = call.result()
    assert got.tobytes() == frozen_noise(1 << 17).tobytes()
    assert not got.flags.writeable
    assert reaped(call.pid)
    assert call.result() is got


def test_exception_is_raised_in_the_caller():
    def fail():
        raise TrainError("training diverged at epoch 1")

    call = fork_call(fail)
    with pytest.raises(TrainError, match="^training diverged at epoch 1$"):
        call.result()
    assert reaped(call.pid)


def test_child_that_exits_early_is_a_fork_error():
    call = fork_call(os._exit, 4)
    with pytest.raises(ForkError, match=r"forked _exit ended \(exit status 4\) without a result"):
        call.result()
    assert reaped(call.pid)


def test_uncollected_child_is_killed_and_reaped():
    t0 = time.monotonic()
    with pytest.raises(KeyError):
        with fork_call(time.sleep, 60) as call:
            raise KeyError("caller failed first")
    assert reaped(call.pid)
    assert time.monotonic() - t0 < 30
