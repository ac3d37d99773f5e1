"""The forked-call helpers: results cross the pipe bit for bit, errors keep
their type and order, and every child is reaped."""

import os
import time

import numpy as np
import pytest

from cellcast import _fork
from cellcast._fork import ForkError, fork_call, in_halves
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


class TestInHalves:
    """in_halves yields run's results in order, forking the second half of
    each round of two or more items when a second CPU is usable."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """Pin can_fork on and spy on fork_call; returns the handles it made."""
        handles = []
        real = _fork.fork_call

        def spy(fn, *args):
            handles.append(real(fn, *args))
            return handles[-1]

        monkeypatch.setattr(_fork, "can_fork", lambda: True)
        monkeypatch.setattr(_fork, "fork_call", spy)
        return handles

    @staticmethod
    def squares(lo, hi):
        return (i * i for i in range(lo, hi))

    def test_rounds_come_in_order_with_one_fork_each(self, forks):
        """n = 7 in rounds of 2 is 2+2+2+1: three forks, the last round inline."""
        assert list(in_halves(self.squares, 7, 2)) == [i * i for i in range(7)]
        assert len(forks) == 3
        assert all(reaped(call.pid) for call in forks)

    def test_one_round_by_default(self, forks):
        assert list(in_halves(self.squares, 5)) == [i * i for i in range(5)]
        assert len(forks) == 1

    @pytest.mark.parametrize("per_round", [None, 3])
    def test_no_items_yield_nothing_and_fork_nothing(self, forks, per_round):
        assert list(in_halves(self.squares, 0, per_round)) == []
        assert forks == []

    def test_one_item_runs_inline(self, forks):
        parent = os.getpid()
        assert list(in_halves(lambda lo, hi: [os.getpid()] * (hi - lo), 1)) == [parent]
        assert forks == []

    def test_without_a_second_cpu_everything_runs_inline(self, forks, monkeypatch):
        monkeypatch.setattr(_fork, "can_fork", lambda: False)
        parent = os.getpid()
        pids = list(in_halves(lambda lo, hi: [os.getpid()] * (hi - lo), 4, 2))
        assert pids == [parent] * 4
        assert forks == []

    def test_the_second_half_runs_in_the_child(self, forks):
        """Seven items split 4 + 3: this process runs the first four."""
        parent = os.getpid()
        pids = list(in_halves(lambda lo, hi: [os.getpid()] * (hi - lo), 7))
        assert pids[:4] == [parent] * 4
        assert pids[4:] == [forks[0].pid] * 3

    def test_first_half_error_does_not_wait_for_the_child(self, forks):
        def run(lo, hi):
            if lo == 0:
                raise KeyError("first half failed")
            time.sleep(60)
            return []

        t0 = time.monotonic()
        with pytest.raises(KeyError, match="first half failed"):
            list(in_halves(run, 2))
        assert reaped(forks[0].pid)
        assert time.monotonic() - t0 < 30

    def test_child_error_follows_the_first_half(self, forks):
        def run(lo, hi):
            if lo > 0:
                raise TrainError(f"items {lo}..{hi - 1} failed")
            return range(lo, hi)

        got = []
        with pytest.raises(TrainError, match=r"^items 2\.\.3 failed$"):
            for value in in_halves(run, 4):
                got.append(value)
        assert got == [0, 1]
        assert reaped(forks[0].pid)

    def test_child_that_exits_early_names_run(self, forks):
        def training(lo, hi):
            if lo > 0:
                os._exit(3)
            return range(lo, hi)

        with pytest.raises(ForkError, match=r"^forked training ended \(exit status 3\) without a result$"):
            list(in_halves(training, 2))
        assert reaped(forks[0].pid)
