"""Test-suite settings: property tests draw the same examples on every run,
and a test that runs past `TEST_SECONDS`, or while the process holds more
than `TEST_RESIDENT`, fails instead of hanging the suite or exhausting memory.
The `closure_results` fixture records what the library's `closure` and its
lifting walk return."""

import itertools
import os
import signal
import sys

from hypothesis import settings
import pytest

from modp_hecke import affine_weyl, root_datum

settings.register_profile("tier1", derandomize=True, max_examples=40, deadline=None)
settings.load_profile("tier1")

TEST_SECONDS = 60  # the slowest test takes a few seconds
TEST_RESIDENT = 2 << 30  # bytes; the whole suite peaks near 100 MB resident


class LimitExceeded(BaseException):
    """Raised in a test that runs past TEST_SECONDS or while the process holds
    more than TEST_RESIDENT.  Not an Exception, so that hypothesis, which
    catches those and replays the example, lets it through to pytest, which
    reports the test as failed and goes on."""


def _resident_bytes() -> int:
    """This process's resident set size, or 0 where /proc is not mounted."""
    try:
        with open("/proc/self/statm") as statm:
            return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return 0


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call():
    """Check the test body once a second, where SIGALRM exists; the check is
    off again before pytest reports the result.  A runaway enumeration (an
    unbounded closure) grows by tens of MB a second, so the memory bound
    stops it well before the time limit would.  The bound is on the process,
    not the test: what a runaway interned in a shared datum stays, and a
    test after it that runs for a second fails instead of adding to it."""
    if not hasattr(signal, "SIGALRM"):
        return (yield)
    seconds = itertools.count(1)

    def check(signum, frame):
        where = f"{frame.f_code.co_filename}:{frame.f_lineno} in {frame.f_code.co_name}"
        if next(seconds) >= TEST_SECONDS:
            raise LimitExceeded(f"test ran past {TEST_SECONDS} s, at {where}")
        if _resident_bytes() > TEST_RESIDENT:
            raise LimitExceeded(f"process holds over {TEST_RESIDENT} bytes, at {where}")

    previous = signal.signal(signal.SIGALRM, check)
    signal.setitimer(signal.ITIMER_REAL, 1, 1)
    try:
        return (yield)
    except LimitExceeded as exc:
        # The message names where the test was stopped.  Its traceback is
        # dropped, as the interrupted frame may have no line number, which
        # pytest cannot report.
        raise exc.with_traceback(None) from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def closure_results(monkeypatch):
    """A list that gains every set `closure` returns during the test, and the
    set of what each lifting walk (`affine_weyl._lower_quotient`) yields, which
    grows as the walk does: both are patched in every library module that
    binds them."""
    real, real_walk, results = root_datum.closure, affine_weyl._lower_quotient, []

    def recorded(*args, **kwargs):
        results.append(out := real(*args, **kwargs))
        return out

    def recorded_walk(*args, **kwargs):
        results.append(out := set())
        for v in real_walk(*args, **kwargs):
            out.add(v)
            yield v

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "modp_hecke":
            if getattr(module, "closure", None) is real:
                monkeypatch.setattr(module, "closure", recorded)
            if getattr(module, "_lower_quotient", None) is real_walk:
                monkeypatch.setattr(module, "_lower_quotient", recorded_walk)
    return results
