"""A time limit on every test, so a loop that never ends fails its own test
instead of hanging the whole suite.  The slowest test takes a few seconds,
far under the limit.  The limit needs SIGALRM, so where there is none
(Windows) tests run without it."""

import signal

import pytest

TIME_LIMIT_S = 120


@pytest.fixture(autouse=True)
def time_limit(request):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran over {TIME_LIMIT_S} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
