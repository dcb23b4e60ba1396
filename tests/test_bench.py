import time

from covmod.bench import _time_per_call


def test_one_stalled_call_does_not_move_the_timing():
    calls = 0

    def fn():
        nonlocal calls
        calls += 1
        if calls == 25:
            time.sleep(0.02)

    assert _time_per_call(fn, 50) < 1e-4
