import time
from fractions import Fraction

import pytest

from covmod import bench
from covmod.bench import _times_per_call


def test_one_stalled_call_does_not_move_the_timing():
    calls = 0

    def fn():
        nonlocal calls
        calls += 1
        if calls == 25:
            time.sleep(0.02)

    assert _times_per_call({None: fn}, 50)[None] < 1e-4


@pytest.mark.parametrize("m, r", [(1, 1), (2, 2), (2, 4), (4, 4), (3, 9), (4, 8)])
def test_bench_builds_the_characters_the_entry_points_check(m, r, monkeypatch):
    built = []
    monkeypatch.setattr(bench, "_run_variant", lambda sd, name, char, *rest: built.append(char))
    bench.run_bench(m, r)
    n, y = 1 % r, 1 % m
    center = tuple(Fraction(n * t, r) for t in range(r))
    fiber = tuple((Fraction(y * l, m) + Fraction(n * t, r)) % 1 for l in range(m) for t in range(r))
    assert [c.domain.members for c in built] == [tuple(range(r)), tuple(range(m * r))]
    assert [c.phases for c in built] == [center, fiber]
