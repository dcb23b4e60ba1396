"""Operation log, agreement gate and latency statistics shared by the workloads.

Every operation a workload runs goes through `OpLog`.  Its latency is held
back until the operation's output has passed the workload's own check, so a
wrong answer is counted as failed and never timed.  `HostSpeed` samples
the shared host's speed between timed intervals.
"""

from __future__ import annotations

import math
import time

# The package tolerance: closed forms must agree with the generic action,
# and averaging must intertwine convolution with the module action, to this
# relative residual.
TOL = 1e-9


def rel_residual(got, want) -> float:
    """max |got - want| / max |want| over two equal-length complex sequences."""
    if len(got) != len(want):
        return math.inf
    scale = max((abs(w) for w in want), default=0.0)
    diff = max((abs(g - w) for g, w in zip(got, want)), default=0.0)
    return diff / scale if scale > 0.0 else diff


class OpLog:
    """Latencies of passed operations, by kind, plus failure and residual counts.

    A workload times an operation with `pending`, and later settles it with
    `settle(op, residual)` once the check that covers it has run.  Only a
    settled operation whose residual is within `TOL` contributes a latency.
    """

    def __init__(self) -> None:
        self.latencies: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.max_residual = 0.0
        self.reasons: list[str] = []
        self.timeline: list[float] = []  # passed latencies in the order they settled

    def pending(self, kind: str, seconds: float) -> tuple[str, float]:
        self.attempted += 1
        return kind, seconds

    def settle(self, op: tuple[str, float], residual: float, what: str = "") -> bool:
        """Record the op's latency if `residual` passes; count it failed otherwise."""
        ok = residual <= TOL
        if ok:
            self.max_residual = max(self.max_residual, residual)
            self.latencies.setdefault(op[0], []).append(op[1])
            self.timeline.append(op[1])
        else:
            self.fail(op, f"{what or op[0]}: residual {residual:.3e} above {TOL:g}")
        return ok

    def fail(self, op: tuple[str, float], reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def ok(self, op: tuple[str, float]) -> None:
        """Settle an operation whose check is exact (exit code, counts, flags)."""
        self.settle(op, 0.0)

    @property
    def passed(self) -> int:
        return self.attempted - self.failed


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with ten samples beyond it.

    With fewer than 20 samples no percentile at or above the median has ten
    beyond it, so the maximum is reported as percentile 100.
    """
    n = len(values)
    ordered = sorted(values)
    if n < 20:
        return 100.0, ordered[-1]
    p = math.floor(100.0 * (n - 10) / n)
    rank = math.ceil(p * n / 100.0)  # nearest rank; at least ten lie beyond it
    return float(p), ordered[rank - 1]


# Host speed.  The benchmark shares its machine with other tenants, and the
# machine's speed drifts by up to 20% over seconds to minutes.  Every timed
# interval of a scaled workload (`run.HOST_SCALED`) is therefore bracketed
# by samples of a fixed interpreter loop, and its end-to-end times are
# reported in reference seconds: wall seconds times the loop's speed around
# that interval over its speed on the reference host, where one chunk takes
# REFERENCE_CHUNK_S.  The loop is code of the benchmark, so no change to
# covmod moves it; a covmod change moves the reported times as much as it
# moves the wall times.
REFERENCE_CHUNK_S = 0.0024  # one `_host_chunk` on a 2-vCPU Xeon, Python 3.11 (seen: 1.6 to 2.8 ms)
HOST_SHARE = 0.12  # a sample runs this share of the wall time of the interval before it
HOST_MIN_S = 0.1  # and at least this long

_HOST_INDEX = [(37 * i + 11) % 512 for i in range(512)]
_HOST_VALUES = [complex(i % 13 - 6, i % 7 - 3) / 8.0 for i in range(512)]


def _host_chunk() -> int:
    """Indexed complex multiply-adds, as in covmod's kernels, and integer and dict work."""
    acc = 0j
    index, values = _HOST_INDEX, _HOST_VALUES
    for _ in range(16):
        for i, j in enumerate(index):
            acc += values[i] * values[j].conjugate()
    s, d = 0, {}
    for i in range(10_000):
        s += i * i
        d[i & 63] = s
    return len(d) + int(acc.real)


class HostSpeed:
    """Samples of the host's speed, taken between the timed intervals of a run.

    The run samples once before its first interval and once after each; the
    interval `k` is then bracketed by samples `k` and `k + 1`.
    """

    def __init__(self) -> None:
        self.factors: list[float] = []
        self.chunks = 0
        self.seconds = 0.0

    def sample(self, seconds: float) -> float:
        """Run whole chunks of the fixed loop for about `seconds`; return the time taken."""
        t0 = time.perf_counter()
        deadline = t0 + seconds
        n = 0
        while True:
            _host_chunk()
            n += 1
            now = time.perf_counter()
            if now >= deadline:
                break
        self.chunks += n
        self.seconds += now - t0
        self.factors.append(REFERENCE_CHUNK_S * n / (now - t0))
        return now - t0

    def after(self, wall_s: float) -> float:
        """Sample after an interval of `wall_s`; return the time taken."""
        return self.sample(max(HOST_MIN_S, HOST_SHARE * wall_s))

    def around(self, k: int) -> float:
        """Reference seconds per wall second over interval `k`: below 1 on a slower host."""
        return 0.5 * (self.factors[k] + self.factors[k + 1])

    def factor(self) -> float:
        """The same over the whole run."""
        return REFERENCE_CHUNK_S * self.chunks / self.seconds
