"""Tests of the benchmark itself: the agreement gate, the tail rule, the
tracer, and the agreement between `run.py` and `BENCHMARK.json`.

    PYTHONPATH=src python -m pytest covbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layertrace  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


LIB_OPS = 5 + 5 * wl.LIB_REPEATS  # five gated by the identity, five repeated


@pytest.fixture(scope="module")
def small_lib():
    return wl.LibState(m=4)  # WH(4,4), order 64: the lib pass at a test-sized order


def _perturbed(kernel):
    def wrong(*args):
        out = kernel(*args)
        section = list(out.section)
        section[0] += 1e-3 * max(abs(v) for v in section)
        return type(out)(out.quotient, out.character, tuple(section))

    return wrong


def test_lib_pass_times_only_what_agrees(small_lib):
    log = measure.OpLog()
    wl.lib_pass(small_lib, seed=7, index=0, log=log)
    assert (log.attempted, log.failed) == (LIB_OPS, 0)
    assert 0.0 < log.max_residual <= measure.TOL


def test_wrong_closed_form_is_counted_failed_not_timed(small_lib):
    from covmod import conv_fast_wh_center

    log = measure.OpLog()
    wl.lib_pass(small_lib, 7, 0, log, kernels={"wh_center": _perturbed(conv_fast_wh_center)})
    assert (log.attempted, log.failed) == (LIB_OPS, wl.LIB_REPEATS)
    assert "wh_center" not in log.latencies
    assert "wh_full" in log.latencies and "conv" in log.latencies


def test_lib_session_is_one_operation_failed_by_any_call(small_lib):
    from covmod import conv_fast_full_k

    log, calls = measure.OpLog(), measure.OpLog()
    wl.lib_session(small_lib, 7, 0, log, calls)
    wl.lib_session(small_lib, 7, 1, log, calls, kernels={"full_k": _perturbed(conv_fast_full_k)})
    assert (log.attempted, log.failed) == (2, 1)
    assert len(log.latencies["pass"]) == 1
    assert calls.failed == wl.LIB_REPEATS


def test_wrong_module_action_fails_everything_it_gates(small_lib):
    from covmod import module_action

    log = measure.OpLog()
    wl.lib_pass(small_lib, 7, 0, log, kernels={"modact": _perturbed(module_action)})
    assert log.failed == LIB_OPS  # averages, actions, convolve and closed forms all rest on it
    assert log.latencies == {}


class CorruptingRunner(wl.InProcessRunner):
    """Runs the CLI in-process, then damages the module action's output."""

    def run(self, args, stdout):
        seconds, code = super().run(args, stdout)
        if args[0] == "modact":
            path = Path(args[args.index("--out") + 1])
            doc = json.loads(path.read_text())
            doc["section"][0][0] += 1.0
            path.write_text(json.dumps(doc))
        return seconds, code


def test_cli_closing_identity_gates_the_whole_pass(tmp_path):
    log = measure.OpLog()
    wl.cli_pass(CorruptingRunner(tmp_path), tmp_path, seed=3, index=0, log=log)
    assert (log.attempted, log.failed) == (9, 9)
    assert log.latencies == {}
    assert "closing identity" in log.reasons[0]


def _report(rows: int, failing: int = 0) -> str:
    checks = [
        {"check": "c", "config": str(i), "residual": 1e-15, "tol": 1e-9, "passed": i >= failing}
        for i in range(rows)
    ]
    return json.dumps({"checks": checks, "passed": failing == 0})


def test_verify_check():
    assert wl.verify_check(_report(wl.VERIFY_ROWS)) == 1e-15
    with pytest.raises(ValueError, match="rows failed"):
        wl.verify_check(_report(wl.VERIFY_ROWS, failing=1))
    with pytest.raises(ValueError, match="expected 105"):
        wl.verify_check(_report(104))


@pytest.mark.parametrize("n", [1, 8, 19, 20, 27, 100, 1000])
def test_tail_has_ten_samples_beyond_it(n):
    values = [float(i) for i in range(n)]
    p, v = measure.tail(values)
    if n < 20:
        assert (p, v) == (100.0, n - 1)
    else:
        assert p >= 50.0
        assert sum(x > v for x in values) >= 10
        assert n - math.ceil((p + 1) * n / 100) < 10  # the next percentile has fewer


def test_host_sampling_is_left_out_of_the_timed_phase():
    host = measure.HostSpeed()
    walls, elapsed = run._passes(0.0, lambda i: time.sleep(0.05), least=3, host=host)
    assert len(walls) == 3
    assert host.seconds >= 3 * measure.HOST_MIN_S
    assert sum(walls) <= elapsed < sum(walls) + 0.05
    assert host.chunks > 0 and host.factor() > 0.0


def test_tracer_self_time_nests_and_uninstall_restores():
    import covmod
    import covmod.convolution as conv
    import covmod.covariant as cov
    import covmod.verify as verify

    originals = (conv.module_action, cov.CovariantFunction.full, verify.CHECKS, verify.t_xi)
    g = covmod.make_cyclic(6)
    n = covmod.make_subgroup(g, (0, 2, 4))
    chars = covmod.enumerate_characters(n)
    f = covmod.GroupFunction(g, tuple(complex(i) for i in range(6)))

    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert verify.t_xi is not originals[3]  # bound by name on import, also wrapped
        assert all(hasattr(c, "__wrapped__") for c in verify.CHECKS)
        psi = covmod.t_xi(f, chars[1])
        conv.module_action(f, psi)
    finally:
        tracer.uninstall()
    window = tracer.begin()
    assert (conv.module_action, cov.CovariantFunction.full, verify.CHECKS, verify.t_xi) == originals
    assert window.calls["convolution.module_action"] == 1
    assert window.calls["covariant.CovariantFunction.full"] == 1
    assert window.calls["groups.quotient"] == 1 and window.calls["groups.is_normal"] == 1
    assert window.madds["convolution.module_action"] == 6 * 2
    # quotient is t_xi's child, is_normal is quotient's: each self time excludes its children
    total = sum(window.self_s.values())
    assert total == pytest.approx(window.covered_s)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert spec["per_layer"] == layertrace.per_layer_specs()
    assert spec["paths"] == [HERE.name]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "cli_wh512", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout == ""
    assert "no covmod sources" in out.stderr
