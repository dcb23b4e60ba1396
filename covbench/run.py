"""covmod benchmark: one workload per run, end-to-end or traced.

    python3 covbench/run.py --workload cli_wh512 --seed 1 --seconds 20 --trace 0
    python3 covbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a covmod checkout; the package is imported from its
`src/` directory, never from an installed copy.  Workloads:

  cli_wh512      `python -m covmod` commands on WH(8,8), order 512
  lib_wh4096     library kernels on WH(16,16), order 4096
  verify_corpus  `python -m covmod verify --trials 50` runs

With `--trace 0` the run prints the end-to-end metrics, the times of the
subprocess workloads in reference seconds (`measure.HostSpeed`); with
`--trace 1` it drives the same workload in-process, untraced and then
traced, and prints the per-layer metrics.  The last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  The exit
code is 0 when every operation passed its check, 1 when one failed, 2 on a
usage or environment error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import layertrace  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("cli_wh512", "lib_wh4096", "verify_corpus")
# Workloads whose times are scaled by the host's speed (`measure.HostSpeed`).
# lib_wh4096 is bound by memory latency in its order-4096 tables, which the
# cache-resident sampling loop does not follow, so it reports wall seconds.
HOST_SCALED = ("cli_wh512", "verify_corpus")
SETUP_REPEATS = 3  # set-up is timed this many times per run; the median is reported
# A measured run makes at least this many passes, so a CLI run has the 20
# commands its tail percentile needs however slow the machine is.
MIN_PASSES = 3
IMPORT_REPEATS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The run cannot start: the sources are missing or COVMOD_THREADS is set."""


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy

    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "COVMOD_THREADS": os.environ.get("COVMOD_THREADS"),
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
    }


def _import_covmod() -> None:
    import covmod

    where = Path(covmod.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"covmod was imported from {where}, not from {SRC}")


def _passes(
    seconds: float, run_pass, start: int = 0, least: int = 1,
    host: measure.HostSpeed | None = None,
) -> tuple[list[float], float]:
    """Run passes until `seconds` have elapsed and `least` have run.

    Returns the passes' walls and the elapsed time.  With `host`, the host's
    speed is sampled after every pass, and the sampling is not counted in
    the elapsed time.
    """
    walls = []
    t_start = time.perf_counter()
    deadline = t_start + seconds
    sampling = 0.0
    index = start
    while True:
        t0 = time.perf_counter()
        run_pass(index)
        walls.append(time.perf_counter() - t0)
        index += 1
        if host is not None:
            sampling += host.after(walls[-1])
        if len(walls) >= least and time.perf_counter() >= deadline:
            return walls, time.perf_counter() - t_start - sampling


def _subprocess_workload(name: str):
    if name == "cli_wh512":
        return wl.cli_setup, wl.cli_pass
    return wl.verify_setup, wl.verify_pass


def measured_run(name: str, seed: int, seconds: float, work: Path) -> tuple[dict, measure.OpLog, dict]:
    """End-to-end metrics with tracing off, times in reference seconds where scaled."""
    log = calls = measure.OpLog()
    host = measure.HostSpeed() if name in HOST_SCALED else None
    if host:
        host.sample(measure.HOST_MIN_S)  # brackets the first set-up
    setups = []

    def timed_setup(make):
        t0 = time.perf_counter()
        out = make()
        setups.append(time.perf_counter() - t0)
        if host:
            host.after(setups[-1])
        return out

    if name == "lib_wh4096":
        _import_covmod()
        for _ in range(SETUP_REPEATS):
            state = None  # free the previous build before timing the next
            gc.collect()
            state = timed_setup(wl.LibState)
        calls = measure.OpLog()  # a lib operation is a pass; its kernel calls are settled here

        def run_pass(i):
            wl.lib_session(state, seed, i, log, calls)

        peak = wl.max_rss_mb
    else:
        setup, pass_fn = _subprocess_workload(name)
        runner = wl.SubprocessRunner(SRC, work)
        for _ in range(SETUP_REPEATS):
            timed_setup(lambda: setup(runner, work, seed))
        runner.max_rss_kb = 0  # the timed phase's children only

        def run_pass(i):
            pass_fn(runner, work, seed, i, log)

        def peak():
            return runner.max_rss_kb / 1024.0

    marks = []  # where each pass's latencies start in log.timeline

    def marked_pass(i):
        marks.append(len(log.timeline))
        run_pass(i)

    walls, elapsed = _passes(seconds, marked_pass, least=MIN_PASSES, host=host)
    marks.append(len(log.timeline))
    peak_mb = peak()

    # Interval k of the run is bracketed by host samples k and k + 1: the
    # set-ups first, then the passes.
    scale = host.around if host else lambda k: 1.0
    first = len(setups)
    ref_setups = [s * scale(k) for k, s in enumerate(setups)]
    ref_walls = [w * scale(first + i) for i, w in enumerate(walls)]
    ref_lat = [
        x * scale(first + i)
        for i in range(len(walls)) for x in log.timeline[marks[i]:marks[i + 1]]
    ]
    detail = {
        "host_factor": host.factor() if host else None,
        "host_factors": host.factors if host else [],
        "setup_samples_wall_s": setups, "passes": len(walls), "timed_wall_s": elapsed,
        "pass_walls_s": walls, "pass_marks": marks, "latencies_wall_s": log.timeline,
    }
    if not ref_lat:
        return {}, log, detail
    lat = log.timeline
    tail_p, tail_v = measure.tail(lat)
    detail.update(
        samples=len(lat), tail_percentile=tail_p,
        wall={
            "setup_s": statistics.median(setups),
            "ops_per_s": log.passed / elapsed,
            "op_p50_s": statistics.median(lat),
            "op_tail_s": tail_v,
        },
        kind_p50_wall_s={k: statistics.median(v) for k, v in sorted(calls.latencies.items())},
        kind_samples={k: len(v) for k, v in sorted(calls.latencies.items())},
        max_residual=calls.max_residual,
    )
    metrics = {
        "setup_s": statistics.median(ref_setups),
        "ops_per_s": log.passed / sum(ref_walls),
        "op_p50_s": statistics.median(ref_lat),
        "op_tail_s": measure.tail(ref_lat)[1],
        "peak_rss_mb": peak_mb,
    }
    return metrics, log, detail


def _import_seconds() -> float:
    """A fresh interpreter's `import covmod` minus `python -c pass`, medians."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = {"pass": [], "import covmod": []}
    for _ in range(IMPORT_REPEATS):
        for code in samples:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60,
                           stdout=subprocess.DEVNULL)
            samples[code].append(time.perf_counter() - t0)
    return statistics.median(samples["import covmod"]) - statistics.median(samples["pass"])


def traced_run(name: str, seed: int, seconds: float, work: Path) -> tuple[dict, measure.OpLog, dict]:
    """Per-layer metrics: untraced passes, traced passes, then a memory pass."""
    _import_covmod()
    tracer = layertrace.Tracer()
    log = measure.OpLog()
    if name == "lib_wh4096":
        tracer.install()
        state = wl.LibState()
        tracer.uninstall()

        def run_pass(i):
            wl.lib_pass(state, seed, i, log)
    else:
        setup, pass_fn = _subprocess_workload(name)
        runner = wl.InProcessRunner(work)
        setup(runner, work, seed)  # the warm-up is not traced

        def run_pass(i):
            pass_fn(runner, work, seed, i, log)
    setup_window = tracer.begin()
    import_s = _import_seconds()

    walls_u, _ = _passes(seconds / 2, run_pass)
    kinds = {k: list(v) for k, v in log.latencies.items()}  # untraced latencies only
    windows, walls_t = [], []
    tracer.install()
    try:
        def traced_pass(i):
            run_pass(i)
            windows.append(tracer.begin())

        walls_t, _ = _passes(seconds / 2, traced_pass, start=len(walls_u))
        if name != "lib_wh4096":
            # tracemalloc would need about a gigabyte of bookkeeping for the
            # order-4096 build, so lib_wh4096 keeps the RSS growth instead.
            tracer.memory_mode = True
            run_pass(len(walls_u) + len(walls_t))
    finally:
        tracer.uninstall()

    metrics = layertrace.layer_metrics(tracer, setup_window, windows)
    metrics["cli.import_s"] = import_s
    metrics["trace.coverage_frac"] = sum(w.covered_s for w in windows) / sum(walls_t)
    metrics["trace.overhead_frac"] = statistics.mean(walls_t) / statistics.mean(walls_u) - 1.0
    for kind in layertrace.KINDS:
        metrics[f"{kind}_p50_s"] = statistics.median(kinds[kind]) if kind in kinds else 0.0
    metrics["max_residual"] = log.max_residual
    metrics["failed_frac"] = log.failed / max(log.attempted, 1)
    detail = {
        "hot_spot": layertrace.hot_spot(metrics),
        "untraced_passes": len(walls_u),
        "traced_passes": len(walls_t),
        "madds": "computed from group sizes by the docstring cost formulas, not counted",
    }
    return metrics, log, detail


EXPECTED_HOT_SPOT = {
    "cli_wh512": "groups.make_from_table",
    "lib_wh4096": "convolution.convolve",
}


def run_one(name: str, seed: int, seconds: float, traced: bool) -> int:
    if not (SRC / "covmod" / "__init__.py").is_file():
        raise BenchError(f"no covmod sources at {SRC}; run from the root of a covmod checkout")
    if "COVMOD_THREADS" in os.environ:
        raise BenchError("COVMOD_THREADS is set; the benchmark measures the default, unset")
    sys.path.insert(0, str(SRC))
    env = environment(seed)
    work = ROOT / ".covbench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = traced_run if traced else measured_run
        metrics, log, detail = run(name, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    env["loadavg_end"] = list(os.getloadavg())

    specs = layertrace.per_layer_specs() if traced else [
        {"name": n, "unit": u} for n, u in END_TO_END
    ]
    correct = log.failed == 0 and bool(metrics)
    print(json.dumps({"workload": name, "trace": int(traced), "env": env, "detail": detail}))
    for reason in log.reasons:
        print(f"FAILED  {reason}")
    expected = EXPECTED_HOT_SPOT.get(name)
    if traced and expected and detail["hot_spot"] != expected:
        print(f"note: largest self time is {detail['hot_spot']}, not {expected}")
    for spec in specs:
        if spec["name"] in metrics:
            print(f"{name:14s} {spec['name']:48s} {metrics[spec['name']]:.6g} {spec['unit']}")
    result = {
        "correct": correct,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {
            s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]}
            for s in specs if s["name"] in metrics
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Each workload in a fresh process, so each peak memory is its own."""
    worst = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(traced))]
        worst = max(worst, subprocess.run(argv, timeout=900).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except wl.WarmUpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
