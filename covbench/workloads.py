"""The three workloads: a CLI session at order 512, library kernels at order
4096, and the verify corpus.

Each workload is a set-up plus a pass that can be repeated.  A pass runs the
workload's operations one at a time (closed loop, one client) and settles
every operation in the `OpLog` only after the check that covers it.  The CLI
and verify workloads run `covmod` commands through a runner, which is a
fresh `python -m covmod` process in a measured run and `covmod.cli.main`
in-process in a traced run.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import resource
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from measure import OpLog, rel_residual

# A command that runs longer than this is killed and counted as failed.
COMMAND_TIMEOUT_S = 120.0

CLI_M = 8  # WH(8, 8): order 512, center Z_8 at elements 0..7
CLI_MEMBERS = ",".join(str(t) for t in range(CLI_M))
CLI_ORDER = CLI_M**3
LIB_M = 16  # WH(16, 16): order 4096
LIB_REPEATS = 20
VERIFY_ROWS = 105
VERIFY_TRIALS = 50


class WarmUpError(Exception):
    """The untimed warm-up failed, so nothing can be timed."""


class SubprocessRunner:
    """Runs `python -m covmod ARGS` as a child and reaps it with `os.wait4`."""

    def __init__(self, src: Path, work: Path) -> None:
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.work = work
        self.max_rss_kb = 0

    def run(self, args: list[str], stdout: Path) -> tuple[float, int]:
        err = self.work / "stderr.txt"
        with open(stdout, "wb") as out, open(err, "wb") as errf:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "covmod", *args],
                cwd=self.work, env=self.env, stdout=out, stderr=errf,
            )
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        return seconds, code


class InProcessRunner:
    """Runs `covmod.cli.main(ARGS)` in this process, capturing its stdout."""

    def __init__(self, work: Path) -> None:
        import covmod.cli

        self.cli = covmod.cli
        self.work = work

    def run(self, args: list[str], stdout: Path) -> tuple[float, int]:
        with open(stdout, "w") as out, open(self.work / "stderr.txt", "w") as errf:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(errf):
                t0 = time.perf_counter()
                try:
                    code = self.cli.main(args)  # looked up per call, so tracing sees it
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code if isinstance(exc.code, int) else 2
                except Exception:
                    traceback.print_exc()
                    code = 1
                seconds = time.perf_counter() - t0
        return seconds, code


def _stderr_tail(work: Path) -> str:
    try:
        return (work / "stderr.txt").read_text().strip().splitlines()[-1][:200]
    except (OSError, IndexError):
        return ""


# ---------------------------------------------------------------- cli_wh512


def _write_function(path: Path, rng: random.Random, n: int) -> None:
    values = [[rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)] for _ in range(n)]
    path.write_text(json.dumps({"values": values}))


def _section(path: Path) -> tuple[dict, list[complex]]:
    doc = json.loads(path.read_text())
    return doc, [complex(re, im) for re, im in doc["section"]]


def cli_check(work: Path) -> float:
    """The closing checks of one CLI pass, on its output documents.

    Returns the worst relative residual; raises ValueError on a malformed or
    inconsistent output.  The identity is t_xi(f*g) = f . t_xi(g): the
    average of the convolution against the module action on the average.
    """
    left_doc, left = _section(work / "txi_fg.json")
    right_doc, right = _section(work / "act.json")
    for key in ("group", "normal", "character"):
        if left_doc[key] != right_doc[key]:
            raise ValueError(f"t_xi(f*g) and f.t_xi(g) differ in {key!r}")
    if len(left) != CLI_ORDER // CLI_M:
        raise ValueError(f"section has {len(left)} cosets, expected {CLI_ORDER // CLI_M}")
    residual = rel_residual(left, right)

    chars = (work / "chars.txt").read_text().split()
    if len(chars) != CLI_M:
        raise ValueError(f"chars list printed {len(chars)} characters, expected {CLI_M}")
    show = (work / "show.txt").read_text().split()
    if show[:2] != ["order", str(CLI_ORDER)]:
        raise ValueError(f"group show reports {show[:2]}")
    printed = float((work / "norm.txt").read_text())
    norm = math.sqrt(math.fsum(abs(v) ** 2 for v in right))
    return max(residual, abs(printed - norm) / norm)


def cli_pass(runner, work: Path, seed: int, index: int, log: OpLog) -> None:
    """One scripted session; its closing check gates every command in it."""
    rng = random.Random(f"{seed}:cli:{index}")
    _write_function(work / "f.json", rng, CLI_ORDER)
    _write_function(work / "g.json", rng, CLI_ORDER)
    char = str(rng.randrange(CLI_M))

    def w(name: str) -> str:
        return str(work / name)

    txi = ["--members", CLI_MEMBERS, "--char-index", char]
    script = [
        ("make", ["group", "make", "weyl-heisenberg", str(CLI_M), str(CLI_M), "--out", w("wh.json")], "make.txt"),
        ("table", ["group", "make", "table", w("wh.json"), "--out", w("tab.json")], "table.txt"),
        ("chars", ["chars", "list", w("tab.json"), "--members", CLI_MEMBERS], "chars.txt"),
        ("txi", ["txi", w("tab.json"), w("g.json"), *txi, "--out", w("txi_g.json")], "txi1.txt"),
        ("conv", ["conv", w("tab.json"), w("f.json"), w("g.json"), "--out", w("fg.json")], "conv.txt"),
        ("txi", ["txi", w("tab.json"), w("fg.json"), *txi, "--out", w("txi_fg.json")], "txi2.txt"),
        ("modact", ["modact", w("tab.json"), w("f.json"), w("txi_g.json"), "--out", w("act.json")], "modact.txt"),
        ("norm", ["norm", w("tab.json"), w("act.json")], "norm.txt"),
        ("show", ["group", "show", w("tab.json")], "show.txt"),
    ]
    ops, broken = [], ""
    for kind, args, out in script:
        seconds, code = runner.run(args, work / out)
        ops.append(log.pending(kind, seconds))
        if code != 0 and not broken:
            broken = f"cli {kind} exited {code}: {_stderr_tail(work)}"
    if not broken:
        try:
            residual = cli_check(work)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            broken = f"cli closing check: {exc!r}"
    for op in ops:
        if broken:
            log.fail(op, broken)
        else:
            log.settle(op, residual, "cli closing identity")


def cli_setup(runner, work: Path, seed: int) -> None:
    """One untimed warm-up command; each pass writes its own inputs."""
    del seed
    _, code = runner.run(
        ["group", "make", "weyl-heisenberg", str(CLI_M), str(CLI_M), "--out", str(work / "wh.json")],
        work / "make.txt",
    )
    if code != 0:
        raise WarmUpError(f"warm-up command exited {code}: {_stderr_tail(work)}")


# ------------------------------------------------------------ verify_corpus


def verify_seed(seed: int, index: int) -> int:
    return random.Random(f"{seed}:verify:{index}").randrange(2**31)


def verify_check(text: str) -> float:
    """Check one verify report; return its worst row residual."""
    report = json.loads(text)
    rows = report["checks"]
    if len(rows) != VERIFY_ROWS:
        raise ValueError(f"report has {len(rows)} rows, expected {VERIFY_ROWS}")
    bad = [f"{r['check']}/{r['config']}" for r in rows if r["passed"] is not True]
    if bad or report["passed"] is not True:
        raise ValueError(f"rows failed: {bad[:5]}")
    return max(float(r["residual"]) for r in rows)


def verify_pass(runner, work: Path, seed: int, index: int, log: OpLog) -> None:
    out = work / "verify.json"
    args = ["verify", "--seed", str(verify_seed(seed, index)), "--trials", str(VERIFY_TRIALS)]
    seconds, code = runner.run(args, out)
    op = log.pending("verify", seconds)
    if code != 0:
        log.fail(op, f"verify exited {code}: {_stderr_tail(work)}")
        return
    try:
        residual = verify_check(out.read_text())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        log.fail(op, f"verify report: {exc!r}")
        return
    log.ok(op)
    log.max_residual = max(log.max_residual, residual)


def verify_setup(runner, work: Path, seed: int) -> None:
    """One untimed warm-up verify run, checked like a timed one."""
    log = OpLog()
    verify_pass(runner, work, seed, -1, log)
    if log.failed:
        raise WarmUpError(f"warm-up verify failed: {log.reasons[0]}")


# --------------------------------------------------------------- lib_wh4096


class LibState:
    """WH(m,m) with its center and K fiber, their quotients and characters."""

    def __init__(self, m: int = LIB_M) -> None:
        from covmod import enumerate_characters, make_subgroup, quotient
        from covmod.semidirect import lift_subgroup, weyl_heisenberg_finite

        self.m = m
        self.sd = sd = weyl_heisenberg_finite(m, m)
        self.group = sd.product
        self.center = lift_subgroup(sd, make_subgroup(sd.k, range(m)))
        self.k = lift_subgroup(sd, make_subgroup(sd.k, range(m * m)))
        self.q_center = quotient(self.group, self.center)
        self.q_k = quotient(self.group, self.k)
        self.chars_center = enumerate_characters(self.center)
        self.chars_k = enumerate_characters(self.k)


def lib_pass(state: LibState, seed: int, index: int, log: OpLog, kernels=None) -> float:
    """Kernels at order 4096, each settled by its agreement check.

    Returns the seconds spent inside the timed kernel calls.  `kernels` maps
    a kind to a replacement callable; the benchmark's own test uses it to
    feed a deliberately wrong kernel through the gate.
    """
    from covmod import (
        conv_fast_full_k, conv_fast_wh_center, conv_fast_wh_full, convolve,
        module_action, random_function, t_xi,
    )

    k = dict(
        wh_center=conv_fast_wh_center, wh_full=conv_fast_wh_full,
        full_k=conv_fast_full_k, conv=convolve, modact=module_action, txi=t_xi,
    )
    k.update(kernels or {})
    m = state.m
    rng = random.Random(f"{seed}:lib:{index}")
    f = random_function(state.group, rng)
    g = random_function(state.group, rng)
    xc = state.chars_center[rng.randrange(len(state.chars_center))]
    xk = state.chars_k[rng.randrange(len(state.chars_k))]
    n_c = int(xc.phases[1] * m)
    y_k, n_k = int(xk.phases[m] * m), int(xk.phases[1] * m)

    kernel_s = 0.0

    def timed(kind, fn, *args):
        nonlocal kernel_s
        t0 = time.perf_counter()
        out = fn(*args)
        t = time.perf_counter() - t0
        kernel_s += t
        return out, log.pending(kind, t)

    pc, op_txi_c = timed("txi", k["txi"], g, xc, None, state.q_center)
    pk, op_txi_k = timed("txi_k", k["txi"], g, xk, None, state.q_k)
    ac, op_act_c = timed("modact", k["modact"], f, pc)
    ak, op_act_k = timed("modact_k", k["modact"], f, pk)
    fg, op_conv = timed("conv", k["conv"], f, g)

    # Averaging intertwines convolution with the module action; this one
    # identity covers t_xi, module_action and convolve on both fibers.
    res_c = rel_residual(t_xi(fg, xc, quot=state.q_center).section, ac.section)
    res_k = rel_residual(t_xi(fg, xk, quot=state.q_k).section, ak.section)
    ok_c = log.settle(op_txi_c, res_c, "t_xi(f*g) = f.t_xi(g) on the center")
    log.settle(op_act_c, res_c, "t_xi(f*g) = f.t_xi(g) on the center")
    ok_k = log.settle(op_txi_k, res_k, "t_xi(f*g) = f.t_xi(g) on K")
    log.settle(op_act_k, res_k, "t_xi(f*g) = f.t_xi(g) on K")
    log.settle(op_conv, max(res_c, res_k), "t_xi(f*g) = f.t_xi(g)")

    # The millisecond kernels are called LIB_REPEATS times per pass, round
    # robin, so their latencies are medians of many samples.  Each call is
    # checked against a result the intertwining identity has already passed.
    cheap = [
        ("txi", k["txi"], (g, xc, None, state.q_center), pc, ok_c),
        ("txi_k", k["txi"], (g, xk, None, state.q_k), pk, ok_k),
        ("wh_center", k["wh_center"], (state.sd, f, pc, n_c), ac, ok_c),
        ("wh_full", k["wh_full"], (state.sd, f, pk, y_k, n_k), ak, ok_k),
        ("full_k", k["full_k"], (state.sd, f, pk), ak, ok_k),
    ]
    for _ in range(LIB_REPEATS):
        for kind, fn, args, reference, reference_ok in cheap:
            out, op = timed(kind, fn, *args)
            if reference_ok:
                log.settle(op, rel_residual(out.section, reference.section), f"{kind} agreement")
            else:
                log.fail(op, f"{kind}: its reference failed the intertwining check")
    return kernel_s


def lib_session(state: LibState, seed: int, index: int, log: OpLog, calls: OpLog,
                kernels=None) -> None:
    """One pass as one operation of `log`, its calls settled in `calls`.

    The pass is timed as the sum of its kernel calls and passes only if
    every call passed.  Each pass's calls are dominated by seconds-long
    convolve and module_action runs, so pass latencies average over the
    machine's speed swings, where millisecond calls would sample them.
    """
    failed = calls.failed
    seconds = lib_pass(state, seed, index, calls, kernels)
    op = log.pending("pass", seconds)
    if calls.failed == failed:
        log.ok(op)
    else:
        log.fail(op, f"lib pass {index}: {calls.failed - failed} kernel calls failed their check")


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
