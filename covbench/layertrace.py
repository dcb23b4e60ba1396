"""Layer trace taken from outside the package.

`Tracer.install` replaces each public function named in `TARGETS` with a
timing wrapper, both at its home module and wherever another covmod module
bound it by name on import (including `verify.CHECKS`).  Spans nest: a
span's self time is its duration minus the time its child spans cover.
Counts, self times, computed multiply-adds and distinct inputs accumulate
into the current `Window`; the caller opens one window per set-up or pass.

In memory mode the wrappers only run tracemalloc around the calls named in
`MEMORY`, so peak memory is taken in a pass of its own and tracemalloc's
cost does not land in any self time.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

TARGETS = {
    "groups": ("make_from_table", "make_subgroup", "quotient", "is_normal",
               "group_center", "lp_norm", "weil_residual"),
    "characters": ("enumerate_characters", "make_character", "char_inner", "pullback"),
    "covariant": ("t_xi", "cov_norm", "CovariantFunction.full"),
    "convolution": ("convolve", "module_action", "covariance_residual",
                    "verify_module_axioms"),
    "semidirect": ("semidirect", "conv_fast_wh_center", "conv_fast_wh_full",
                   "conv_fast_full_k"),
    "jsonio": ("group_from_json", "group_id", "dumps", "function_from_json",
               "covariant_from_json"),
    "cli": ("main",),
}

VERIFY_CHECKS = (
    "check_weil", "check_characters", "check_txi_covariance", "check_txi_averaging",
    "check_norm_identity", "check_txi_homomorphism", "check_norm_bound",
    "check_module_axioms", "check_trivial_identification", "check_full_agreement",
    "check_covariance_shape", "check_semidirect_structure", "check_fast_kernels",
    "check_pullback_shift", "fast_grid_rows",
)

ERROR_MODULES = ("groups", "characters", "covariant", "convolution", "semidirect",
                 "jsonio", "verify", "cli")

MEMORY = ("groups.make_from_table", "semidirect.semidirect", "jsonio.dumps")


def _shear_sizes(sd) -> tuple[int, int]:
    m = sd.h.order
    return m, sd.k.order // m


def _madds_wh_center(args) -> int:
    m, r = _shear_sizes(args[0])
    return m * m * r + m**4  # t-sum over the fiber, then the (m', l') double sum per coset


def _madds_wh_full(args) -> int:
    m, r = _shear_sizes(args[0])
    return m * m * r + m**3 + m * m  # t-sum, l-sum, length-m correlation


# Multiply-adds per call, computed from group sizes by the cost formulas in
# the convolution and semidirect docstrings.  They are not counted.
MADDS = {
    "convolution.convolve": lambda a: a[0].group.order ** 2,
    "convolution.module_action": lambda a: a[0].group.order * a[1].quotient.order,
    "covariant.t_xi": lambda a: a[0].group.order,
    "semidirect.conv_fast_wh_center": _madds_wh_center,
    "semidirect.conv_fast_wh_full": _madds_wh_full,
    "semidirect.conv_fast_full_k": lambda a: a[0].h.order ** 2 * a[0].k.order,
}


def _subgroup_key(args, result):
    dom = args[0]
    parent = getattr(dom, "parent", dom)
    members = getattr(dom, "members", None) or range(parent.order)
    return hash(parent.mul), tuple(members)


# Distinct inputs per window, for the waste ratios: calls per distinct group
# fingerprinted, table validated, and subgroup enumerated.
DISTINCT = {
    "jsonio.group_id": ("calls_per_group", "calls/group", lambda a, r: r),
    "groups.make_from_table": ("calls_per_table", "calls/table", lambda a, r: hash(r.mul)),
    "characters.enumerate_characters": ("calls_per_subgroup", "calls/subgroup", _subgroup_key),
}

# Per-kind latency medians, from the untraced passes of a traced run.
KINDS = ("make", "table", "chars", "txi", "txi_k", "conv", "modact", "modact_k",
         "wh_center", "wh_full", "full_k")


def traced_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]
    return names + [f"verify.{c}" for c in VERIFY_CHECKS]


def per_layer_specs() -> list[dict]:
    """Every per-layer metric a traced run reports, in report order."""
    specs = []

    def add(name, unit, better):
        specs.append({"name": name, "unit": unit, "better": better})

    for mod, fns in TARGETS.items():
        for fn in fns:
            add(f"{mod}.{fn}.calls", "count", "lower")
            add(f"{mod}.{fn}.self_s", "s", "lower")
    for check in VERIFY_CHECKS:
        add(f"verify.{check}.self_s", "s", "lower")
    for name, (ratio, unit, _) in DISTINCT.items():
        add(f"{name}.{ratio}", unit, "lower")
    for name in MADDS:
        add(f"{name}.madds_per_s", "madd/s", "higher")
    for name in MEMORY:
        add(f"{name}.peak_mb", "MB", "lower")
    for mod in ERROR_MODULES:
        add(f"{mod}.errors", "count", "lower")
    add("cli.import_s", "s", "lower")
    add("trace.coverage_frac", "frac", "higher")
    add("trace.overhead_frac", "frac", "lower")
    for kind in KINDS:
        add(f"{kind}_p50_s", "s", "lower")
    add("max_residual", "rel", "lower")
    add("failed_frac", "frac", "lower")
    return specs


class Window:
    """Everything the wrappers record between two `Tracer.begin` calls."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.madds: defaultdict = defaultdict(float)
        self.keys: defaultdict = defaultdict(set)
        self.errors: Counter = Counter()
        self.rss_growth_mb: dict = {}
        self.covered_s = 0.0  # time inside top-level spans


class Tracer:
    def __init__(self) -> None:
        self.window = Window()
        self.memory_mode = False
        self.peak_mb: dict[str, float] = {}
        self._stack: list[float] = []
        self._patched: list = []

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        for name in ("covmod.cli", "covmod.verify"):  # not all loaded by `import covmod`
            importlib.import_module(name)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "covmod" or n.startswith("covmod.")]
        for name in traced_names():
            mod_name, _, qual = name.partition(".")
            home = sys.modules[f"covmod.{mod_name}"]
            if "." in qual:  # a method: patch it on its class
                cls_name, meth = qual.split(".")
                cls = getattr(home, cls_name)
                original = vars(cls)[meth]
                self._set(cls, meth, self._wrap(name, mod_name, original))
                continue
            original = getattr(home, qual)
            wrapper = self._wrap(name, mod_name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)
        verify = sys.modules["covmod.verify"]
        wrapped = {c.__wrapped__: c for c in
                   (getattr(verify, n) for n in VERIFY_CHECKS) if hasattr(c, "__wrapped__")}
        self._set(verify, "CHECKS", tuple(wrapped.get(c, c) for c in verify.CHECKS))

    def uninstall(self) -> None:
        while self._patched:
            obj, attr, old = self._patched.pop()
            setattr(obj, attr, old)

    def _set(self, obj, attr, value) -> None:
        self._patched.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def _wrap(self, name: str, module: str, fn):
        tracer = self
        stack = self._stack
        madds = MADDS.get(name)
        distinct = DISTINCT.get(name, (None, None, None))[2]
        memory = name in MEMORY
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if tracer.memory_mode:
                if not memory or tracemalloc.is_tracing():
                    return fn(*args, **kwargs)
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    tracer.peak_mb[name] = max(tracer.peak_mb.get(name, 0.0), peak)
            w = tracer.window
            if memory:
                rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                w.errors[module] += 1
                raise
            finally:
                dur = clock() - t0
                w.self_s[name] += dur - stack.pop()
                w.calls[name] += 1
                if stack:
                    stack[-1] += dur
                else:
                    w.covered_s += dur
            if madds is not None:
                w.madds[name] += madds(args)
            if distinct is not None:
                w.keys[name].add(distinct(args, result))
            if memory:
                grown = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0) / 1024
                w.rss_growth_mb[name] = max(w.rss_growth_mb.get(name, 0.0), grown)
            return result

        return functools.wraps(fn)(traced)

    # ------------------------------------------------------------- windows

    def begin(self) -> Window:
        """Close the current window and open a fresh one; return the closed one."""
        done, self.window = self.window, Window()
        return done


def combine(setup: Window, passes: list[Window]) -> dict:
    """One set-up plus the mean pass: calls, self time, madds, distinct, errors."""
    n = max(len(passes), 1)

    def total(attr, key):
        return getattr(setup, attr)[key] + sum(getattr(p, attr)[key] for p in passes) / n

    names = traced_names()
    return {
        "calls": {k: total("calls", k) for k in names},
        "self_s": {k: total("self_s", k) for k in names},
        "madds": {k: total("madds", k) for k in MADDS},
        "distinct": {
            k: len(setup.keys[k]) + sum(len(p.keys[k]) for p in passes) / n for k in DISTINCT
        },
        "errors": {m: total("errors", m) for m in ERROR_MODULES},
        "rss_growth_mb": {
            k: max([w.rss_growth_mb.get(k, 0.0) for w in [setup, *passes]]) for k in MEMORY
        },
    }


def layer_metrics(tracer: Tracer, setup: Window, passes: list[Window]) -> dict:
    """The per-layer metrics that come from the trace itself."""
    c = combine(setup, passes)
    m = {}
    for mod, fns in TARGETS.items():
        for fn in fns:
            name = f"{mod}.{fn}"
            m[f"{name}.calls"] = c["calls"][name]
            m[f"{name}.self_s"] = c["self_s"][name]
    for check in VERIFY_CHECKS:
        m[f"verify.{check}.self_s"] = c["self_s"][f"verify.{check}"]
    for name, (ratio, _, _) in DISTINCT.items():
        d = c["distinct"][name]
        m[f"{name}.{ratio}"] = c["calls"][name] / d if d else 0.0
    for name in MADDS:
        s = c["self_s"][name]
        m[f"{name}.madds_per_s"] = c["madds"][name] / s if s > 0 else 0.0
    for name in MEMORY:
        # tracemalloc peak from the memory pass; a call that pass did not
        # make (the order-4096 build, traced only in set-up) falls back to
        # the growth of the process's RSS high-water mark across the call.
        m[f"{name}.peak_mb"] = tracer.peak_mb.get(name, c["rss_growth_mb"][name])
    for mod in ERROR_MODULES:
        m[f"{mod}.errors"] = c["errors"][mod]
    return m


def hot_spot(metrics: dict) -> str:
    """The traced function with the largest self time."""
    return max(traced_names(), key=lambda n: metrics[f"{n}.self_s"])
