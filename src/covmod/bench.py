"""Timing comparison: structure-blind convolution against the checked entry points.

The baseline is the path a consumer would take without exploiting
covariance at all: materialize the covariant function on the whole group
and convolve, at |G| squared scalar operations per call.  It is
`full_module_action`, which takes the table route on every group by
definition, never the fiber-Fourier routes of `convolve` and
`module_action`.  `module_action`, one value per coset, is timed alongside
for reference (the per-coset column; on these products it takes the
fiber-Fourier route).  The contenders, `conv_fast_wh_center` and
`conv_fast_wh_full`, are checks of shape, covariance subgroup and
character before that same call.  Every one is checked for agreement on
the exact inputs being timed before any clock starts, so a reported
speedup cannot come from a wrong answer.
"""

from __future__ import annotations

import random
import statistics
import timeit
from fractions import Fraction

from .characters import Character, make_character
from .convolution import full_module_action, module_action, section_residual
from .covariant import from_section
from .errors import ValidationError
from .groups import _count, make_subgroup, quotient, random_function
from .semidirect import (
    SemidirectGroup,
    _shear_numerators,
    conv_fast_wh_center,
    conv_fast_wh_full,
    lift_subgroup,
    weyl_heisenberg_finite,
)

AGREEMENT_TOL = 1e-9


def _shear_character(sd: SemidirectGroup, numerators) -> Character:
    """The character an entry point checks for, from its stored form: on the
    first |N| = `numerators.size` elements of K lifted to the product, the
    phases are the numerators over |N|."""
    size = numerators.size
    sub = lift_subgroup(sd, make_subgroup(sd.k, range(size)))
    return make_character(sub, [Fraction(v, size) for v in numerators.tolist()])


def _times_per_call(routes: dict, repetitions: int) -> dict:
    """The median seconds of one call of each route, by name, timed
    round-robin, one call of each route per round: a host stall falls on
    every route alike, and a single stalled call moves no median."""
    for fn in routes.values():
        fn()  # warm up allocations and bytecode before the clock starts
    timers = {name: timeit.Timer(fn) for name, fn in routes.items()}
    rounds = [{name: t.timeit(1) for name, t in timers.items()} for _ in range(repetitions)]
    return {name: statistics.median(times[name] for times in rounds) for name in routes}


def _run_variant(
    sd: SemidirectGroup,
    name: str,
    char: Character,
    fast,
    rng: random.Random,
    repetitions: int,
) -> dict:
    quot = quotient(sd.product, char.domain)
    f = random_function(sd.product, rng)
    psi = from_section(random_function(quot.table, rng).values, char, quot)

    generic = module_action(f, psi)
    checked = fast(sd, f, psi)
    agreement = section_residual(checked, generic)
    if agreement > AGREEMENT_TOL:
        raise ValidationError(
            f"entry point disagrees with the generic action on variant "
            f"{name!r} (residual {agreement:.3e}); refusing to time a wrong answer"
        )

    seconds = _times_per_call({
        "full_convolution": lambda: full_module_action(f, psi),
        "per_coset": lambda: module_action(f, psi),
        "checked": lambda: fast(sd, f, psi),
    }, repetitions)
    floor = max(seconds["checked"], 1e-12)
    return {
        "name": name,
        "normal_order": char.domain.order,
        "agreement": agreement,
        "seconds": seconds,
        "speedup": seconds["full_convolution"] / floor,
        "speedup_per_coset": seconds["per_coset"] / floor,
    }


def run_bench(m: int, r: int, repetitions: int = 50, seed: int = 0) -> dict:
    """Time the convolution routes on the (m, r) shear group.

    Two covariance configurations are measured: a character of the central
    cyclic factor (n = 1 when r > 1) and a character of the whole abelian
    fiber (y = n = 1 where the sizes allow), both with the phases
    `_shear_numerators` gives and the entry points check for.  Returns a report
    dict; render it with `bench_table`.
    """
    repetitions = _count(repetitions, 1, "repetitions")
    sd = weyl_heisenberg_finite(m, r)
    rng = random.Random(f"{seed}:bench:{m}x{r}")

    n = 1 % r
    y = 1 % m
    variants = [
        _run_variant(sd, name, _shear_character(sd, numerators), fast, rng, repetitions)
        for name, numerators, fast in (
            (f"center n={n}", _shear_numerators(1, r, 0, n),
             lambda s, f, p: conv_fast_wh_center(s, f, p, n)),
            (f"fiber y={y} n={n}", _shear_numerators(m, r, y, n),
             lambda s, f, p: conv_fast_wh_full(s, f, p, y, n)),
        )
    ]
    return {
        "m": m,
        "r": r,
        "group_order": sd.product.order,
        "repetitions": repetitions,
        "seed": seed,
        "variants": variants,
    }


def bench_table(report: dict) -> str:
    """Render a bench report as an aligned text table."""
    head = (
        f"shear group m={report['m']} r={report['r']} "
        f"(order {report['group_order']}), "
        f"{report['repetitions']} calls per timing, seed {report['seed']}"
    )
    cols = ["variant", "|N|", "full-conv", "per-coset", "checked", "speedup"]
    rows = []
    for v in report["variants"]:
        s = v["seconds"]
        rows.append(
            [
                v["name"],
                str(v["normal_order"]),
                f"{s['full_convolution']:.3e}s",
                f"{s['per_coset']:.3e}s",
                f"{s['checked']:.3e}s",
                f"{v['speedup']:.1f}x",
            ]
        )
    widths = [max(len(r[i]) for r in [cols] + rows) for i in range(len(cols))]
    lines = [head, ""]
    for r in [cols] + rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return "\n".join(lines)
