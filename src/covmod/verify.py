"""Built-in corpus of worked groups and the residual checks behind `covmod verify`.

Each check draws seeded random data, computes the two sides of one proved
identity, and reports the worst residual seen.  Exact checks (characters,
table isomorphisms, pullback shifts) report a mismatch count instead, so a
passing run shows literal zeros there.

A randomized check draws all trials of a character first, into arrays with
a leading trial axis, with one `groups._draws` call: it seeds a numpy
PCG64 `Generator` with 128 bits of a `random.Random` keyed by the seed, and
the Generator samples every trial at once.  It then evaluates both sides
once over that axis with the array functions behind the public kernels and
takes the worst residual, NaN failing its row.  The draws are thus fixed by
the seed (for a given numpy version), while the residuals' last digits
depend on numpy's summation order.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from typing import Callable, Iterable, Sequence

import numpy as np

from .characters import (
    Character,
    char_inner,
    enumerate_characters,
    make_character,
    pullback,
    trivial_character,
)
from .convolution import (
    _convolve_at,
    _convolved,
    _covariance_gaps,
    _gaps,
    _module_action,
    verify_module_axioms,
    worst_of,
)
# t_xi goes uncalled here; covbench's tracer test asserts it is wrapped here too
from .covariant import _averaged, _on_group, t_xi  # noqa: F401
from .errors import DomainMismatchError, ValidationError
from .groups import (
    FiniteGroup,
    QuotientGroup,
    Subgroup,
    _bounded,
    _draws,
    _p_norms,
    _weil_gaps,
    counting_measure,
    full_subgroup,
    generating_set,
    group_center,
    make_cyclic,
    make_from_table,
    make_subgroup,
    quotient,
)
from .semidirect import (
    SemidirectGroup,
    _shear_numerators,
    _wh_parameters,
    delta_factor,
    heisenberg_finite,
    induced_semidirect,
    lift_subgroup,
    semidirect,
    weyl_heisenberg_finite,
)

DEFAULT_TOLS = {
    "weil_formula": 1e-12,
    "characters_exact": 0.0,
    "txi_covariance": 1e-9,
    "txi_averaging": 1e-9,
    "norm_identity": 1e-9,
    "txi_homomorphism": 1e-9,
    "norm_bound": 1e-9,
    "module_axioms": 1e-9,
    "trivial_identification": 1e-9,
    "full_convolution_agreement": 1e-9,
    "covariance_shape": 1e-9,
    "semidirect_structure": 1e-12,
    "fast_kernels": 1e-9,
    "pullback_shift": 0.0,
}

_TINY = 1e-300

# Grid of shear-group sizes exercised by the fast-kernel check regardless of
# which corpus entries were selected.
FAST_GRID = ((1, 1), (2, 2), (2, 4), (4, 4))


@dataclass(frozen=True)
class CorpusEntry:
    """One (group, normal subgroup) configuration under test."""

    name: str
    group: FiniteGroup
    normal: Subgroup
    quot: QuotientGroup

    @property
    def sd(self) -> SemidirectGroup | None:
        """The semidirect product the group was built as, if any."""
        return self.group.split

    @property
    def normal_in_k(self) -> Subgroup | None:
        """The normal subgroup in K (the quotient's `fiber`), or None off the K fiber."""
        return None if self.quot.fiber is None else self.quot.fiber.normal

    @cached_property
    def characters(self) -> tuple[Character, ...]:
        """Every character of the normal subgroup, enumerated once per entry."""
        return tuple(enumerate_characters(self.normal))


def symmetric_3() -> FiniteGroup:
    """The symmetric group on three points, elements in lexicographic order."""
    perms = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms
    ]
    labels = ["".join(map(str, p)) for p in perms]
    return make_from_table(table, labels)


def _center_entry(name: str, sd: SemidirectGroup) -> CorpusEntry:
    center = group_center(sd.product)
    return CorpusEntry(name, sd.product, center, quotient(sd.product, center))


def _full_k_entry(name: str, sd: SemidirectGroup) -> CorpusEntry:
    normal = lift_subgroup(sd, make_subgroup(sd.k, range(sd.k.order)))
    return CorpusEntry(name, sd.product, normal, quotient(sd.product, normal))


def builtin_corpus() -> list[CorpusEntry]:
    entries: list[CorpusEntry] = []

    z4 = make_cyclic(4)
    n4 = make_subgroup(z4, (0, 2))
    entries.append(CorpusEntry("Z4/evens", z4, n4, quotient(z4, n4)))

    z6 = make_cyclic(6)
    n6 = make_subgroup(z6, (0, 2, 4))
    entries.append(CorpusEntry("Z6/Z3", z6, n6, quotient(z6, n6)))

    s3 = symmetric_3()
    a3 = make_subgroup(s3, (0, 3, 4))
    entries.append(CorpusEntry("S3/A3", s3, a3, quotient(s3, a3)))

    entries.append(_center_entry("Heis2/center", heisenberg_finite(2)))
    entries.append(_center_entry("Heis3/center", heisenberg_finite(3)))

    wh24 = weyl_heisenberg_finite(2, 4)
    entries.append(_center_entry("WH(2,4)/center", wh24))
    entries.append(_full_k_entry("WH(2,4)/K", wh24))

    z2, z3 = make_cyclic(2), make_cyclic(3)
    flip = semidirect(z2, z3, ((0, 1, 2), (0, 2, 1)))
    entries.append(_full_k_entry("Z2xZ3/K", flip))

    return entries


def _row(check: str, config: str, residual: float, tol: float | None) -> dict:
    t = DEFAULT_TOLS[check] if tol is None else tol
    return {
        "check": check,
        "config": config,
        "residual": residual,
        "tol": t,
        "passed": residual <= t,
    }


def _trial_row(
    check: str,
    config: str,
    chars: Iterable[Character | None],
    seed: int,
    trials: int,
    tol: float | None,
    sizes: Sequence[int],
    evaluate: Callable[..., np.ndarray],
    worst: float = 0.0,
) -> dict:
    """Draw every trial of a character, evaluate them at once, and report the
    worst residual over all characters.

    One rng keyed by (seed, check, config) seeds the draws, one `_draws`
    call per character, so each row is reproducible from the seed alone.
    `_draws` gives one (trials, size) array per entry of `sizes`, and
    `evaluate(char, *arrays)` returns the residuals of all of those trials;
    `worst` seeds the maximum with residuals found before the random trials.
    """
    rng = random.Random(f"{seed}:{check}:{config}")
    residuals = (
        res
        for char in chars
        for res in np.ravel(evaluate(char, *_draws(rng, trials, *sizes))).tolist()
    )
    return _row(check, config, worst_of(residuals, worst), tol)


def check_weil(entry: CorpusEntry, seed: int, trials: int, tol: float | None = None) -> dict:
    measure = counting_measure(entry.quot)

    def evaluate(_: None, f: np.ndarray) -> np.ndarray:
        return _weil_gaps(f, entry.quot, measure) / np.maximum(_p_norms(f, 1), _TINY)

    return _trial_row(
        "weil_formula", entry.name, (None,), seed, trials, tol, (entry.group.order,), evaluate
    )


def _abelianization_order(sub: Subgroup) -> int:
    multiply, inv, ms = sub.parent.multiply, sub.parent.inv, np.array(sub.members)
    comms = multiply(multiply(multiply(ms[:, None], ms), inv[ms][:, None]), inv[ms])   # s t s^-1 t^-1
    return sub.order // int(generating_set(sub.parent, comms.ravel())[3].sum())


def check_characters(entry: CorpusEntry, seed: int, trials: int, tol: float | None = None) -> dict:
    """Exact character theory: count, homomorphism law, orthogonality."""
    del seed, trials  # deterministic; kept for a uniform check signature
    mismatches = 0
    chars = entry.characters
    if len(chars) != _abelianization_order(entry.normal):
        mismatches += 1
    order = entry.normal.order
    for i, a in enumerate(chars):
        try:
            make_character(entry.normal, a.phases)
        except ValidationError:
            mismatches += 1
        for j, b in enumerate(chars):
            try:
                got = char_inner(a, b)
            except ValidationError:
                mismatches += 1
                continue
            if got != (order if i == j else 0):
                mismatches += 1
    return _row("characters_exact", entry.name, float(mismatches), tol)


def check_txi_covariance(entry: CorpusEntry, seed: int, trials: int, tol: float | None = None) -> dict:
    quot = entry.quot

    def evaluate(char: Character, f: np.ndarray) -> np.ndarray:
        return _covariance_gaps(_on_group(_averaged(f, char, quot), char, quot), char)

    return _trial_row(
        "txi_covariance", entry.name, entry.characters, seed, trials, tol,
        (entry.group.order,), evaluate,
    )


def check_txi_averaging(entry: CorpusEntry, seed: int, trials: int, tol: float | None = None) -> dict:
    """Averaging a covariant function reproduces it scaled by the fiber size."""
    quot, scale = entry.quot, float(entry.normal.order)

    def evaluate(char: Character, psi: np.ndarray) -> np.ndarray:
        back = _averaged(_on_group(psi, char, quot), char, quot)
        return _gaps(back, scale * psi)

    return _trial_row(
        "txi_averaging", entry.name, entry.characters, seed, trials, tol, (quot.order,), evaluate
    )


def check_norm_identity(entry: CorpusEntry, seed: int, trials: int, tol: float | None = None) -> dict:
    """Section norm vs full-group norm: they differ exactly by |N| ** (1/p)."""
    quot, n_order = entry.quot, entry.normal.order

    def evaluate(char: Character, psi: np.ndarray) -> np.ndarray:
        full = _on_group(psi, char, quot)
        gaps = []
        for p in (1, 2, 3):
            lhs = _p_norms(psi, p)
            rhs = n_order ** (-1.0 / p) * _p_norms(full, p)
            gaps.append(np.abs(lhs - rhs) / np.maximum(lhs, _TINY))
        return np.stack(gaps, axis=-1)

    return _trial_row(
        "norm_identity", entry.name, entry.characters, seed, trials, tol, (quot.order,), evaluate
    )


def check_txi_homomorphism(entry: CorpusEntry, seed: int, trials: int, tol: float | None = None) -> dict:
    """Averaging intertwines convolution with the module action."""
    group, quot = entry.group, entry.quot

    def evaluate(char: Character, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        left = _averaged(_convolved(group, f, g), char, quot)
        right = _module_action(f, _averaged(g, char, quot), char, quot)
        scale = np.maximum(_p_norms(f, 1) * _p_norms(g, 1), _TINY)
        return _gaps(left, right) / scale

    return _trial_row(
        "txi_homomorphism", entry.name, entry.characters, seed, trials, tol,
        (group.order, group.order), evaluate,
    )


def check_norm_bound(entry: CorpusEntry, seed: int, trials: int, tol: float | None = None) -> dict:
    quot = entry.quot

    def evaluate(char: Character, f: np.ndarray, psi: np.ndarray) -> np.ndarray:
        acted = _module_action(f, psi, char, quot)
        f_l1 = _p_norms(f, 1)
        return np.stack(
            [_p_norms(acted, p) - f_l1 * _p_norms(psi, p) for p in (1, 2, 3)], axis=-1
        )

    return _trial_row(
        "norm_bound", entry.name, entry.characters, seed, trials, tol,
        (entry.group.order, quot.order), evaluate,
    )


def check_module_axioms(entry: CorpusEntry, seed: int, trials: int, tol: float | None = None) -> dict:
    t = DEFAULT_TOLS["module_axioms"] if tol is None else tol
    worst = worst_of(
        residual
        for j, char in enumerate(entry.characters)
        for residual in verify_module_axioms(
            entry.quot, char, trials, tol=t, seed=f"{seed}:{entry.name}:{j}"
        )["laws"].values()
    )
    return _row("module_axioms", entry.name, worst, tol)


def check_trivial_identification(entry: CorpusEntry, seed: int, trials: int, tol: float | None = None) -> dict:
    """With the trivial character, the action descends to quotient convolution."""
    quot = entry.quot

    def evaluate(triv: Character, f: np.ndarray, psi: np.ndarray) -> np.ndarray:
        descended = _module_action(f, psi, triv, quot)
        via_quotient = _convolved(quot.table, _averaged(f, triv, quot), psi)
        return np.abs(descended - via_quotient)

    triv = (trivial_character(entry.normal),)
    return _trial_row(
        "trivial_identification", entry.name, triv, seed, trials, tol,
        (entry.group.order, quot.order), evaluate,
    )


def check_full_agreement(entry: CorpusEntry, seed: int, trials: int, tol: float | None = None) -> dict:
    """The per-representative action equals the structure-blind convolution:
    on a quotient of H x| K by an N inside K with K abelian, this checks the
    fiber-Fourier route against the table route."""
    group, quot = entry.group, entry.quot

    def evaluate(char: Character, f: np.ndarray, psi: np.ndarray) -> np.ndarray:
        blind = _convolve_at(group, f, _on_group(psi, char, quot), range(group.order))
        direct = _module_action(f, psi, char, quot)
        gaps = np.abs(blind[..., quot.reps] - direct)
        return np.concatenate((gaps, _covariance_gaps(blind, char)[..., None]), axis=-1)

    return _trial_row(
        "full_convolution_agreement", entry.name, entry.characters, seed, trials, tol,
        (group.order, quot.order), evaluate,
    )


def check_covariance_shape(entry: CorpusEntry, seed: int, trials: int, tol: float | None = None) -> dict | None:
    """On a semidirect product, covariance pins values along the K fiber."""
    sd = entry.sd
    if sd is None or entry.normal_in_k is None:
        return None
    quot, nk = entry.quot, sd.k.order
    hs = np.arange(sd.h.order)
    members = np.array(entry.normal_in_k.members)
    slots = np.searchsorted(members, sd.action[sd.h.inv][:, members])   # theta_{h^-1}(s) in N
    anchors, points = hs * nk + sd.k.identity, hs[:, None] * nk + members

    def evaluate(char: Character, psi: np.ndarray) -> np.ndarray:
        # psi(h, s) = xi(theta_{h^-1}(s)) * psi(h, e_K) for s in N
        phases = char.complex_values[slots]
        full = _on_group(psi, char, quot)
        return np.abs(full[..., points] - phases * full[..., anchors, None])

    return _trial_row(
        "covariance_shape", entry.name, entry.characters, seed, trials, tol, (quot.order,), evaluate
    )


def check_semidirect_structure(entry: CorpusEntry, seed: int, trials: int, tol: float | None = None) -> dict | None:
    """Modulus bookkeeping and the quotient's semidirect realization.

    Verified facts: every action modulus is exactly 1 (on K, on the invariant
    subgroup, and on K / N), the quotient of the product by the lifted
    subgroup has exactly the table of H acting on K / N, and integrating over
    that quotient agrees with the iterated H then K / N sum.
    """
    sd = entry.sd
    if sd is None or entry.normal_in_k is None:
        return None
    structural = []

    induced = induced_semidirect(sd, entry.normal_in_k)
    k_full, q_full = full_subgroup(sd.k), full_subgroup(induced.k)
    d_k = [delta_factor(sd, k_full, h) for h in range(sd.h.order)]
    for h, d in enumerate(d_k):
        d_n = delta_factor(sd, entry.normal_in_k, h)
        d_q = delta_factor(induced, q_full, h)
        structural += [abs(d - d_n * d_q), abs(d - 1.0)]

    mismatched = np.count_nonzero(entry.quot.table.table != induced.product.table)
    structural.append(float(mismatched))

    qk = entry.quot.fiber
    # the quotient element at (h, K/N coset j), and its weight d_k[h]
    cosets = entry.quot.proj[sd.pair_index(np.arange(sd.h.order)[:, None], qk.reps)].ravel()
    deltas = np.repeat(d_k, qk.order)

    def evaluate(_: None, phi: np.ndarray) -> np.ndarray:
        direct = phi.sum(axis=-1)
        iterated = np.einsum("...j,j->...", phi[..., cosets], deltas)
        return np.abs(direct - iterated) / np.maximum(_p_norms(phi, 1), _TINY)

    return _trial_row(
        "semidirect_structure", entry.name, (None,), seed, trials, tol,
        (entry.quot.order,), evaluate, worst=worst_of(structural),
    )


def _fast_rows(
    name: str,
    quot: QuotientGroup,
    chars: Sequence[Character],
    seed: int,
    trials: int,
    tol: float | None,
) -> dict:
    """The route that the checked entry points `conv_fast_*` call,
    `_module_action`, against the table route at the representatives, on
    shared draws; `bench` and the tests run the entry points' checks."""
    group = quot.parent

    def evaluate(char: Character, f: np.ndarray, psi: np.ndarray) -> np.ndarray:
        table = _convolve_at(group, f, _on_group(psi, char, quot), quot.reps)
        return _gaps(_module_action(f, psi, char, quot), table)

    return _trial_row(
        "fast_kernels", name, chars, seed, trials, tol, (group.order, quot.order), evaluate
    )


def check_fast_kernels(entry: CorpusEntry, seed: int, trials: int, tol: float | None = None) -> dict | None:
    """The module action agrees with the table route where an entry point
    `conv_fast_*` applies: covariance over all of K, or over the first
    |K| / |H| elements of K, the center of a shear group."""
    sd, in_k = entry.sd, entry.normal_in_k
    if sd is None or in_k is None:
        return None
    if in_k.order != sd.k.order and not (
        sd.k.order % sd.h.order == 0 and in_k.members == tuple(range(sd.k.order // sd.h.order))
    ):
        return None
    return _fast_rows(entry.name, entry.quot, entry.characters, seed, trials, tol)


def fast_grid_rows(seed: int, trials: int, tol: float | None = None) -> list[dict]:
    """Fast-kernel agreement across the standard shear-group size grid."""
    rows = []
    for m, r in FAST_GRID:
        sd = weyl_heisenberg_finite(m, r)
        for label, fiber in (("center", r), ("K", m * r)):
            start = time.perf_counter()
            normal = lift_subgroup(sd, make_subgroup(sd.k, range(fiber)))
            quot = quotient(sd.product, normal)
            chars = enumerate_characters(normal)
            row = _fast_rows(f"WH({m},{r})/{label}", quot, chars, seed, trials, tol)
            rows.append({**row, "seconds": time.perf_counter() - start})
    return rows


def check_pullback_shift(entry: CorpusEntry, seed: int, trials: int, tol: float | None = None) -> dict | None:
    """On step-1 shear groups, composing a fiber character with the action of x
    shifts its first index by x times the second index: chi_{z,nu} o theta_x =
    chi_{z+nu x,nu}, both as `_shear_numerators` gives them."""
    del seed, trials
    sd = entry.sd
    if sd is None:
        return None
    m = sd.h.order
    if sd.k.order != m * m:   # with m | r, this forces r = m
        return None
    try:
        _wh_parameters(sd)
    except DomainMismatchError:
        return None

    k_full = make_subgroup(sd.k, range(m * m))
    mismatches = 0
    for z in range(m):
        for nu in range(m):
            nums = _shear_numerators(m, m, z, nu)
            char = make_character(k_full, [Fraction(v, m * m) for v in nums.tolist()])
            for x in range(m):
                want = _shear_numerators(m, m, (z + nu * x) % m, nu)
                mismatches += not np.array_equal(pullback(char, sd.action[x]).numerators, want)
    return _row("pullback_shift", entry.name, float(mismatches), tol)


CHECKS = (
    check_weil,
    check_characters,
    check_txi_covariance,
    check_txi_averaging,
    check_norm_identity,
    check_txi_homomorphism,
    check_norm_bound,
    check_module_axioms,
    check_trivial_identification,
    check_full_agreement,
    check_covariance_shape,
    check_semidirect_structure,
    check_fast_kernels,
    check_pullback_shift,
)


def run_verification(
    entries: list[CorpusEntry] | None = None,
    seed: int = 42,
    trials: int = 50,
    tol: float | None = None,
) -> dict:
    """Run every check over the corpus and aggregate a pass/fail report.

    Checks that do not apply to an entry (semidirect-only checks on a plain
    group) are skipped; the shear-group size grid is always exercised.  A
    `tol` given in place of the defaults must be finite and at least 0, and
    `trials` an integer of at least 0, as the first draw reads it.
    Each row carries the wall time of the check that produced it in
    `seconds`, and the report the wall time of the whole run.
    """
    start = time.perf_counter()
    if tol is not None:
        _bounded(tol, 0, "tolerance", ValidationError)
    if entries is None:
        entries = builtin_corpus()
    rows: list[dict] = []
    for entry in entries:
        for check in CHECKS:
            begun = time.perf_counter()
            row = check(entry, seed, trials, tol)
            if row is not None:
                rows.append({**row, "seconds": time.perf_counter() - begun})
    rows.extend(fast_grid_rows(seed, trials, tol))

    worst: dict[str, float] = {}
    for row in rows:
        worst[row["check"]] = worst_of([row["residual"]], worst.get(row["check"], 0.0))
    return {
        "seed": seed,
        "trials": trials,
        "corpus": [e.name for e in entries],
        "checks": rows,
        "worst_residuals": worst,
        "passed": all(row["passed"] for row in rows),
        "seconds": time.perf_counter() - start,
    }
