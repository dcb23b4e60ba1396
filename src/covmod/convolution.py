"""Convolution on a group and its action on covariant functions.

`convolve` takes one of two routes, chosen from the group's structure alone.

- The fiber-Fourier route serves a product H x| K built by `semidirect` whose
  K is abelian.  It lays K out as a product of cyclic groups, transforms both
  functions along K with `numpy.fft`, one cyclic axis at a time, takes one
  sum over H per character, and transforms back: |H|^2 |K| work for the sum
  plus O(|H| |K| log |K|) for the transforms, plus an integer table build on
  the group's first convolution (`SemidirectSplit.fiber_tables`).
- The table route serves every other group: groups read from a table
  document, which carry no split, products with a non-abelian K, and plain
  groups.  It reads the read-only value arrays as they are and gathers from
  the group's int32 table: one contiguous row gather and one dot product per
  output point, so memory stays linear in the group order.

`module_action` and `full_module_action` always take the table route;
`full_module_action` is the structure-blind |G|^2 reference by definition.
Sums run in numpy's order: they match a left-to-right scalar sum to rounding.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Sequence

import numpy as np

from .characters import Character
from .covariant import CovariantFunction, t_xi
from .errors import DomainMismatchError, ValidationError
from .groups import (
    FiniteGroup,
    GroupFunction,
    MeasureTriple,
    QuotientGroup,
    _group_weights,
    random_function,
)


def _weighted(
    f: GroupFunction, measure: MeasureTriple | Sequence[float] | None
) -> np.ndarray:
    """The values w(y) * f(y) as an array, counting weights by default."""
    if measure is None:
        return f.values
    return _group_weights(measure, f.group.order) * f.values


def _convolve_at(
    group: FiniteGroup, wf: np.ndarray, v: np.ndarray, points: Iterable[int]
) -> np.ndarray:
    """sum over y of wf(y) * v(y^-1 x), at each x in `points`.

    Since y^-1 x = (x^-1 y)^-1, the terms for one x read v at the inverses
    of the entries of the contiguous table row of x^-1.
    """
    v_inv = v[group.inv]
    table, inv = group.table, group.inv
    return np.array([wf.dot(v_inv.take(table[inv[x]])) for x in points], dtype=complex)


def convolve(
    f: GroupFunction,
    g: GroupFunction,
    measure: MeasureTriple | Sequence[float] | None = None,
) -> GroupFunction:
    """(f * g)(x) = sum over y of w(y) * f(y) * g(y^-1 x), counting weights by default.

    A semidirect product with an abelian K takes the fiber-Fourier route;
    every other group the table route.
    """
    if f.group is not g.group:
        raise DomainMismatchError("cannot convolve functions on different groups")
    group, wf = f.group, _weighted(f, measure)
    split = group.split
    if split is not None and split.k.is_abelian:
        out = split.fiber_convolve(wf, g.values)
    else:
        out = _convolve_at(group, wf, g.values, range(group.order))
    return GroupFunction(group, out)


def module_action(
    f: GroupFunction,
    psi: CovariantFunction,
    measure: MeasureTriple | Sequence[float] | None = None,
) -> CovariantFunction:
    """Convolve a function against a covariant function, evaluated on representatives.

    The output is covariant for the same character, so only one value per
    coset is computed; cost is |G| * |G/N| instead of |G| squared.
    """
    if f.group is not psi.group:
        raise DomainMismatchError("function and covariant function live on different groups")
    quot = psi.quotient
    out = _convolve_at(f.group, _weighted(f, measure), psi.full().values, quot.reps)
    return CovariantFunction(quot, psi.character, out)


def full_module_action(
    f: GroupFunction,
    psi: CovariantFunction,
    measure: MeasureTriple | Sequence[float] | None = None,
) -> GroupFunction:
    """The same action computed the structure-blind way: materialize and convolve.

    This is the |G| squared reference path, the table route on every group,
    whatever its structure; `module_action` must agree with it on every
    coset representative.
    """
    if f.group is not psi.group:
        raise DomainMismatchError("function and covariant function live on different groups")
    group = f.group
    out = _convolve_at(group, _weighted(f, measure), psi.full().values, range(group.order))
    return GroupFunction(group, out)


def quotient_convolve(
    phi: GroupFunction,
    psi: GroupFunction,
    measure: MeasureTriple | Sequence[float] | None = None,
) -> GroupFunction:
    """Convolution of two functions on the quotient group with the wQ weights."""
    w = measure.wQ if isinstance(measure, MeasureTriple) else measure
    return convolve(phi, psi, w)


def worst_of(residuals: Iterable[float], worst: float = 0.0) -> float:
    """The largest of `worst` and the residuals, or NaN if any residual is NaN.

    The builtin max keeps its running value when compared against NaN, so a
    NaN residual would read as a pass; here it wins and fails the check.
    """
    for r in residuals:
        if r > worst:
            worst = r
        elif r != r:
            return r
    return worst


def _require_tolerance(tol: float) -> None:
    """Refuse a tolerance no residual can be judged against: a NaN one fails
    every check, an infinite one passes every check, and a negative one fails
    even an exact check.  Zero stays valid; exact checks use it."""
    if not 0 <= tol < math.inf:
        raise ValidationError(f"tolerance must be finite and at least 0, got {tol!r}")


def section_residual(a: CovariantFunction, b: CovariantFunction) -> float:
    """Max pointwise gap between two sections over the same covariance data."""
    if a.quotient is not b.quotient and not (
        a.quotient.parent is b.quotient.parent
        and a.quotient.normal.same_as(b.quotient.normal)
    ):
        raise DomainMismatchError("sections live over different quotients")
    if a.character.phases != b.character.phases:
        raise DomainMismatchError("sections are covariant for different characters")
    # Python's complex abs, not numpy's, which rounds some moduli differently
    return worst_of(abs(x - y) for x, y in zip(a.section.tolist(), b.section.tolist()))


def covariance_residual(psi: GroupFunction, char: Character) -> float:
    """max |psi(x s) - xi(s) psi(x)| over the whole group and subgroup."""
    if char.domain.parent is not psi.group:
        raise DomainMismatchError("character domain is not a subgroup of psi's group")
    # moved[x, j] = psi(x s_j)
    moved = psi.values[psi.group.table.take(char.domain.members, axis=1)]
    gaps = np.abs(moved - psi.values[:, None] * char.complex_values)
    return float(gaps.max())   # max propagates NaN, as worst_of does


def verify_module_axioms(
    quot: QuotientGroup,
    char: Character,
    trials: int,
    tol: float = 1e-9,
    seed: int | str = 0,
) -> dict:
    """Check the Banach-module laws on random data and report max residuals.

    Laws covered: associativity of the action against convolution,
    bilinearity in both arguments, and covariance of outputs.  The norm
    bound and the intertwining identity t_xi(f * g) = f acted on t_xi(g)
    have checks of their own in `covmod.verify`.  Zero trials yields an
    empty, passing report; a NaN, infinite or negative `tol` is refused.
    """
    _require_tolerance(tol)
    group = quot.parent
    rng = random.Random(f"{seed}:module-axioms")
    residuals: dict[str, list[float]] = {
        "associativity": [], "bilinearity": [], "output_covariance": []
    }
    for _ in range(trials):
        f = random_function(group, rng)
        g = random_function(group, rng)
        h = random_function(group, rng)
        psi = t_xi(h, char, quot=quot)
        chi = t_xi(random_function(group, rng), char, quot=quot)
        alpha = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        beta = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        acted = module_action(f, psi)

        residuals["associativity"].append(section_residual(
            module_action(convolve(f, g), psi), module_action(f, module_action(g, psi))
        ))
        residuals["bilinearity"].append(section_residual(
            module_action(alpha * f + beta * g, psi),
            alpha * acted + beta * module_action(g, psi),
        ))
        residuals["bilinearity"].append(section_residual(
            module_action(f, alpha * psi + beta * chi),
            alpha * acted + beta * module_action(f, chi),
        ))
        residuals["output_covariance"].append(covariance_residual(acted.full(), char))

    laws = {law: worst_of(values) for law, values in residuals.items()}
    return {
        "seed": seed,
        "trials": trials,
        "tol": tol,
        "laws": laws,
        "passed": all(v <= tol for v in laws.values()),
    }
