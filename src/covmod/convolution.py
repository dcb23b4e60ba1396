"""Convolution on a group and its action on covariant functions.

`convolve` and `module_action` each take one of two routes, chosen from the
structure alone.

- The fiber-Fourier route serves a product H x| K built by `semidirect` or
  `make_product` (A x B is A acting on B trivially) whose K is abelian.  It
  lays K out as a product of cyclic groups and transforms along K with
  `numpy.fft`, one cyclic axis at a time.  `convolve` transforms both
  functions, takes one sum over H per character, one pass per element of
  H, and transforms back: |H|^2 |K| work for the sum plus
  O(|H| |K| log |K|) for the transforms, in O(|H| |K|) memory
  (`SemidirectGroup.fiber_convolve`).  `module_action` takes it when N lies
  inside K: the transforms of psi and of the output vanish off the |K/N|
  characters above xi o theta_h^-1 at each h, so psi's is built
  from its section, f is projected onto the union U of those characters
  (one matrix product along N and psi's table along K / N, no transform
  along all of K), the sum runs on those characters alone (|H|^2 |K/N|),
  and the output is transformed back at the coset representatives only
  (`semidirect.FiberAction`, whose tables are built on first use for each
  quotient, H-orbit of characters and character).
- The table route serves every other group or quotient: groups read from a
  table document, which carry no split, products with a non-abelian K,
  plain groups, and normal subgroups outside K.  It reads the read-only
  value arrays as they are and gathers from the group's int32 table: one
  contiguous row gather and one inner product per output point, so memory
  stays linear in the group order.

`full_module_action` always takes the table route: it is the
structure-blind |G|^2 reference by definition.  Sums run in numpy's order:
they match a left-to-right scalar sum to rounding.

Each public function checks its inputs and calls one private array function
(`_convolved`, `_module_action`, `_convolve_at`, `_covariance_gaps`,
`_gaps`) with no trial axis.  The array functions take values of shape
(..., |G|) and sections of shape (..., |G/N|): any leading axes are trials,
evaluated together, one numpy call per output point or transform rather
than per trial.  `verify_module_axioms` and `covmod.verify` call them that
way.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Sequence

import numpy as np

from .characters import Character
from .covariant import CovariantFunction, _averaged, _on_group
from .errors import DomainMismatchError, ValidationError
from .groups import (
    FiniteGroup,
    GroupFunction,
    MeasureTriple,
    QuotientGroup,
    _bounded,
    _weights,
)


def _weighted(
    f: GroupFunction, measure: MeasureTriple | Sequence[float] | None
) -> np.ndarray:
    """The values w(y) * f(y) as an array, counting weights by default."""
    w = _weights(measure, "wG", f.group.order)
    return f.values if w is None else w * f.values


def _convolve_at(
    group: FiniteGroup, wf: np.ndarray, v: np.ndarray, points: Iterable[int]
) -> np.ndarray:
    """sum over y of wf(y) * v(y^-1 x), at each x in `points`, along the last
    axis of two (..., |G|) arrays.

    Since y^-1 x = (x^-1 y)^-1, the terms for one x read v at the inverses
    of the entries of the contiguous table row of x^-1.  One gather and one
    row-by-column `matmul` per output point, for all leading indices at once.
    numpy runs a (1 x |G|) by (|G| x 1) product as a vector dot, the kernel
    `ndarray.dot` runs on one function, not as a matrix-vector product that
    OpenBLAS splits across threads; `einsum`'s complex loop is about 1.5x
    slower here at order 4096.
    """
    columns = v.take(group.inv, axis=-1)[..., None]
    table, inv = group.table, group.inv
    stacked = wf[..., None, :]
    sums = [np.matmul(stacked, columns.take(table[inv[x]], axis=-2)) for x in points]
    return np.concatenate(sums, axis=-1)[..., 0, :]


def _convolved(group: FiniteGroup, wf: np.ndarray, v: np.ndarray) -> np.ndarray:
    """`convolve` along the last axis of two (..., |G|) arrays."""
    split = group.split
    if split is not None and split.k.is_abelian:
        return split.fiber_convolve(wf, v)
    return _convolve_at(group, wf, v, range(group.order))


def _module_action(
    wf: np.ndarray,
    section: np.ndarray,
    char: Character,
    quot: QuotientGroup,
    full: Callable[[], GroupFunction] | None = None,
) -> np.ndarray:
    """`module_action` along the last axis of a (..., |G|) array of weighted
    values and a (..., |G/N|) array of sections, covariant for `char`.

    The fiber-Fourier route serves a quotient of H x| K with K abelian by
    an N inside K; the table route every other quotient.  The table route
    materializes psi on the whole group, through `full` when the caller
    holds psi as a `CovariantFunction`, and gathers at the representatives.
    """
    route = quot.fiber_action
    if route is not None:
        return route.act(wf, section, route.tables(char))
    values = _on_group(section, char, quot) if full is None else full().values
    return _convolve_at(quot.parent, wf, values, quot.reps)


def convolve(
    f: GroupFunction,
    g: GroupFunction,
    measure: MeasureTriple | Sequence[float] | None = None,
) -> GroupFunction:
    """(f * g)(x) = sum over y of w(y) * f(y) * g(y^-1 x), counting weights by default.

    A semidirect or direct product with an abelian K takes the
    fiber-Fourier route; every other group the table route.
    """
    if f.group is not g.group:
        raise DomainMismatchError("cannot convolve functions on different groups")
    return GroupFunction(f.group, _convolved(f.group, _weighted(f, measure), g.values))


def module_action(
    f: GroupFunction,
    psi: CovariantFunction,
    measure: MeasureTriple | Sequence[float] | None = None,
) -> CovariantFunction:
    """Convolve a function against a covariant function, evaluated on representatives.

    The output is covariant for the same character, so only one value per
    coset is computed.  On a quotient of H x| K with K abelian by an N
    inside K, the fiber-Fourier route costs |H|^2 |K/N| for the sum, plus
    |H| |K| o + |H| o |K/N|^2 for projecting f onto the characters of K
    above the H-orbit of the character, o <= min(|H|, |N|) characters of
    N, and |H| |K/N|^2 for psi and the output; on every other quotient the
    table route costs |G| * |G/N|.
    """
    if f.group is not psi.group:
        raise DomainMismatchError("function and covariant function live on different groups")
    quot, char = psi.quotient, psi.character
    out = _module_action(_weighted(f, measure), psi.section, char, quot, psi.full)
    return CovariantFunction(quot, char, out)


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
    return convolve(phi, psi, _weights(measure, "wQ", phi.group.order))


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


def section_residual(a: CovariantFunction, b: CovariantFunction) -> float:
    """Max pointwise gap between two sections over the same covariance data."""
    if a.quotient is not b.quotient and not (
        a.quotient.parent is b.quotient.parent
        and a.quotient.normal.same_as(b.quotient.normal)
    ):
        raise DomainMismatchError("sections live over different quotients")
    if not a.character.same_phases(b.character):
        raise DomainMismatchError("sections are covariant for different characters")
    return float(_gaps(a.section, b.section))


def _gaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max |a - b| along the last axis; max propagates NaN, as worst_of does."""
    return np.abs(a - b).max(axis=-1)


def covariance_residual(psi: GroupFunction, char: Character) -> float:
    """max |psi(x s) - xi(s) psi(x)| over the whole group and subgroup."""
    if char.domain.parent is not psi.group:
        raise DomainMismatchError("character domain is not a subgroup of psi's group")
    return float(_covariance_gaps(psi.values, char))


def _covariance_gaps(values: np.ndarray, char: Character) -> np.ndarray:
    """`covariance_residual` along the last axis of a (..., |G|) array, one
    subgroup member at a time, so memory stays that of `values`."""
    group = char.domain.parent
    elements = np.arange(group.order)
    worst = np.zeros(values.shape[:-1])
    for s, xi in zip(char.domain.members, char.complex_values.tolist()):
        moved = values.take(group.multiply(elements, s), axis=-1)   # psi(x s) at every x
        worst = np.maximum(worst, _gaps(moved, values * xi))
    return worst


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
    have checks of their own in `covmod.verify`.  All trials are drawn
    first, in one `_draws` call seeded from `seed`, and the laws are
    evaluated over the trial axis in two module actions, each on a stack of
    inputs.  Zero trials yields an empty, passing report; a NaN, infinite
    or negative `tol`, failing every check, passing every check or failing
    even an exact one, is refused.
    """
    _bounded(tol, 0, "tolerance", ValidationError)
    group, n = quot.parent, quot.parent.order
    rng = random.Random(f"{seed}:module-axioms")
    from .draws import _draws   # drawing is left unloaded until a command draws

    f, g, h, k, alpha, beta = _draws(rng, trials, n, n, n, n, 1, 1)

    def act(wf: np.ndarray, section: np.ndarray) -> np.ndarray:
        return _module_action(wf, section, char, quot)

    psi, chi = _averaged(h, char, quot), _averaged(k, char, quot)
    # two actions, each over a stack of inputs, so each pays its fixed cost once
    acted, g_psi, fg_psi, mixed_psi = act(
        np.stack((f, g, _convolved(group, f, g), alpha * f + beta * g)), psi
    )
    f_g_psi, f_mixed, f_chi = act(f, np.stack((g_psi, alpha * psi + beta * chi, chi)))
    residuals = {
        "associativity": _gaps(fg_psi, f_g_psi),
        "bilinearity": np.concatenate((
            _gaps(mixed_psi, alpha * acted + beta * g_psi),
            _gaps(f_mixed, alpha * acted + beta * f_chi),
        )),
        "output_covariance": _covariance_gaps(_on_group(acted, char, quot), char),
    }
    laws = {law: worst_of(values.tolist()) for law, values in residuals.items()}
    return {
        "seed": seed,
        "trials": trials,
        "tol": tol,
        "laws": laws,
        "passed": all(v <= tol for v in laws.values()),
    }
