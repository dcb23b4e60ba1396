"""Functions that transform by a character under right translation by a subgroup.

A function psi on G is covariant for a character xi of a normal subgroup N
when psi(x * s) = xi(s) * psi(x) for every x in G and s in N.  Such a psi is
determined by its values on one transversal of the cosets, so it is stored as
that section: a read-only complex128 array indexed like the quotient's
representatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .characters import Character
from .errors import DomainMismatchError, ExponentError, IdentificationError
from .groups import (
    FiniteGroup,
    GroupFunction,
    MeasureTriple,
    QuotientGroup,
    _bounded,
    _element,
    _p_norms,
    _real_form,
    _Refrozen,
    _scaled,
    _vector,
    _weights,
)


@dataclass(frozen=True, eq=False)
class CovariantFunction(_Refrozen):
    """A covariant function stored as its section over coset representatives."""

    quotient: QuotientGroup
    character: Character
    section: np.ndarray

    def __post_init__(self) -> None:
        if not self.character.domain.same_as(self.quotient.normal):
            raise DomainMismatchError(
                "character domain differs from the quotient's normal subgroup"
            )
        section = _vector(self.section, complex, "section", self.quotient.order)
        object.__setattr__(self, "section", section)

    @property
    def group(self) -> FiniteGroup:
        return self.quotient.parent

    def value_at(self, x: int) -> complex:
        """The function's value at any group element, extended by covariance."""
        q = self.quotient
        i = q.proj[_element(q.parent, x)]
        s = int(q.parent.multiply(q.parent.inv[q.reps[i]], x))
        return self.character.value(s) * complex(self.section[i])

    def full(self) -> GroupFunction:
        """Materialize the function on the whole group."""
        return GroupFunction(self.group, _on_group(self.section, self.character, self.quotient))

    def __add__(self, other: "CovariantFunction") -> "CovariantFunction":
        if other.quotient is not self.quotient or other.character is not self.character:
            if not (
                other.quotient.parent is self.quotient.parent
                and other.character.domain.same_as(self.character.domain)
                and other.character.same_phases(self.character)
            ):
                raise DomainMismatchError(
                    "cannot add covariant functions with different covariance data"
                )
        return CovariantFunction(self.quotient, self.character, self.section + other.section)

    def __sub__(self, other: "CovariantFunction") -> "CovariantFunction":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "CovariantFunction":
        return CovariantFunction(self.quotient, self.character, _scaled(scalar, self.section))


def t_xi(
    f: GroupFunction,
    char: Character,
    measure: MeasureTriple | Sequence[float] | None = None,
    quot: QuotientGroup | None = None,
) -> CovariantFunction:
    """Average f against the conjugated character over the normal subgroup.

    The output section at a representative r is
    sum over s in N of wN(s) * f(r * s) * conj(xi(s)) (`groups._weights`),
    and the result is covariant for xi by construction.  Without `quot` it
    reads the quotient the subgroup keeps (`Subgroup.quotient`), built on
    the first such call.
    """
    if char.domain.parent is not f.group:
        raise DomainMismatchError("character domain is not a subgroup of f's group")
    if quot is None:
        quot = char.domain.quotient
    elif not quot.normal.same_as(char.domain):
        raise DomainMismatchError("quotient was built for a different subgroup")
    wN = _weights(measure, "wN", quot.normal.order)
    return CovariantFunction(quot, char, _averaged(f.values, char, quot, wN))


def _averaged(
    values: np.ndarray,
    char: Character,
    quot: QuotientGroup,
    wN: np.ndarray | None = None,
) -> np.ndarray:
    """The sections of `t_xi` along the last axis of a (..., |G|) array.

    One real product of the grid-shaped rows' float view against the
    character's `conj_form`, for every row and leading index together.  The
    form has two columns, not the one column of a complex matrix-vector
    product, which OpenBLAS splits across threads from 4096 entries on (a
    second thread costs more to wake than the whole product).
    """
    if wN is None:
        form = char.conj_form
    else:
        form = _real_form((char.complex_values.conj() * wN)[:, None])
    rows = np.ascontiguousarray(quot.on_grid(values), dtype=complex)
    sums = rows.view(np.float64).reshape(-1, form.shape[0]) @ form
    return sums.view(complex).reshape(rows.shape[:-1])


def _on_group(section: np.ndarray, char: Character, quot: QuotientGroup) -> np.ndarray:
    """The values on the whole group of the sections along the last axis of a
    (..., |G/N|) array: psi(r_i s_j) = xi(s_j) * section[i]."""
    on_grid = section[..., :, None] * char.complex_values   # laid out like quot.grid
    flat = on_grid.reshape(*section.shape[:-1], on_grid.shape[-2] * on_grid.shape[-1])
    return flat.take(quot.grid_order, axis=-1)


def from_section(
    section: Sequence[complex], char: Character, quot: QuotientGroup
) -> CovariantFunction:
    """Extend values on the coset representatives to a covariant function."""
    return CovariantFunction(quot, char, section)


def cov_norm(
    psi: CovariantFunction, p: float, measure: MeasureTriple | Sequence[float] | None = None
) -> float:
    """The p-norm of the section against the quotient weights (`groups._weights`).

    Because |psi| is constant on each coset, this is the natural norm of the
    covariant function itself; with counting weights it differs from the
    full-group p-norm exactly by the factor |N| ** (1/p).
    """
    p = _bounded(p, 1, "norm exponent", ExponentError)
    return float(_p_norms(psi.section, p, _weights(measure, "wQ", psi.quotient.order)))


def project_trivial(psi: CovariantFunction) -> GroupFunction:
    """Identify a trivially-covariant function with a function on the quotient."""
    if not psi.character.is_trivial:
        raise IdentificationError(
            "only functions covariant for the trivial character descend to the quotient"
        )
    return GroupFunction(psi.quotient.table, psi.section)

