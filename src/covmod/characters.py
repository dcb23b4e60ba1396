"""One-dimensional characters with exact rational phases.

A character stores, for each member s of its domain, the rational q(s) in
[0, 1) with value(s) = exp(2*pi*i*q(s)).  The homomorphism law
q(s*t) = q(s) + q(t) (mod 1) is validated in exact arithmetic, so character
identities (orthogonality, root-of-unity values) carry no floating error.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainMismatchError, ResourceError, ValidationError
from .groups import (
    FiniteGroup,
    Subgroup,
    _BLOCK,
    _frozen,
    _real_form,
    full_subgroup,
)

# Enumeration checks at most one candidate per element on every member; this
# cap keeps that quadratic search comfortably below a second.
ENUMERATION_LIMIT = 1024


def _as_subgroup(domain: FiniteGroup | Subgroup) -> Subgroup:
    if isinstance(domain, FiniteGroup):
        return full_subgroup(domain)
    return domain


def phase_to_complex(q: Fraction) -> complex:
    # Quarter turns come out exact; everything else trusts cmath.
    if q.denominator == 1:
        return 1 + 0j
    if q.denominator == 2:
        return -1 + 0j
    if q.denominator == 4:
        return 1j if q.numerator % 4 == 1 else -1j
    return cmath.exp(2j * cmath.pi * float(q))


@dataclass(frozen=True)
class Character:
    """An exact character of a subgroup, phases aligned with `domain.members`."""

    domain: Subgroup
    phases: tuple[Fraction, ...]

    @cached_property
    def complex_values(self) -> np.ndarray:
        """Phases converted to unit complex numbers, once, in member order,
        as a read-only complex128 array."""
        values = np.array([phase_to_complex(q) for q in self.phases], dtype=complex)
        return _frozen(values)[0]

    @cached_property
    def conj_form(self) -> np.ndarray:
        """`_real_form` of conj(values) as one column, (2|N| x 2) floats, kept
        once: rows.view(float) @ it is sum over s of rows(s) conj(xi(s)) as
        (real, imaginary), the averaging of `t_xi`."""
        return _frozen(_real_form(self.complex_values.conj()[:, None]))[0]

    @cached_property
    def phase_pairs(self) -> tuple[tuple[int, int], ...]:
        """Each phase as its reduced (numerator, denominator), for exact
        comparison against an expected tuple in one step."""
        return tuple((q.numerator, q.denominator) for q in self.phases)

    @property
    def is_trivial(self) -> bool:
        return all(q == 0 for q in self.phases)

    def value(self, s: int) -> complex:
        """The character's value at a parent element index."""
        try:
            return complex(self.complex_values[self.domain.position[s]])
        except KeyError:
            raise DomainMismatchError(
                f"element {s} is not a member of the character's domain"
            ) from None


def make_character(
    domain: FiniteGroup | Subgroup, phases: Sequence[Fraction | int]
) -> Character:
    """Validate the homomorphism law exactly and return the character.

    Input phases are reduced mod 1.  The law is checked on integer
    numerators over the common denominator, on the edges q(g s) = q(g) + q(s)
    of `Subgroup.walk`, naming the first failing edge.  It already makes
    every stored value an exact root of unity: ord(s) q(s) = q(e) = 0 mod 1,
    so each phase's denominator divides its element's order.
    """
    sub = _as_subgroup(domain)
    qs = tuple(Fraction(q) % 1 for q in phases)
    if len(qs) != sub.order:
        raise ValidationError(
            f"got {len(qs)} phases for a subgroup of order {sub.order}"
        )
    ms = np.array(sub.members)
    den = math.lcm(*(q.denominator for q in qs))
    # a sum of two numerators stays below 2^63; past that, exact Python integers
    num = np.array(
        [q.numerator * (den // q.denominator) for q in qs],
        dtype=np.int64 if den < 2**62 else object,
    )
    gens, _, _, at = sub.walk
    if not gens.size:         # the trivial subgroup: its one pair is (e, e)
        gens, at = ms, np.zeros((1, 1), dtype=np.intp)
    on_gens = num[np.searchsorted(ms, gens)]
    failing = np.argwhere(num[at] != (on_gens[:, None] + num) % den)
    if failing.size:
        s, t = gens[failing[0, 0]], ms[failing[0, 1]]
        raise ValidationError(
            f"homomorphism law fails at pair ({s}, {t}): "
            f"phase({s}*{t}) != phase({s}) + phase({t}) mod 1"
        )
    return Character(sub, qs)


def trivial_character(domain: FiniteGroup | Subgroup) -> Character:
    sub = _as_subgroup(domain)
    return Character(sub, (Fraction(0),) * sub.order)


def enumerate_characters(domain: FiniteGroup | Subgroup) -> list[Character]:
    """All characters of the domain, ordered lexicographically by phase vector.

    The candidates are the phase vectors on the generators of
    `Subgroup.walk` that satisfy its relations, at most the subgroup order
    of them, and its words give all member phases at once.  A candidate that
    satisfies every (generator, member) edge is a homomorphism even where
    the relations do not present a non-abelian domain.
    """
    sub = _as_subgroup(domain)
    if sub.order > ENUMERATION_LIMIT:
        raise ResourceError(
            f"character enumeration supports subgroups of order up to "
            f"{ENUMERATION_LIMIT}, got {sub.order}"
        )
    gens, words, relations, at = sub.walk   # members[i] is a word with words[i, j] gens[j]
    den = sub.order                       # every m_j divides it

    candidates = _solutions(relations, den)   # on the generators, whose words are unit vectors
    block = max(1, _BLOCK // (sub.order * max(len(gens), 1)))
    found = []
    for start in range(0, len(candidates), block):
        on_gens = candidates[start : start + block]
        phases = on_gens @ words.T % den        # phases[a, i]
        edges = phases[:, at] == (on_gens[:, :, None] + phases[:, None]) % den
        found.extend(map(tuple, phases[edges.all(axis=(1, 2))].tolist()))
    fractions = [Fraction(j, den) for j in range(den)]
    return [Character(sub, tuple(fractions[j] for j in row)) for row in sorted(found)]


def _solutions(relations: np.ndarray, den: int) -> np.ndarray:
    """Every p with relations @ p = 0 mod den, one per row: m_j divides den,
    so row j gives p_j m_j values when m_j divides phase(word_j), else none."""
    found = np.zeros((1, 0), dtype=np.int64)
    for j, row in enumerate(relations):
        m = int(row[j])
        rhs = -(found @ row[:j]) % den
        solvable = rhs % m == 0
        p = rhs[solvable, None] // m + np.arange(m) * (den // m)
        found = np.column_stack((np.repeat(found[solvable], m, axis=0), p.ravel()))
    return found


def pullback(char: Character, theta: Mapping[int, int] | Sequence[int]) -> Character:
    """Compose a character with an automorphism of its domain.

    `theta` maps member indices to member indices, either as a mapping or as
    a dense sequence indexed by parent element.  It is validated to be a
    bijective homomorphism on the edges of `Subgroup.walk`, naming the first
    failing edge; the result is again an exact character, phases permuted.
    """
    sub = char.domain
    image = []
    for s in sub.members:
        try:
            t = theta[s]
        except (KeyError, IndexError, TypeError):
            raise ValidationError(f"map is not defined on member {s}") from None
        if isinstance(t, bool) or not isinstance(t, (int, np.integer)):
            raise ValidationError(f"map sends member {s} to {t!r}, not an element index")
        image.append(int(t))
    image, ms = np.array(image), np.array(sub.members)
    if not np.array_equal(np.sort(image), ms):
        raise ValidationError("map is not a bijection of the subgroup onto itself")
    gens, _, _, at = sub.walk
    on_gens = image[np.searchsorted(ms, gens)]
    failing = np.argwhere(image[at] != sub.parent.multiply(on_gens[:, None], image))
    if failing.size:
        s, t = gens[failing[0, 0]], ms[failing[0, 1]]
        raise ValidationError(f"map is not multiplicative at pair ({s}, {t})")
    qs = tuple(char.phases[i] for i in np.searchsorted(ms, image).tolist())
    return Character(sub, qs)


def char_mul(a: Character, b: Character) -> Character:
    if not a.domain.same_as(b.domain):
        raise DomainMismatchError("characters live on different subgroups")
    return Character(a.domain, tuple((qa + qb) % 1 for qa, qb in zip(a.phases, b.phases)))


def char_conj(a: Character) -> Character:
    return Character(a.domain, tuple((-q) % 1 for q in a.phases))


def char_inner(a: Character, b: Character) -> int:
    """Exact inner product sum_s a(s) * conj(b(s)), certified in rational arithmetic.

    The summand is itself a character; its phase multiset must consist of
    the m-th roots of unity each taken |N|/m times (m the lcm of the phase
    denominators), which makes the sum exactly |N| when m = 1 and exactly 0
    otherwise.  A violation would mean the inputs are not characters.
    """
    prod = char_mul(a, char_conj(b))
    n = prod.domain.order
    m = 1
    for q in prod.phases:
        m = m * q.denominator // math.gcd(m, q.denominator)
    if m == 1:
        return n
    counts: dict[Fraction, int] = {}
    for q in prod.phases:
        counts[q] = counts.get(q, 0) + 1
    expected = {Fraction(j, m) % 1: n // m for j in range(m)}
    if n % m != 0 or counts != expected:
        raise ValidationError(
            "phase multiset is not equidistributed over the roots of unity; "
            "inputs are not both characters"
        )
    return 0
