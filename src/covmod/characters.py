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
from itertools import product as iter_product
from typing import Mapping, Sequence

from .errors import DomainMismatchError, ResourceError, ValidationError
from .groups import FiniteGroup, Subgroup, full_subgroup, generating_set

# Enumeration walks every phase assignment on a greedy generating set; this
# cap keeps that search comfortably below a few seconds.
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
    def complex_values(self) -> tuple[complex, ...]:
        """Phases converted to unit complex numbers, once, in member order."""
        return tuple(phase_to_complex(q) for q in self.phases)

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
            return self.complex_values[self.domain.position[s]]
        except KeyError:
            raise DomainMismatchError(
                f"element {s} is not a member of the character's domain"
            ) from None


def make_character(
    domain: FiniteGroup | Subgroup, phases: Sequence[Fraction | int]
) -> Character:
    """Validate the homomorphism law exactly and return the character.

    Input phases are reduced mod 1.  Beyond the homomorphism law the
    constructor also confirms that each phase's denominator divides the
    element's order, so every stored value is an exact root of unity.
    """
    sub = _as_subgroup(domain)
    qs = tuple(Fraction(q) % 1 for q in phases)
    if len(qs) != sub.order:
        raise ValidationError(
            f"got {len(qs)} phases for a subgroup of order {sub.order}"
        )
    group = sub.parent
    pos = sub.position
    for s, q in zip(sub.members, qs):
        d = group.element_order(s)
        if (q * d).denominator != 1:
            raise ValidationError(
                f"phase {q} at element {s} is not compatible with its order {d}"
            )
    mul = group.mul
    for i, s in enumerate(sub.members):
        row = mul[s]
        for j, t in enumerate(sub.members):
            if qs[pos[row[t]]] != (qs[i] + qs[j]) % 1:
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

    A character is determined by its phases on a generating set, and each
    generator's phase must be a multiple of 1/order(generator).  Every such
    assignment is propagated through the multiplication table and kept only
    if it extends to a consistent homomorphism, which yields each character
    exactly once.
    """
    sub = _as_subgroup(domain)
    if sub.order > ENUMERATION_LIMIT:
        raise ResourceError(
            f"character enumeration supports subgroups of order up to "
            f"{ENUMERATION_LIMIT}, got {sub.order}"
        )
    group = sub.parent
    mul = group.mul
    members = sub.members
    pos = sub.position
    gens = generating_set(mul, group.identity, members)
    orders = [group.element_order(g) for g in gens]

    found: list[tuple[Fraction, ...]] = []
    for assignment in iter_product(*(range(d) for d in orders)):
        gen_phase = {
            g: Fraction(a, d) for g, a, d in zip(gens, assignment, orders)
        }
        phase: dict[int, Fraction] = {group.identity: Fraction(0)}
        queue = [group.identity]
        ok = True
        while queue and ok:
            x = queue.pop()
            qx = phase[x]
            for g, qg in gen_phase.items():
                y = mul[x][g]
                qy = (qx + qg) % 1
                seen = phase.get(y)
                if seen is None:
                    phase[y] = qy
                    queue.append(y)
                elif seen != qy:
                    ok = False
                    break
        if not ok or len(phase) != sub.order:
            continue
        # The walk above spans the subgroup; re-check every (element, generator)
        # edge so the assignment is a homomorphism, not just consistent on a tree.
        for x in members:
            qx = phase[x]
            for g, qg in gen_phase.items():
                if phase[mul[x][g]] != (qx + qg) % 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(tuple(phase[m] for m in members))

    found.sort()
    return [Character(sub, qs) for qs in found]


def pullback(char: Character, theta: Mapping[int, int] | Sequence[int]) -> Character:
    """Compose a character with an automorphism of its domain.

    `theta` maps member indices to member indices, either as a mapping or as
    a dense sequence indexed by parent element.  It is validated to be a
    bijective homomorphism of the domain; the result is again an exact
    character, with phases simply permuted.
    """
    sub = char.domain
    members = sub.members
    try:
        image = {s: int(theta[s]) for s in members}
    except (KeyError, IndexError) as exc:
        raise ValidationError(f"map is not defined on member {exc.args[0]}") from exc
    if set(image.values()) != set(members):
        raise ValidationError("map is not a bijection of the subgroup onto itself")
    mul = sub.parent.mul
    for s in members:
        for t in members:
            if image[mul[s][t]] != mul[image[s]][image[t]]:
                raise ValidationError(
                    f"map is not multiplicative at pair ({s}, {t})"
                )
    pos = sub.position
    qs = tuple(char.phases[pos[image[s]]] for s in members)
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
