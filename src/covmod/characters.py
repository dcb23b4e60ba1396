"""One-dimensional characters with exact rational phases.

A character stores, for each member s of its domain N, the rational q(s)
in [0, 1) with value(s) = exp(2*pi*i*q(s)), as one read-only int64 row of
numerators over |N|.  Every `Character` satisfies the homomorphism law
q(s*t) = q(s) + q(t) (mod 1), validated in exact integer arithmetic when
it is built from phases, so each phase's denominator divides |N|, its
`denominator` is `domain.order`, and character identities (orthogonality,
root-of-unity values) carry no floating error.  The phases as `Fraction`s,
the reduced pairs and the complex values are derived from the row when
first read.
"""

from __future__ import annotations

import cmath
import math
import numbers
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainMismatchError, ResourceError, ValidationError
from .groups import (
    FiniteGroup,
    Subgroup,
    _element,
    _frozen,
    _real_form,
    _Refrozen,
    full_subgroup,
)

# Enumeration's validation holds the r |N| x r edge deltas and checks every
# candidate against each distinct one; the cap bounds that working set until
# a guard on its bytes replaces it.
ENUMERATION_LIMIT = 1024


def _as_subgroup(domain: FiniteGroup | Subgroup) -> Subgroup:
    """The one reader of a character's domain: a group is its full subgroup,
    and anything but a group or a `Subgroup` is refused."""
    if isinstance(domain, FiniteGroup):
        return full_subgroup(domain)
    if not isinstance(domain, Subgroup):
        raise DomainMismatchError(f"a character's domain must be a group or a subgroup, got {domain!r}")
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


@lru_cache(maxsize=None)
def _roots_of_unity(n: int) -> np.ndarray:
    """phase_to_complex(j / n) at index j, read-only."""
    return _frozen(np.array([phase_to_complex(Fraction(j, n)) for j in range(n)]))[0]


@lru_cache(maxsize=None)
def _fractions(n: int) -> tuple[Fraction, ...]:
    """Fraction(j, n) at index j, shared by every character over n."""
    return tuple(Fraction(j, n) for j in range(n))


def _phase(q, i: int) -> Fraction:
    """Phase entry i reduced mod 1: an int, another `numbers.Rational` or a
    finite float, never a bool, a string or anything else."""
    if isinstance(q, bool) or not (
        isinstance(q, numbers.Rational) or isinstance(q, float) and math.isfinite(q)
    ):
        raise ValidationError(f"phase {i} must be a rational number or a finite float, got {q!r}")
    return Fraction(q) % 1


class Character(_Refrozen):
    """An exact character of a subgroup, phases aligned with `domain.members`.

    `Character(domain, phases)` is `make_character(domain, phases)`: it
    validates the homomorphism law and refuses what that refuses, with the
    same message.  So every `Character` is a character, stored as
    `numerators`, a read-only int64 row over |N| (each phase's denominator
    divides its element's order, and so |N|), and `denominator` is always
    `domain.order`.  Equal phases have one stored form, and equality and
    hashing read it.  `phases`, `phase_pairs` and `complex_values` are built
    from it on first read.
    """

    def __init__(self, domain: FiniteGroup | Subgroup, phases: Sequence[Fraction | int]) -> None:
        vars(self).update(vars(make_character(domain, phases)))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"a Character is read-only; cannot set {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Character):
            return NotImplemented
        same_domain = self.domain is other.domain or self.domain == other.domain
        return same_domain and self.same_phases(other)

    def __hash__(self) -> int:
        return hash((self.domain, self.numerators.tobytes()))

    def __repr__(self) -> str:
        return f"Character(domain={self.domain!r}, phases={self.phases!r})"

    def same_phases(self, other: Character) -> bool:
        """Whether the two phase vectors are equal, whatever the domains."""
        return np.array_equal(self.numerators, other.numerators)

    @property
    def denominator(self) -> int:
        """|N|, the denominator of every stored numerator."""
        return self.domain.order

    @cached_property
    def phases(self) -> tuple[Fraction, ...]:
        """The phases as reduced `Fraction`s in [0, 1), built on first read."""
        return tuple(map(_fractions(self.denominator).__getitem__, self.numerators.tolist()))

    @cached_property
    def complex_values(self) -> np.ndarray:
        """Phases converted to unit complex numbers, once, in member order,
        as a read-only complex128 array: `phase_to_complex` of each phase,
        gathered from one table of the |N|-th roots of unity."""
        return _frozen(_roots_of_unity(self.denominator)[self.numerators])[0]

    @cached_property
    def conj_form(self) -> np.ndarray:
        """`_real_form` of conj(values) as one column, (2|N| x 2) floats, kept
        once: rows.view(float) @ it is sum over s of rows(s) conj(xi(s)) as
        (real, imaginary), the averaging of `t_xi`."""
        return _frozen(_real_form(self.complex_values.conj()[:, None]))[0]

    @cached_property
    def phase_pairs(self) -> tuple[tuple[int, int], ...]:
        """Each phase as its reduced (numerator, denominator), as documents
        write them."""
        g = np.gcd(self.numerators, self.denominator)
        return tuple(zip((self.numerators // g).tolist(), (self.denominator // g).tolist()))

    @property
    def is_trivial(self) -> bool:
        return not self.numerators.any()

    def value(self, s: int) -> complex:
        """The character's value at a parent element index (`_element`),
        whose slot is found by bisection in the sorted `domain.members`."""
        members, x = self.domain.members, _element(self.domain.parent, s)
        i = bisect_left(members, x)
        if i == len(members) or members[i] != x:
            raise DomainMismatchError(f"element {s} is not a member of the character's domain")
        return complex(self.complex_values[i])


def _character(domain: Subgroup, numerators: np.ndarray) -> Character:
    """A character from its stored form, taken as given, not validated:
    read-only int64 `numerators` in [0, |N|) over |N| that satisfy the
    homomorphism law, as every `Character` does."""
    char = object.__new__(Character)
    vars(char).update(domain=domain, numerators=numerators)
    return char


def make_character(
    domain: FiniteGroup | Subgroup, phases: Sequence[Fraction | int]
) -> Character:
    """Validate the homomorphism law exactly and return the character.

    Each phase is an int, another `numbers.Rational` or a finite float,
    reduced mod 1; any other entry is refused, by index.  The law is checked
    on integer numerators over the common denominator, on the edges
    q(g s) = q(g) + q(s) of `Subgroup.walk`, naming the first failing edge.
    It already makes every stored value an exact root of unity:
    ord(s) q(s) = q(e) = 0 mod 1, so each phase's denominator divides its
    element's order, and so |N|, over which the character is stored.
    """
    sub = _as_subgroup(domain)
    if not isinstance(phases, Iterable):
        raise ValidationError(f"phases must be an iterable of numbers, got {phases!r}")
    qs = tuple(_phase(q, i) for i, q in enumerate(phases))
    den = math.lcm(*(q.denominator for q in qs))
    nums = [q.numerator * (den // q.denominator) for q in qs]
    if len(qs) != sub.order:
        raise ValidationError(
            f"got {len(qs)} phases for a subgroup of order {sub.order}"
        )
    ms = np.array(sub.members)
    # a sum of two numerators stays below 2^63; past that, exact Python integers
    num = np.array(nums, dtype=np.int64 if den < 2**62 else object)
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
    char = _character(sub, _frozen(num * (sub.order // den))[0])
    vars(char)["phases"] = qs
    return char


def trivial_character(domain: FiniteGroup | Subgroup) -> Character:
    sub = _as_subgroup(domain)
    return _character(sub, _frozen(np.zeros(sub.order, dtype=np.int64))[0])


def enumerate_characters(domain: FiniteGroup | Subgroup) -> Dual:
    """All characters of the domain, ordered lexicographically by phase
    vector, as a read-only sequence (`Dual`) whose characters are built on
    first access and kept.

    The candidates are the phase vectors p on the generators of
    `Subgroup.walk` that satisfy its relations, at most |N| of them, and
    its words give all member phases, numerators over |N|.  On the edge
    (g_j, s_i) the law reads p . delta = 0 mod |N|, with
    delta = words[g_j s_i] - words[s_i] - e_j, so each candidate is checked
    once against each distinct delta, of which an abelian domain has a
    handful.  A candidate that satisfies every edge is a homomorphism even
    where the relations do not present a non-abelian domain.  Only the
    accepted phases on the generators are kept, |N^| x r integers; character
    i's numerators, accepted[i] @ words.T mod |N|, are computed when it is
    first read.

    The candidates come in lexicographic order, and so do their rows: g_j
    is the least member outside span(g_0 .. g_j-1), so the members before
    it take phases fixed by p_0 .. p_j-1, and g_j itself, whose word is
    e_j, takes p_j.  Two candidates first differing at p_j thus have rows
    that first differ at g_j, in the same order, and no sort is needed.

    `ENUMERATION_LIMIT` stays: the validation still holds the r^2 |N|
    integers of the deltas and a (candidates x distinct deltas) product,
    which a byte guard is to bound in its place.  Built on first access,
    the call at Z32 x Z32 takes 0.23 ms and peaks at 114 KiB (tracemalloc)
    where building every character took 8 ms and 8.4 MiB, and K's 256 at
    WH(16,16) take 0.09 ms in place of 0.66 ms: with the walk of
    `generating_set`, set-up at WH(16,16) fell from 1.9 to 1.3 ms (2-CPU
    Xeon, numpy 2.4).
    """
    sub = _as_subgroup(domain)
    if sub.order > ENUMERATION_LIMIT:
        raise ResourceError(
            f"character enumeration supports subgroups of order up to "
            f"{ENUMERATION_LIMIT}, got {sub.order}"
        )
    gens, words, relations, at = sub.walk   # members[i] is a word with words[i, j] gens[j]
    if not gens.size:                       # the trivial subgroup: one empty phase vector
        return Dual(sub, np.zeros((1, 0), dtype=np.int64), words)
    den, r = sub.order, gens.size           # every m_j divides |N|

    # on the generators, whose words are unit vectors
    candidates = _solutions(relations, den)
    delta = (words[at] - words - np.eye(r, dtype=np.int64)[:, None]).reshape(r * den, r)
    delta = delta[np.lexsort(delta.T)]
    distinct = np.concatenate((delta[:1], delta[1:][(delta[1:] != delta[:-1]).any(axis=1)]))
    return Dual(sub, candidates[(candidates @ distinct.T % den == 0).all(axis=1)], words)


class Dual(Sequence, _Refrozen):
    """The characters of a subgroup N in the order of `enumerate_characters`,
    as a read-only sequence.

    It keeps the accepted phases on the generators of `Subgroup.walk`, one
    row of `accepted` per character, and the walk's words.  Character i,
    numerators accepted[i] @ words.T mod |N| over |N|, is built on its first
    access and kept, so `chars[i] is chars[i]` and tables keyed by a
    character's identity still hit.  Iteration is `Sequence`'s, one index
    at a time, so it builds and keeps each character in the same way.
    Indexing, slicing and `IndexError` behave as on a list.
    """

    def __init__(self, domain: Subgroup, accepted: np.ndarray, words: np.ndarray) -> None:
        self.domain = domain
        self.accepted, self.words = _frozen(accepted)[0], words
        self._built: list[Character | None] = [None] * len(accepted)

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        try:
            i = range(len(self))[index]
        except IndexError:
            raise IndexError("character index out of range") from None
        char = self._built[i]
        if char is None:
            row = self.accepted[i] @ self.words.T % self.domain.order
            char = self._built[i] = _character(self.domain, _frozen(row)[0])
        return char


def _solutions(relations: np.ndarray, den: int) -> np.ndarray:
    """Every p with relations @ p = 0 mod den, one per row, in lexicographic
    order: m_j divides den, so row j gives p_j m_j values when m_j divides
    phase(word_j), else none.  At least one relation; row 0 is m_0 p_0 = 0."""
    orders = relations.diagonal().tolist()
    found = np.arange(0, den, den // orders[0], dtype=np.int64)[:, None]
    for j, m in enumerate(orders[1:], 1):
        rhs = -(found @ relations[j, :j]) % den
        solvable = rhs % m == 0
        p = rhs[solvable, None] // m + np.arange(0, den, den // m)
        found = np.concatenate((found[solvable].repeat(m, axis=0), p.reshape(-1, 1)), axis=1)
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
    moved = _frozen(char.numerators[np.searchsorted(ms, image)])[0]
    return _character(sub, moved)


def char_mul(a: Character, b: Character) -> Character:
    if not a.domain.same_as(b.domain):
        raise DomainMismatchError("characters live on different subgroups")
    return _character(a.domain, _frozen((a.numerators + b.numerators) % a.denominator)[0])


def char_conj(a: Character) -> Character:
    return _character(a.domain, _frozen(-a.numerators % a.denominator)[0])


def char_inner(a: Character, b: Character) -> int:
    """Exact inner product sum_s a(s) * conj(b(s)), certified in integer arithmetic.

    The summand is itself a character; its phase multiset must consist of
    the m-th roots of unity each taken |N|/m times (m the lcm of the phase
    denominators, a divisor of |N|), which makes the sum exactly |N| when
    m = 1 and exactly 0 otherwise.  The count is certified, not assumed.
    """
    prod = char_mul(a, char_conj(b))
    n, nums = prod.denominator, prod.numerators
    g = math.gcd(n, int(np.gcd.reduce(nums, initial=0)))
    m = n // g                          # the phases are the j / m, at j = nums / g
    if m == 1:
        return n
    if not (np.bincount(nums // g, minlength=m) == g).all():
        raise ValidationError(
            "phase multiset is not equidistributed over the roots of unity; "
            "inputs are not both characters"
        )
    return 0
