"""Finite groups as dense index tables, with subgroups, quotients, and compatible weights.

Elements of a group of order n are the integers 0..n-1.  All types are
immutable once constructed.  A group keeps its multiplication table as one
read-only int32 array, which the kernels gather rows and blocks from; the
nested-tuple `mul` is built from that array for scalar lookups and hashing.

An explicit table is validated exactly at every order.  Associativity uses
Light's test (Clifford & Preston, The Algebraic Theory of Semigroups, vol. 1,
1961): the elements s with (x*y)*s == x*(y*s) for all x and y form a
submonoid, so checking s on a generating set suffices.  Each generator costs
two whole-table numpy gathers.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DomainMismatchError,
    ExponentError,
    MeasureError,
    NormalityError,
    ResourceError,
    ValidationError,
)

MAX_GROUP_ORDER = 1 << 20


def _check_order(order: int) -> None:
    if order < 1:
        raise ValidationError(f"group order must be at least 1, got {order}")
    if order > MAX_GROUP_ORDER:
        raise ResourceError(
            f"group order {order} exceeds the supported maximum {MAX_GROUP_ORDER}"
        )


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group: order, multiplication table, inverse table, identity.

    `table[x, y]` is the index of x*y.  `mul` holds the same table as nested
    tuples; it is built from `table` and compared and hashed in its place.
    """

    order: int
    table: np.ndarray = field(compare=False, repr=False)
    inv: tuple[int, ...]
    identity: int
    labels: tuple[str, ...] | None = None
    mul: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self) -> None:
        table = np.ascontiguousarray(self.table, dtype=np.int32)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)
        # Rows share one int object per element: 8 bytes a tuple entry,
        # where a fresh int per entry would cost 36.
        elements = np.arange(self.order).astype(object)
        object.__setattr__(
            self, "mul", tuple(tuple(elements[row].tolist()) for row in table)
        )

    def label(self, x: int) -> str:
        return self.labels[x] if self.labels is not None else str(x)

    def element_order(self, x: int) -> int:
        k, y = 1, x
        while y != self.identity:
            y = self.mul[y][x]
            k += 1
        return k

    @cached_property
    def inverse_index(self) -> np.ndarray:
        """`inv` as a read-only index array, for whole-array gathers."""
        index = np.array(self.inv, dtype=np.intp)
        index.flags.writeable = False
        return index

    @cached_property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    @cached_property
    def fingerprint(self) -> str:
        """A short structural digest of the order and the table, computed once."""
        h = hashlib.sha256()
        h.update(b"covmod-group-v1:")
        h.update(str(self.order).encode())
        for row in self.mul:
            h.update(b"|")
            h.update(",".join(map(str, row)).encode())
        return h.hexdigest()[:16]


@dataclass(frozen=True)
class Subgroup:
    """A validated subgroup, stored as sorted member indices of the parent."""

    parent: FiniteGroup
    members: tuple[int, ...]

    @cached_property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    @cached_property
    def position(self) -> dict[int, int]:
        """Map a parent element index to its slot in `members`."""
        return {m: i for i, m in enumerate(self.members)}

    @property
    def order(self) -> int:
        return len(self.members)

    def same_as(self, other: "Subgroup") -> bool:
        return self.parent is other.parent and self.members == other.members


@dataclass(frozen=True)
class QuotientGroup:
    """Left cosets of a normal subgroup, with the induced group on coset indices.

    Cosets are enumerated in increasing order of their smallest member, and
    each coset's representative is that smallest member.  `proj[x]` is the
    coset index of element x; `table` is the quotient as a plain FiniteGroup.
    """

    parent: FiniteGroup
    normal: Subgroup
    cosets: tuple[tuple[int, ...], ...]
    reps: tuple[int, ...]
    proj: tuple[int, ...]
    table: FiniteGroup

    @property
    def order(self) -> int:
        return len(self.reps)

    @cached_property
    def grid(self) -> np.ndarray:
        """`grid[i, j]` is reps[i] * members[j]: row i lists coset i in member order."""
        grid = self.parent.table[np.ix_(self.reps, self.normal.members)]
        grid.flags.writeable = False
        return grid

    @cached_property
    def grid_order(self) -> np.ndarray:
        """Where each element sits in the flattened `grid`: a gather by this
        index puts grid-shaped values back in element order."""
        order = np.argsort(self.grid, axis=None)
        order.flags.writeable = False
        return order


@dataclass(frozen=True)
class MeasureTriple:
    """Per-element weights on a group, a subgroup, and the quotient.

    The three families satisfy the compatibility wQ * wN = wG elementwise
    (uniform scales), so that summing over cosets and then over the subgroup
    reproduces the full-group sum.
    """

    wG: tuple[float, ...]
    wN: tuple[float, ...]
    wQ: tuple[float, ...]


@dataclass(frozen=True)
class GroupFunction:
    """A complex-valued function on a group, stored densely by element index."""

    group: FiniteGroup
    values: tuple[complex, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.group.order:
            raise DomainMismatchError(
                f"function has {len(self.values)} values on a group of order "
                f"{self.group.order}"
            )

    def __add__(self, other: "GroupFunction") -> "GroupFunction":
        if other.group is not self.group:
            raise DomainMismatchError("cannot add functions on different groups")
        return GroupFunction(
            self.group, tuple(a + b for a, b in zip(self.values, other.values))
        )

    def __sub__(self, other: "GroupFunction") -> "GroupFunction":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "GroupFunction":
        return GroupFunction(self.group, tuple(scalar * v for v in self.values))


def make_cyclic(order: int) -> FiniteGroup:
    """The additive group of integers modulo `order`."""
    _check_order(order)
    a = np.arange(order, dtype=np.int32)
    inv = tuple((-x) % order for x in range(order))
    return FiniteGroup(order, (a[:, None] + a) % order, inv, 0)


def make_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Direct product; the pair (x, y) gets index x * b.order + y."""
    order = a.order * b.order
    _check_order(order)
    nb = b.order
    # table[(xa, xb), (ya, yb)] = (xa*ya) * nb + xb*yb
    table = (a.table[:, None, :, None] * nb + b.table[None, :, None, :]).reshape(order, order)
    inv = tuple(
        a.inv[xa] * nb + b.inv[xb] for xa in range(a.order) for xb in range(nb)
    )
    labels = None
    if a.labels is not None and b.labels is not None:
        labels = tuple(
            f"({la},{lb})" for la in a.labels for lb in b.labels
        )
    return FiniteGroup(order, table, inv, a.identity * nb + b.identity, labels)


def right_closure(
    mul: Sequence[Sequence[int]], identity: int, gens: Iterable[int]
) -> set[int]:
    """Everything reached from the identity by right multiplication by `gens`.

    Reads one table entry `mul[y][g]` per reached element y and generator g.
    In a finite group the result is the subgroup that `gens` generate.
    """
    gens = tuple(gens)
    reached = {identity}
    queue = [identity]
    while queue:
        row = mul[queue.pop()]
        for g in gens:
            z = row[g]
            if z not in reached:
                reached.add(z)
                queue.append(z)
    return reached


def generating_set(
    mul: Sequence[Sequence[int]], identity: int, members: Iterable[int]
) -> list[int]:
    """Greedy generators of `members`: each is the smallest member not yet generated."""
    gens: list[int] = []
    reached = {identity}
    for x in sorted(members):
        if x not in reached:
            gens.append(x)
            reached = right_closure(mul, identity, gens)
    return gens


def _check_associative(group: FiniteGroup) -> None:
    """Light's test: check (x*y)*s == x*(y*s) for every x, y and each generator s.

    The elements s that pass for all x and y include the identity and are
    closed under multiplication, so passing on a generating set is exact.
    """
    arr = group.table
    for s in generating_set(group.mul, group.identity, range(group.order)):
        col = arr[:, s]
        left = col[arr]                      # left[x, y] = (x*y)*s
        right = np.take(arr, col, axis=1)    # right[x, y] = x*(y*s)
        if not np.array_equal(left, right):
            x, y = map(int, np.argwhere(left != right)[0])
            raise ValidationError(
                f"associativity fails at triple ({x}, {y}, {s}): "
                f"({x}*{y})*{s} = {int(left[x, y])} but "
                f"{x}*({y}*{s}) = {int(right[x, y])}"
            )


def make_from_table(
    table: Sequence[Sequence[int]], labels: Sequence[str] | None = None
) -> FiniteGroup:
    """Build a group from an explicit multiplication table, validating the axioms.

    The table must be a square list of rows of int entries in 0..n-1, possess
    a two-sided identity and two-sided inverses, and be associative, which
    Light's test checks exactly at every order in O(n^2) work per generator.
    """
    if not isinstance(table, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) for row in table
    ):
        raise ValidationError("a multiplication table must be a list of rows")
    n = len(table)
    _check_order(n)
    for i, row in enumerate(table):
        if len(row) != n:
            raise ValidationError(f"row {i} has length {len(row)}, expected {n}")
        if set(map(type, row)) != {int} or min(row) < 0 or max(row) >= n:
            j, v = next(
                (j, v) for j, v in enumerate(row) if type(v) is not int or not 0 <= v < n
            )
            raise ValidationError(
                f"entry mul({i},{j}) = {v!r} is not an element of 0..{n-1}"
            )
    arr = np.array(table, dtype=np.int32)

    elements = np.arange(n)
    two_sided = np.all(arr == elements, axis=1) & np.all(arr.T == elements, axis=1)
    if not two_sided.any():
        raise ValidationError("table has no two-sided identity element")
    identity = int(two_sided.argmax())

    # inv[x] is the first y with x*y == y*x == identity, as in a scan over y
    inverse = (arr == identity) & (arr.T == identity)
    missing = ~inverse.any(axis=1)
    if missing.any():
        raise ValidationError(f"element {int(missing.argmax())} has no two-sided inverse")
    inv = tuple(inverse.argmax(axis=1).tolist())

    packed_labels = None
    if labels is not None:
        if not isinstance(labels, (list, tuple)) or len(labels) != n:
            raise ValidationError(f"labels must be a list of {n} names")
        packed_labels = tuple(str(s) for s in labels)
    group = FiniteGroup(n, arr, inv, identity, packed_labels)
    _check_associative(group)
    return group


def make_subgroup(group: FiniteGroup, members: Iterable[int]) -> Subgroup:
    """Validate closure, identity, and inverses, and return the subgroup."""
    try:
        given = tuple(members)
    except TypeError:
        raise ValidationError("subgroup members must be a list of element indices") from None
    bad = next((m for m in given if type(m) is not int), None)
    if bad is not None:
        raise ValidationError(f"subgroup member {bad!r} is not an element index")
    ms = tuple(sorted(set(given)))
    if not ms:
        raise ValidationError("a subgroup needs at least the identity element")
    for m in ms:
        if not 0 <= m < group.order:
            raise ValidationError(f"member {m} is outside the group 0..{group.order-1}")
    mset = frozenset(ms)
    if group.identity not in mset:
        raise ValidationError("subgroup does not contain the identity")
    for s in ms:
        if group.inv[s] not in mset:
            raise ValidationError(f"subgroup is missing the inverse of element {s}")
        row = group.mul[s]
        for t in ms:
            if row[t] not in mset:
                raise ValidationError(
                    f"subgroup is not closed: {s}*{t} = {row[t]} is not a member"
                )
    return Subgroup(group, ms)


def full_subgroup(group: FiniteGroup) -> Subgroup:
    """The whole group viewed as a subgroup of itself."""
    return Subgroup(group, tuple(range(group.order)))


def group_center(group: FiniteGroup) -> Subgroup:
    """The subgroup of elements commuting with every group element."""
    table = group.table
    central = np.all(table == table.T, axis=1)
    return Subgroup(group, tuple(np.flatnonzero(central).tolist()))


def is_normal(group: FiniteGroup, sub: Subgroup) -> bool:
    """Whether the subgroup is stable under conjugation by every group element."""
    if sub.parent is not group:
        raise DomainMismatchError("subgroup belongs to a different group")
    table = group.table
    inside = np.zeros(group.order, dtype=bool)
    inside[list(sub.members)] = True
    # conjugates[x, j] = x * s_j * x^-1
    conjugates = table[table.take(sub.members, axis=1), group.inverse_index[:, None]]
    return bool(inside[conjugates].all())


def quotient(group: FiniteGroup, normal: Subgroup) -> QuotientGroup:
    """Left cosets of a normal subgroup with the induced multiplication.

    Cosets appear in increasing order of their smallest member, which also
    serves as the coset representative, so the construction is canonical.
    """
    if not is_normal(group, normal):
        raise NormalityError(
            "cannot form the quotient: subgroup is not normal in the group"
        )
    table = group.table
    smallest = table.take(normal.members, axis=1).min(axis=1)   # smallest member of x N
    reps = np.flatnonzero(smallest == np.arange(group.order))
    proj = np.searchsorted(reps, smallest).astype(np.int32)
    cosets = np.sort(table[np.ix_(reps, normal.members)], axis=1)
    qtable = proj[table[np.ix_(reps, reps)]]
    tinv = proj[group.inverse_index[reps]]
    quot = FiniteGroup(len(reps), qtable, tuple(tinv.tolist()), int(proj[group.identity]))
    return QuotientGroup(
        group,
        normal,
        tuple(map(tuple, cosets.tolist())),
        tuple(reps.tolist()),
        tuple(proj.tolist()),
        quot,
    )


def weil_measure(
    group: FiniteGroup,
    normal: Subgroup,
    quot: QuotientGroup,
    wG_scale: float = 1.0,
    wN_scale: float = 1.0,
) -> MeasureTriple:
    """Uniform weights on group, subgroup, and quotient with wQ = wG / wN.

    The default scales give counting measure on all three levels, for which
    iterated summation over cosets reproduces the plain group sum exactly.
    """
    if quot.parent is not group or not quot.normal.same_as(normal):
        raise DomainMismatchError("quotient does not match the given group and subgroup")
    if not (wG_scale > 0.0) or not (wN_scale > 0.0):
        raise MeasureError(
            f"weight scales must be positive, got wG={wG_scale}, wN={wN_scale}"
        )
    wq = wG_scale / wN_scale
    return MeasureTriple(
        (float(wG_scale),) * group.order,
        (float(wN_scale),) * normal.order,
        (float(wq),) * quot.order,
    )


def counting_measure(quot: QuotientGroup) -> MeasureTriple:
    return weil_measure(quot.parent, quot.normal, quot)


def weil_residual(f: GroupFunction, quot: QuotientGroup, measure: MeasureTriple) -> float:
    """|iterated coset sum - plain group sum| for one function and weight family."""
    if f.group is not quot.parent:
        raise DomainMismatchError("function lives on a different group")
    vals = np.array(f.values)
    outer = np.asarray(measure.wQ) @ (vals[quot.grid] @ np.asarray(measure.wN))
    direct = np.asarray(measure.wG) @ vals
    return abs(complex(outer - direct))


def lp_norm(
    f: GroupFunction,
    p: float,
    weights: MeasureTriple | Sequence[float] | None = None,
) -> float:
    """Weighted p-norm (sum of w * |f|^p) ** (1/p) over the group."""
    if p < 1:
        raise ExponentError(f"norm exponent must be at least 1, got {p}")
    if isinstance(weights, MeasureTriple):
        w: Sequence[float] = weights.wG
    elif weights is None:
        w = (1.0,) * f.group.order
    else:
        w = tuple(float(x) for x in weights)
    if len(w) != f.group.order:
        raise MeasureError(
            f"got {len(w)} weights for a group of order {f.group.order}"
        )
    total = math.fsum(wx * abs(v) ** p for wx, v in zip(w, f.values))
    return total ** (1.0 / p)


def delta_function(group: FiniteGroup, at: int) -> GroupFunction:
    """The indicator of a single element."""
    if not 0 <= at < group.order:
        raise DomainMismatchError(f"element {at} is outside the group")
    return GroupFunction(
        group, tuple(1.0 + 0j if x == at else 0j for x in range(group.order))
    )


def random_function(group: FiniteGroup, rng) -> GroupFunction:
    """Standard complex Gaussian values drawn from the supplied PRNG."""
    return GroupFunction(
        group,
        tuple(complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(group.order)),
    )
