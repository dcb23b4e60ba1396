"""Finite groups as index tables, with subgroups, quotients, and compatible weights.

Elements of a group of order n are the integers 0..n-1.  All types are
immutable once constructed.  A group keeps its inverses as one read-only
index array and its multiplication table as one read-only int32 array.  A
product built by `semidirect` keeps its factors instead and builds that
table on first read, or at once for a direct product (`make_product`).
Every product of elements in subgroup checks, normality, quotients, coset
grids, the generator walk, the center and character enumeration goes
through `FiniteGroup.multiply`, which reads the table when the group has
one and the factors otherwise; a product takes its quotients by the
subgroups of its K fiber itself (`SemidirectGroup.fiber_quotient`).
Function values and weights are read-only complex128 and float64 arrays,
converted once from any sequence of numbers.

An explicit table is validated exactly at every order.  Associativity uses
Light's test (Clifford & Preston, The Algebraic Theory of Semigroups, vol. 1,
1961): the elements s with (x*y)*s == x*(y*s) for all x and y form a
submonoid, so checking s on a generating set suffices.  Each generator costs
two numpy gathers over the whole table, taken in row blocks.

Fingerprints are sha256 digests from CPython's built-in `_sha2` (3.12+) or
`_sha256` module, as the standard `random` module takes sha512: `hashlib`
loads OpenSSL, which a command that draws no random numbers never needs.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

import numpy as np

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .errors import (
    CovmodError,
    DomainMismatchError,
    ExponentError,
    MeasureError,
    NormalityError,
    ResourceError,
    ValidationError,
)

if TYPE_CHECKING:
    from .semidirect import FiberAction, SemidirectGroup

MAX_GROUP_ORDER = 1 << 20

# Entries per block of every pass over a table: the identity and inverse
# scans and Light's test in `checked_group`, the decimal rows that
# fingerprints and documents are made of, and the parse of a document's rows.
_BLOCK = 1 << 16


def _block_rows(n: int) -> int:
    """Rows of an n x n table in one block of `_BLOCK` entries: at least one,
    at most n."""
    return min(n, max(1, _BLOCK // n))


def _count(value, low: int, what: str) -> int:
    """A count as an int, refused with `ValidationError` unless it is an
    integer, not a bool, of at least `low`: the one reader of group orders,
    trial counts and repetitions."""
    if type(value) is bool or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if value < low:
        raise ValidationError(f"{what} must be at least {low}, got {int(value)}")
    return int(value)


def _bounded(value, low: float, what: str, error: type[CovmodError]) -> float:
    """A real number of at least `low`, refused with `error` when it is a bool,
    not a `numbers.Real`, NaN, infinite or below `low`: the one reader of
    norm exponents and tolerances."""
    if type(value) is bool or not isinstance(value, numbers.Real):
        raise error(f"{what} must be a real number, got {value!r}")
    if not low <= value < math.inf:
        raise error(f"{what} must be finite and at least {low}, got {value!r}")
    return value


def _check_order(order: int) -> int:
    order = _count(order, 1, "group order")
    if order > MAX_GROUP_ORDER:
        raise ResourceError(f"group order {order} exceeds the supported maximum {MAX_GROUP_ORDER}")
    return order


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mark arrays read-only, so every reader can share them."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


class _Refrozen:
    """A type whose arrays, alone or in tuples, unpickle read-only again:
    numpy unpickles every array writable."""

    def __setstate__(self, state: dict) -> None:
        for value in state.values():
            for arr in value if isinstance(value, tuple) else (value,):
                if isinstance(arr, np.ndarray):
                    arr.setflags(write=False)
        vars(self).update(state)


def _element(group: FiniteGroup, x) -> int:
    """x as an int, refused with `DomainMismatchError` unless it is an integer,
    not a bool, in 0..|G|-1: numpy would wrap a negative index and read a
    bool as a mask."""
    if type(x) is bool or not isinstance(x, (int, np.integer)) or not 0 <= x < group.order:
        raise DomainMismatchError(f"element {x!r} is not an element index of 0..{group.order - 1}")
    return int(x)


def _real_form(table: np.ndarray) -> np.ndarray:
    """The real (2n x 2u) form of a complex (n x u) matrix: z.view(float) @ it
    is (z @ table).view(float).  It runs faster than the complex product and
    is never one column, which OpenBLAS threads (5 ms stalls at |K| = 256)."""
    n, u = table.shape
    out = np.empty((n, 2, u, 2))
    out[:, 0, :, 0] = out[:, 1, :, 1] = table.real
    out[:, 0, :, 1] = table.imag
    out[:, 1, :, 0] = -table.imag
    return out.reshape(2 * n, 2 * u)


def _vector(values, dtype: type, what: str, length: int | None = None) -> np.ndarray:
    """A read-only 1-D copy of `values` as `dtype`; bools, strings and, for
    float, complex entries are refused, not converted.  Float vectors are
    weights, and an infinite or NaN weight is refused with `MeasureError`."""
    try:
        arr = np.array(values)
    except (TypeError, ValueError):  # ragged nesting
        arr = np.array(None)
    if arr.dtype.kind not in ("iufc" if dtype is complex else "iuf"):
        raise ValidationError(f"{what} must be a list of numbers")
    expected = arr.size if length is None else length
    if arr.shape != (expected,):
        raise DomainMismatchError(f"{what} has shape {arr.shape}, expected ({expected},)")
    arr = arr if arr.dtype == dtype else arr.astype(dtype)
    if dtype is float and not np.isfinite(arr).all():
        i = int(np.argmin(np.isfinite(arr)))
        raise MeasureError(f"{what} must be finite, got {arr[i]} at element {i}")
    return _frozen(arr)[0]


@dataclass(frozen=True, eq=False)
class FiniteGroup(_Refrozen):
    """A finite group: order, multiplication table, inverses, identity.

    `table[x, y]` is the index of x*y and `inv[x]` the index of x^-1, both
    read-only arrays.  Groups compare equal when their orders, identities,
    labels and tables agree, and hash by `fingerprint`.  A product built by
    `semidirect` or `make_product` also keeps the `SemidirectGroup` it came
    from in `split`, which convolution reads; it takes no part in equality,
    hashing or serialization, so a group read back from its table is the
    same group without it.

    Such a product is made with no table (`table` None).  `multiply` then
    computes products from the factors, and the first read of `table`
    builds the dense table (`SemidirectGroup.dense_table`): equality,
    Light's test and the table route of the kernels read it, while the
    fingerprint and documents take their rows from `multiply`, a block at a
    time.  `make_product` reads it at once.
    """

    order: int
    table: np.ndarray | None = field(repr=False)
    inv: np.ndarray = field(repr=False)
    identity: int
    labels: tuple[str, ...] | None = None
    split: SemidirectGroup | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.table is None and self.split is not None:
            object.__delattr__(self, "table")   # `__getattr__` builds it on first read
        else:
            object.__setattr__(self, "table", *_frozen(np.ascontiguousarray(self.table, np.int32)))
        object.__setattr__(self, "inv", *_frozen(np.ascontiguousarray(self.inv, np.intp)))

    def __getattr__(self, name: str):
        # reached only for an attribute the instance lacks: an unbuilt table
        if name != "table":
            raise AttributeError(name)
        object.__setattr__(self, "table", *_frozen(self.split.dense_table()))
        return self.table

    def __setstate__(self, state: dict) -> None:
        # a product's split holds it weakly, and pickling drops that link
        super().__setstate__(state)
        if self.split is not None:
            self.split._hold(self)

    def multiply(self, x, y) -> np.ndarray:
        """x*y for broadcastable arrays of element indices: a gather from the
        table when the group has one, otherwise from the factors of `split`."""
        if "table" in vars(self):
            return self.table[x, y]
        return self.split.multiply(x, y)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteGroup) and (
            (self.order, self.identity, self.labels) == (other.order, other.identity, other.labels)
            and np.array_equal(self.table, other.table)
        )

    def __hash__(self) -> int:
        return hash(self.fingerprint)

    def label(self, x: int) -> str:
        return self.labels[x] if self.labels is not None else str(x)

    def element_order(self, x: int) -> int:
        """The least k >= 1 with x^k the identity, for an element index x (`_element`)."""
        power, order = _element(self, x), 1
        while power != self.identity:
            power, order = int(self.multiply(power, x)), order + 1
        return order

    @cached_property
    def mul(self) -> tuple[tuple[int, ...], ...]:
        """The table as nested tuples, built on first read; nothing in covmod reads it."""
        elements = np.arange(self.order).astype(object)
        return tuple(tuple(elements[row].tolist()) for row in self.table)

    @cached_property
    def walk(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(gens, words, relations) of `generating_set` on the whole group, kept
        once as arrays: Light's test, `cyclic_coordinates` and the walk of every
        subgroup holding all elements (`full_subgroup`) read it."""
        gens, words, relations, _ = generating_set(self, np.arange(self.order))
        return _frozen(np.array(gens, dtype=np.intp), words, relations)

    @cached_property
    def is_abelian(self) -> bool:
        """Whether the generators of `walk` commute pairwise: r^2 products,
        exact for a group, since every element is a product of them."""
        gens = self.walk[0]
        products = self.multiply(gens[:, None], gens)
        return bool(np.array_equal(products, products.T))

    def decimal_blocks(self) -> Iterator[list[str]]:
        """The table's rows as their decimal text, `"x*0,x*1,..."`, a block of
        `_BLOCK` entries at a time: the text that `fingerprint` hashes and
        the group document writes.  The rows come from `multiply`, so a
        product built by `semidirect` builds no table for them."""
        names = np.array([str(x) for x in range(self.order)], dtype=object)
        elements = np.arange(self.order)
        step = _block_rows(self.order)
        for start in range(0, self.order, step):
            rows = self.multiply(elements[start : start + step, None], elements)
            yield [",".join(row) for row in names[rows].tolist()]

    @cached_property
    def fingerprint(self) -> str:
        """A short structural digest of the order and the table, computed once."""
        h = table_hash(self.order)
        for rows in self.decimal_blocks():
            h.update(("|" + "|".join(rows)).encode())
        return h.hexdigest()[:16]


def table_hash(order: int):
    """A sha256 that gives a group of this order's fingerprint, the first 16
    hex digits of its digest, once each table row's decimal text, preceded
    by `|`, has been added in turn."""
    return sha256(b"covmod-group-v1:%d" % order)


@dataclass(frozen=True)
class Subgroup(_Refrozen):
    """A validated subgroup, stored as sorted member indices of the parent,
    where a member's slot is found by search (`bisect`, `np.searchsorted`)."""

    parent: FiniteGroup
    members: tuple[int, ...]

    def __hash__(self) -> int:   # the parent's order, not its table
        return hash((self.parent.order, self.members))

    @cached_property
    def walk(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(gens, words, relations, at): `generating_set` on the members, words
        in member order, and at[j, i], the position of g_j * members[i].  Each
        law on the subgroup is checked on these r |N| edges (Holt, Eick &
        O'Brien, Handbook of Computational Group Theory, 2005, ch. 2-3): each
        member is a product of generators, so phi(g s) = phi(g) phi(s) on every
        edge makes phi(e) = e (s = e) and phi multiplicative, and a set in its
        generators' span with gens * S inside S, checked here, is closed.
        Failures name the first failing edge: generators in walk order, then members."""
        ms = np.array(self.members)
        whole = ms.size == self.parent.order       # the whole group's walk is kept
        gens, words, relations = self.parent.walk if whole else generating_set(self.parent, ms)[:3]
        gens = np.asarray(gens, dtype=np.intp)
        products = self.parent.multiply(gens[:, None], ms)
        at = np.searchsorted(ms, products).clip(max=ms.size - 1)
        outside = np.argwhere(ms[at] != products)
        if outside.size:
            j, i = outside[0]
            raise ValidationError(
                f"subgroup is not closed: {gens[j]}*{ms[i]} = {products[j, i]} is not a member"
            )
        return _frozen(gens, words[ms], relations, at)

    @property
    def order(self) -> int:
        return len(self.members)

    @cached_property
    def fingerprint(self) -> str:
        """A short digest of the parent's fingerprint and the members,
        computed once: the domain that character documents name."""
        h = sha256(b"covmod-subgroup-v1:")
        h.update(self.parent.fingerprint.encode())
        h.update(",".join(map(str, self.members)).encode())
        return h.hexdigest()[:16]

    def same_as(self, other: "Subgroup") -> bool:
        return self is other or (self.parent is other.parent and self.members == other.members)

    @cached_property
    def quotient(self) -> QuotientGroup:
        """`quotient(parent, self)`, built on first read and kept; raises
        `NormalityError` on every read when the subgroup is not normal."""
        return quotient(self.parent, self)


@dataclass(frozen=True, eq=False)
class QuotientGroup(_Refrozen):
    """Left cosets of a normal subgroup, with the induced group on coset indices.

    Cosets are enumerated in increasing order of their smallest member, kept
    in `reps`; `proj[x]` is the coset index of element x, and both are
    read-only intp arrays.  `table` is the quotient as a plain FiniteGroup,
    built on first read from |G/N|^2 products of representatives.

    `fiber` is K/N = `quotient(K, N_K)`, with its own `fiber`, when the group
    is a product H x| K (its `split`) and N lies in the K fiber, else None.
    """

    parent: FiniteGroup
    normal: Subgroup
    reps: np.ndarray = field(repr=False)
    proj: np.ndarray = field(repr=False)
    fiber: QuotientGroup | None = field(default=None, repr=False)

    def __eq__(self, other: object) -> bool:
        same = isinstance(other, QuotientGroup) and (self.parent, self.normal) == (other.parent, other.normal)
        return same and np.array_equal(self.reps, other.reps) and np.array_equal(self.proj, other.proj)

    def __hash__(self) -> int:   # the cosets are canonical
        return hash(self.normal)

    def __getstate__(self) -> dict:   # `fiber_action` holds weak references; it is built again
        return {name: value for name, value in vars(self).items() if name != "fiber_action"}

    @property
    def order(self) -> int:
        return len(self.reps)

    @cached_property
    def table(self) -> FiniteGroup:
        """G/N as a FiniteGroup: coset i * coset j is the coset of reps[i] * reps[j]."""
        reps, proj = self.reps, self.proj
        qtable = proj[self.parent.multiply(reps[:, None], reps)]
        return FiniteGroup(len(reps), qtable, proj[self.parent.inv[reps]], int(proj[self.parent.identity]))

    @cached_property
    def grid(self) -> np.ndarray:
        """`grid[i, j]` is reps[i] * members[j]: row i lists coset i in member order."""
        return _frozen(self.parent.multiply(self.reps[:, None], self.normal.members).astype(np.intp))[0]

    @cached_property
    def in_order(self) -> bool:
        """Whether `grid` lists the elements in order, as on every shear-group
        center: (..., |G|) values are then grid-shaped without a gather."""
        return bool((self.grid.ravel() == np.arange(self.parent.order)).all())

    def on_grid(self, values: np.ndarray) -> np.ndarray:
        """A (..., |G|) array laid out like `grid`, as (..., |G/N|, |N|)."""
        if self.in_order:
            return values.reshape(*values.shape[:-1], *self.grid.shape)
        return values.take(self.grid, axis=-1)

    @cached_property
    def grid_order(self) -> np.ndarray:
        """Where each element sits in the flattened `grid`: a gather by this
        index puts grid-shaped values back in element order."""
        return _frozen(np.argsort(self.grid, axis=None))[0]

    @cached_property
    def fiber_action(self) -> FiberAction | None:
        """The tables of the module action's fiber-Fourier route over this
        quotient, or None where it does not apply (`SemidirectGroup.fiber_action`).
        Built on first use, freed with the quotient and never pickled."""
        split = self.parent.split
        return None if split is None else split.fiber_action(self)


def _scaled(scalar: complex, values: np.ndarray) -> np.ndarray:
    """scalar * values, rounded as Python's complex product: numpy's may fuse a
    multiply and an add, moving the last bit, but against a purely real or
    imaginary factor the fused product is exact (zero signs aside)."""
    s = complex(scalar)
    return values * s.real + values * complex(0.0, s.imag)


@dataclass(frozen=True, eq=False)
class MeasureTriple(_Refrozen):
    """Per-element weights on a group, a subgroup, and the quotient.

    The three families satisfy the compatibility wQ * wN = wG elementwise
    (uniform scales), so that summing over cosets and then over the subgroup
    reproduces the full-group sum.  Each is a read-only float64 array.
    """

    wG: np.ndarray
    wN: np.ndarray
    wQ: np.ndarray

    def __post_init__(self) -> None:
        for name in ("wG", "wN", "wQ"):
            object.__setattr__(self, name, _vector(getattr(self, name), float, name))


@dataclass(frozen=True, eq=False)
class GroupFunction(_Refrozen):
    """A complex-valued function on a group, a read-only array by element index."""

    group: FiniteGroup
    values: np.ndarray

    def __post_init__(self) -> None:
        values = _vector(self.values, complex, "function values", self.group.order)
        object.__setattr__(self, "values", values)

    def __add__(self, other: "GroupFunction") -> "GroupFunction":
        if other.group is not self.group:
            raise DomainMismatchError("cannot add functions on different groups")
        return GroupFunction(self.group, self.values + other.values)

    def __sub__(self, other: "GroupFunction") -> "GroupFunction":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "GroupFunction":
        return GroupFunction(self.group, _scaled(scalar, self.values))


def make_cyclic(order: int) -> FiniteGroup:
    """The additive group of integers modulo `order`."""
    order = _check_order(order)
    a = np.arange(order, dtype=np.int32)
    return FiniteGroup(order, (a[:, None] + a) % order, -a % order, 0)


def generating_set(
    group: FiniteGroup, members: Iterable[int]
) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
    """Greedy generators of the subgroup `members` generate, with a word for
    each element and their relations: a polycyclic presentation (Holt, Eick
    & O'Brien, Handbook of Computational Group Theory, 2005, ch. 8).

    Returns (gens, words, relations, reached): x is a product in which
    gens[j] occurs words[x, j] times; relations[j] holds m_j at column j and
    minus the word of g_j^m_j, the first power of g_j in S = span(gens[:j]),
    before it; `reached` masks the subgroup.  Each g_j is the smallest member
    outside S.  The walk reaches the cosets S g_j^k, 0 < k < m_j, then goes
    on breadth first by gens[:j+1], which finds more only where g_j does not
    normalize S.  So the product of the m_j is at most the subgroup order,
    and equal to it when it is abelian.  Every step is a right
    multiplication, so on a table not yet known to be associative (Light's
    test) the walk still ends, and only `gens` and `reached` mean anything.
    Each generator costs one product per element of the group, the index
    map x -> x g_j, and every later step is a gather from those maps: the
    cosets come from `_right_cosets` in about log2 m_j passes, and the walk
    of Z4096 takes 0.6 ms, where one product per power took 14 ms.
    """
    if not (isinstance(members, np.ndarray) and members.dtype.kind in "iu"):
        members = np.fromiter(members, dtype=np.intp)
    ms = _distinct(group.order, members)
    gens: list[int] = []
    rights: list[np.ndarray] = []   # x -> x g_j on every element, one index map per generator
    powers: list[int] = []      # g_j^m_j, whose words stay as they are once reached
    orders: list[int] = []      # m_j
    words = np.zeros((group.order, 0), dtype=np.int64)
    reached = np.zeros(group.order, dtype=bool)
    reached[group.identity] = True
    while not reached[ms].all():
        g = int(ms[reached[ms].argmin()])
        gens.append(g)
        rights.append(group.multiply(np.arange(group.order), g))
        words = np.concatenate((words, np.zeros((group.order, 1), dtype=np.int64)), axis=1)
        span = np.flatnonzero(reached)
        # S g^k at row k - 1
        cosets, power = _right_cosets(rights[-1], span, group.identity, reached)
        reached[cosets] = True
        powers.append(power)
        orders.append(len(cosets) + 1)
        words[cosets] = words[span]
        words[cosets, -1] = np.arange(1, len(cosets) + 1)[:, None]
        frontier = cosets.ravel()
        while frontier.size:
            found = []
            for c, right in enumerate(rights):   # in a group, right multiplication is injective
                step = right[frontier]
                fresh = ~reached[step]
                new = step[fresh]
                words[new] = words[frontier[fresh]]
                words[new, c] += 1
                reached[new] = True
                found.append(new)
            frontier = np.concatenate(found)
    relations = -words[powers]
    relations[np.diag_indices(len(gens))] = orders
    return gens, words, relations, reached


def _right_cosets(
    right: np.ndarray, span: np.ndarray, identity: int, reached: np.ndarray
) -> tuple[np.ndarray, int]:
    """The levels L_k = R^k(span) of the right multiplication R: x -> x g,
    given as the index map `right`, one row each for 0 < k < m, and R^m(e):
    m is the least k whose power p_k = R^k(e), in the column of the
    identity, lies in `reached` or in an earlier level, as a walk that
    multiplies one level at a time and marks it reached finds it.

    The levels and R's powers double by pointer jumping on the index map,
    L_(k+c) = R^c[L_k] and R^2c = R^c[R^c], until some p_k is reached or
    the last power repeats an earlier one, as it does once the powers cycle:
    either bounds m, which one pass over the levels below the bound then
    finds.  So about log2 m passes, and no step assumes associativity: the
    levels are those of the one-level walk, bit for bit.
    """
    at = np.searchsorted(span, identity)
    jump, levels = right, right[span][None]
    while True:
        powers = levels[:, at]
        hits = reached[powers]
        if hits.any() or (powers[:-1] == powers[-1]).any():
            break
        if len(levels) > 1:
            jump = jump.take(jump)                       # R^c for c levels
        levels = np.concatenate((levels, jump.take(levels)))
    bound = int(hits.argmax()) + 1 if hits.any() else len(levels)
    first = np.where(reached, 0, bound)                  # the least level below the bound holding x
    np.minimum.at(first, levels[: bound - 1].ravel(), np.arange(1, bound).repeat(len(span)))
    m = int((first[powers[:bound]] < np.arange(1, bound + 1)).argmax()) + 1
    return levels[: m - 1], int(powers[m - 1])


def _distinct(order: int, xs: np.ndarray) -> np.ndarray:
    """The distinct entries of the index array `xs`, sorted.

    A boolean scatter over the group's `order` elements, in place of
    `np.unique`, which on numpy 2.x imports `numpy.ma` at its first call.
    """
    seen = np.zeros(order, dtype=bool)
    seen[xs] = True
    return np.flatnonzero(seen)


def cyclic_coordinates(group: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """An abelian group as a product of cyclic groups Z_d1 x ... x Z_dr.

    Returns the orders d, each above 1, and coords[x, i], the coordinate of
    x along factor i; x -> coords[x] is an isomorphism onto the product.
    In an abelian group the relations of `generating_set` span all others,
    so the unimodular column operations V that diagonalize them (Smith's
    reduction, in exact integers) send each word e to coordinates e V mod d.
    """
    _, words, relations = group.walk
    d, cols = _diagonal_form(relations.astype(object))
    keep = d > 1
    d, cols = d[keep], (cols[:, keep] % d[keep]).astype(np.int64)
    return d, words @ cols % d


def _diagonal_form(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|diagonal| of a nonsingular square integer matrix (object dtype) after
    row and column operations, and the column operations as one unimodular
    matrix.  Each pass moves the smallest nonzero entry left in the block to
    the pivot and reduces its row and column by it; a nonzero remainder is
    smaller, so the passes end."""
    a, n = a.copy(), len(a)
    cols = np.eye(n, dtype=object)
    for t in range(n):
        while True:
            _, i, j = min((abs(a[i, j]), i, j) for i in range(t, n) for j in range(t, n) if a[i, j])
            a[[t, i]] = a[[i, t]]
            a[:, [t, j]], cols[:, [t, j]] = a[:, [j, t]], cols[:, [j, t]]
            for i in range(t + 1, n):
                a[i] -= a[i, t] // a[t, t] * a[t]
            for j in range(t + 1, n):
                q = a[t, j] // a[t, t]
                a[:, j] -= q * a[:, t]
                cols[:, j] -= q * cols[:, t]
            if not (any(a[t + 1 :, t]) or any(a[t, t + 1 :])):
                break
    return np.abs(np.diagonal(a)).astype(np.int64), cols


def _check_associative(group: FiniteGroup) -> None:
    """Light's test: check (x*y)*s == x*(y*s) for every x, y and each generator s.

    The elements s that pass for all x and y include the identity and are
    closed under multiplication, so passing on a generating set is exact.
    """
    arr = group.table
    step = _block_rows(group.order)
    for s in group.walk[0]:
        col = arr[:, s]
        for start in range(0, group.order, step):
            rows = arr[start : start + step]
            left = col[rows]                   # left[x, y] = (x*y)*s
            right = np.take(rows, col, axis=1)  # right[x, y] = x*(y*s)
            if not np.array_equal(left, right):
                i, y = map(int, np.argwhere(left != right)[0])
                x = start + i
                raise ValidationError(
                    f"associativity fails at triple ({x}, {y}, {s}): "
                    f"({x}*{y})*{s} = {int(left[i, y])} but "
                    f"{x}*({y}*{s}) = {int(right[i, y])}"
                )


def _table_error(table: Sequence[Sequence[int]], n: int) -> ValidationError:
    """The first short row or bad entry, in the order a row-by-row scan meets it."""
    for i, row in enumerate(table):
        if len(row) != n:
            return ValidationError(f"row {i} has length {len(row)}, expected {n}")
        for j, v in enumerate(row):
            if type(v) is not int or not 0 <= v < n:
                return ValidationError(
                    f"entry mul({i},{j}) = {v!r} is not an element of 0..{n-1}"
                )
    raise AssertionError("no malformed row or entry to report")


def _int_rows(
    rows: Sequence[Sequence[int]], n_rows: int, n_cols: int, error: Callable[[], ValidationError]
) -> np.ndarray:
    """An n_rows x n_cols list of rows of int entries as one int64 array.

    The rows are counted and measured, then the entries' types are read in
    one C-speed pass (`set(map(type, ...))`), so no Python loop runs per
    entry.  Anything else raises `error()`, which is left to name the first
    malformed row or entry; ints too large for int64 are out of range and
    fail here too.  Range and the other laws are checked on the array.
    """
    if not (
        isinstance(rows, (list, tuple))
        and len(rows) == n_rows
        and all(isinstance(row, (list, tuple)) and len(row) == n_cols for row in rows)
        and set(map(type, chain.from_iterable(rows))) == {int}
    ):
        raise error()
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        raise error() from None


def _table_array(table: Sequence[Sequence[int]]) -> np.ndarray:
    """A square list of rows of int entries as one int64 array (`_int_rows`)."""
    if not isinstance(table, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) for row in table
    ):
        raise ValidationError("a multiplication table must be a list of rows")
    n = len(table)
    _check_order(n)
    return _int_rows(table, n, n, lambda: _table_error(table, n))


def make_from_table(
    table: Sequence[Sequence[int]], labels: Sequence[str] | None = None
) -> FiniteGroup:
    """Build a group from an explicit multiplication table, validating the axioms.

    The table must be a square list of rows of int entries in 0..n-1, possess
    a two-sided identity and two-sided inverses, and be associative, which
    Light's test checks exactly at every order in O(n^2) work per generator.
    """
    # A temporary: no name in this frame keeps the int64 copy once it is narrowed.
    return checked_group(_table_array(table), labels)


def checked_group(arr: np.ndarray, labels: Sequence[str] | None = None) -> FiniteGroup:
    """The group of an n x n integer array, after every check of `make_from_table`
    that runs on the array: range, identity, inverses, labels and Light's test."""
    n = len(arr)
    if arr.min() < 0 or arr.max() >= n:
        i, j = map(int, np.argwhere((arr < 0) | (arr >= n))[0])
        raise ValidationError(
            f"entry mul({i},{j}) = {int(arr[i, j])} is not an element of 0..{n-1}"
        )
    arr = arr.astype(np.int32, copy=False)

    # Identity and inverses are scanned a block of rows at a time.
    step = _block_rows(n)
    elements = np.arange(n)
    left = np.empty(n, dtype=bool)      # left[x]: x*y == y for every y
    right = np.ones(n, dtype=bool)      # right[x]: y*x == y for every y
    for start in range(0, n, step):
        rows = arr[start : start + step]
        left[start : start + step] = (rows == elements).all(axis=1)
        right &= (rows == elements[start : start + step, None]).all(axis=0)
    two_sided = left & right
    if not two_sided.any():
        raise ValidationError("table has no two-sided identity element")
    identity = int(two_sided.argmax())

    # inv[x] is the first y with x*y == y*x == identity, as in a scan over y
    inv = np.empty(n, dtype=np.intp)
    for start in range(0, n, step):
        rows, cols = arr[start : start + step], arr[:, start : start + step].T
        inverse = (rows == identity) & (cols == identity)
        found = inverse.any(axis=1)
        if not found.all():
            raise ValidationError(f"element {start + int(found.argmin())} has no two-sided inverse")
        inv[start : start + step] = inverse.argmax(axis=1)

    packed_labels = None
    if labels is not None:
        if not isinstance(labels, (list, tuple)) or len(labels) != n:
            raise ValidationError(f"labels must be a list of {n} names")
        for i, s in enumerate(labels):
            if not isinstance(s, str):
                raise ValidationError(f"label {i} is {s!r}, not a string")
        packed_labels = tuple(labels)
    group = FiniteGroup(n, arr, inv, identity, packed_labels)
    _check_associative(group)
    return group


def make_subgroup(group: FiniteGroup, members: Iterable[int]) -> Subgroup:
    """Validate identity, inverses and closure, and return the subgroup; closure
    is checked on the edges of `Subgroup.walk`, naming the first product outside.
    Member types, range, identity and inverses are checked in array passes;
    an error names the first bad member in the given order for a type, and
    the least one otherwise."""
    try:
        given = tuple(members)
    except TypeError:
        raise ValidationError("subgroup members must be a list of element indices") from None
    if set(map(type, given)) - {int}:
        bad = next(m for m in given if type(m) is not int)
        raise ValidationError(f"subgroup member {bad!r} is not an element index")
    if not given:
        raise ValidationError("a subgroup needs at least the identity element")
    if min(given) < 0 or max(given) >= group.order:
        bad = min(m for m in given if not 0 <= m < group.order)
        raise ValidationError(f"member {bad} is outside the group 0..{group.order-1}")
    inside = np.zeros(group.order, dtype=bool)
    inside[np.array(given, dtype=np.intp)] = True
    if not inside[group.identity]:
        raise ValidationError("subgroup does not contain the identity")
    index = np.flatnonzero(inside)
    missing = index[~inside[group.inv[index]]]
    if missing.size:
        raise ValidationError(f"subgroup is missing the inverse of element {missing[0]}")
    sub = Subgroup(group, tuple(index.tolist()))
    sub.walk    # checks closure
    return sub


def full_subgroup(group: FiniteGroup) -> Subgroup:
    """The whole group viewed as a subgroup of itself."""
    return Subgroup(group, tuple(range(group.order)))


def group_center(group: FiniteGroup) -> Subgroup:
    """The subgroup of elements commuting with every group element.

    x is central exactly when it commutes with every generator of `walk`,
    since every element is a product of them: |G| r products through
    `multiply`, so a product built by `semidirect` builds no table.
    """
    gens = group.walk[0]
    elements = np.arange(group.order)[:, None]
    central = (group.multiply(elements, gens) == group.multiply(gens, elements)).all(axis=1)
    return Subgroup(group, tuple(np.flatnonzero(central).tolist()))


def is_normal(group: FiniteGroup, sub: Subgroup) -> bool:
    """Whether the subgroup is stable under conjugation by every group element.

    Conjugation by x is an automorphism, so x N x^-1 lies in N as soon as
    the conjugates of N's generators (`Subgroup.walk`) do: |G| r products
    for r generators, not |G| |N|.
    """
    if sub.parent is not group:
        raise DomainMismatchError("subgroup belongs to a different group")
    inside = np.zeros(group.order, dtype=bool)
    inside[list(sub.members)] = True
    # conjugates[x, j] = x * g_j * x^-1
    elements = np.arange(group.order)[:, None]
    conjugates = group.multiply(group.multiply(elements, sub.walk[0]), group.inv[elements])
    return bool(inside[conjugates].all())


def quotient(group: FiniteGroup, normal: Subgroup) -> QuotientGroup:
    """Left cosets of a normal subgroup; the induced group is `QuotientGroup.table`.

    Cosets appear in increasing order of their smallest member, which also
    serves as the coset representative, so the construction is canonical.
    The minima come from the generators of `normal.walk` (`_coset_minima`),
    |G| products per doubling step in place of all |G| |N| products.  An N
    in the K fiber of a product is left to its `split.fiber_quotient`, and
    N = G is one coset, represented by 0, with no normality check or sweep.
    """
    if group.split is not None and (fiber := group.split.fiber_quotient(normal)) is not None:
        return fiber
    if normal.parent is group and normal.order == group.order:
        cosets = np.zeros(1, dtype=np.intp), np.zeros(group.order, dtype=np.intp)
    elif not is_normal(group, normal):
        raise NormalityError("cannot form the quotient: subgroup is not normal in the group")
    else:
        cosets = _coset_minima(group, normal.walk[0])
    return QuotientGroup(group, normal, *_frozen(*cosets))


def _coset_minima(group: FiniteGroup, gens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The least member of each left coset x N of the subgroup N that `gens`
    generate, as (reps, proj): the minima in increasing order, and the
    index among them of each element's coset.

    Starting from label(x) = x, each generator g takes label(x) to
    min(label(x), label(x p)) for p = g, g^2, g^4, ... until a power
    repeats, and the generators are swept again until a sweep changes
    nothing.  Each label stays in its own coset, as x p lies in x N.  At the
    fixpoint, label(x) <= label(x g) for every generator g, so the labels
    are equal round each cycle x, x g, x g^2, ..., and, the generators
    reaching all of x N from x, on the whole coset; as each label is at
    most its own index, it is the coset minimum.  Each doubling step costs
    |G| products: about |G| (log2 m_1 + ... + log2 m_r) per sweep for
    generator orders m_j, and one more sweep confirms the fixpoint.
    """
    smallest = elements = np.arange(group.order)    # smallest[x]: a member of x N, at most x
    while True:
        swept = smallest
        for g in gens.tolist():
            seen, power = {group.identity}, g
            while power not in seen:
                seen.add(power)
                smallest = np.minimum(smallest, smallest[group.multiply(elements, power)])
                power = int(group.multiply(power, power))
        if np.array_equal(smallest, swept):
            break
    reps = np.flatnonzero(smallest == elements)
    return reps, np.searchsorted(reps, smallest)


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
    wG, wN = _scale(wG_scale, "wG_scale"), _scale(wN_scale, "wN_scale")
    if not (wG > 0.0) or not (wN > 0.0):
        raise MeasureError(
            f"weight scales must be positive, got wG={wG_scale}, wN={wN_scale}"
        )
    return MeasureTriple(
        np.full(group.order, wG), np.full(normal.order, wN), np.full(quot.order, wG / wN)
    )


def _scale(value, name: str) -> float:
    """A weight scale as a float; bools, values that are not real numbers and
    ints too large for a float are refused with `MeasureError`."""
    if type(value) is bool or not isinstance(value, numbers.Real):
        raise MeasureError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise MeasureError(f"{name} is too large for a float") from None


def counting_measure(quot: QuotientGroup) -> MeasureTriple:
    return weil_measure(quot.parent, quot.normal, quot)


def _weights(measure, family: str, size: int) -> np.ndarray | None:
    """The one reader of weights: None (counting weights) for None, else the
    `family` of a `MeasureTriple` or explicit weights (`_vector`), refused
    with `MeasureError` unless there are `size` of them."""
    if measure is None:
        return None
    w = getattr(measure, family) if isinstance(measure, MeasureTriple) else _vector(measure, float, "weights")
    if w.size != size:
        raise MeasureError(f"got {w.size} {family} weights where {size} are needed")
    return w


def weil_residual(f: GroupFunction, quot: QuotientGroup, measure: MeasureTriple) -> float:
    """|iterated coset sum - plain group sum| for one function and a triple."""
    if f.group is not quot.parent:
        raise DomainMismatchError("function lives on a different group")
    if not isinstance(measure, MeasureTriple):
        raise MeasureError(f"the Weil formula needs a MeasureTriple, got {measure!r}")
    for name, size in (("wG", quot.parent.order), ("wN", quot.normal.order), ("wQ", quot.order)):
        _weights(measure, name, size)
    return float(_weil_gaps(f.values, quot, measure))


def _weil_gaps(values: np.ndarray, quot: QuotientGroup, measure: MeasureTriple) -> np.ndarray:
    """`weil_residual` along the last axis of a (..., |G|) array of values."""
    inner = np.einsum("...ij,j->...i", quot.on_grid(values), measure.wN)
    outer = np.einsum("...i,i->...", inner, measure.wQ)
    return np.abs(outer - np.einsum("...j,j->...", values, measure.wG))


def lp_norm(
    f: GroupFunction,
    p: float,
    weights: MeasureTriple | Sequence[float] | None = None,
) -> float:
    """Weighted p-norm (sum of w * |f|^p) ** (1/p) over the group."""
    p = _bounded(p, 1, "norm exponent", ExponentError)
    return float(_p_norms(f.values, p, _weights(weights, "wG", f.group.order)))


def _p_norms(values: np.ndarray, p: float, weights: np.ndarray | None = None) -> np.ndarray:
    """(sum of w * |v| ** p) ** (1/p) along the last axis, counting weights by default.

    The moduli are divided by their largest before the power and multiplied
    back after the root, so the largest scales to exactly 1 and no exponent
    takes the sum out of the float range (unscaled, |v| ** p leaves it from
    p of about 1000 on).  A zero or non-finite largest modulus is left
    unscaled, so a NaN or infinite value still gives a NaN or infinite norm.
    """
    mod = np.abs(values)
    top = mod.max(axis=-1, keepdims=True)
    scale = np.where((top > 0) & (top < math.inf), top, 1.0)
    terms = (mod / scale) ** p
    if weights is not None:
        terms = terms * weights
    return scale[..., 0] * terms.sum(axis=-1) ** (1.0 / p)


def delta_function(group: FiniteGroup, at: int) -> GroupFunction:
    """The indicator of a single element."""
    values = np.zeros(group.order, dtype=complex)
    values[_element(group, at)] = 1.0
    return GroupFunction(group, values)


def random_function(group: FiniteGroup, rng: random.Random) -> GroupFunction:
    """Standard complex Gaussian values seeded from the supplied PRNG: one
    trial of `_draws`."""
    return GroupFunction(group, _draws(rng, 1, group.order)[0][0])


def _draws(rng: random.Random, trials: int, *sizes: int) -> list[np.ndarray]:
    """One (trials, size) array of standard complex Gaussians per size.

    Takes exactly 128 bits from `rng`, even for no trials, and seeds one
    numpy PCG64 `Generator` with them, so the values are fixed by the rng's
    state (for a given numpy version).  One `standard_normal` call fills the
    whole block, real part first, trial by trial and, within a trial, size
    by size: the same values as drawing each trial's sizes in turn from that
    Generator.  `trials` is read by `_count`, at least 0.
    """
    trials, width = _count(trials, 0, "the trial count"), sum(sizes)
    normals = np.random.default_rng(rng.getrandbits(128)).standard_normal((trials, 2 * width))
    return np.split(normals.view(complex), np.cumsum(sizes)[:-1], axis=1)
