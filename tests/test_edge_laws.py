"""Every exact law on a subgroup is checked on the generator edges of one
walk (`Subgroup.walk`): closure in `make_subgroup`, the phase law in
`make_character` and `enumerate_characters`, multiplicativity in `pullback`,
and the action rows and their composition in `semidirect`.

The differential tests hold each routine against an all-pairs oracle written
here: it accepts exactly when the oracle does, and every refusal names a pair
that really fails, the first failing (generator, member) edge in walk order.
Enumeration lists exactly the oracle's characters, in its order.
"""

import itertools
import math
import pickle
import random
import re
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covmod import (
    Character,
    ValidationError,
    enumerate_characters,
    group_center,
    heisenberg_finite,
    is_normal,
    lift_subgroup,
    make_character,
    make_cyclic,
    make_from_table,
    make_product,
    make_subgroup,
    module_action,
    phase_to_complex,
    pullback,
    quotient,
    random_function,
    semidirect,
    symmetric_3,
    t_xi,
    trivial_character,
    weyl_heisenberg_finite,
)
from covmod import characters, groups
from covmod.groups import Subgroup, cyclic_coordinates, full_subgroup, generating_set
from covmod.semidirect import _shear_action
from covmod.verify import builtin_corpus


def _relabelled_z2z4():
    """Z2 x Z4 with (1,1) at index 1 and (0,1) at 2: two greedy generators of order 4."""
    z2z4, order = make_product(make_cyclic(2), make_cyclic(4)), [0, 5, 1, 2, 3, 4, 6, 7]
    return make_from_table(np.argsort(order)[z2z4.table[np.ix_(order, order)]].tolist())


BUILDERS = {
    **{f"Z{n}": (lambda n=n: make_cyclic(n)) for n in range(1, 13)},
    "S3": symmetric_3,
    "Heis2": lambda: heisenberg_finite(2).product,
    "Heis3": lambda: heisenberg_finite(3).product,
    "flip": lambda: semidirect(make_cyclic(2), make_cyclic(3), ((0, 1, 2), (0, 2, 1))).product,
    "Z2 x Z4 relabelled": _relabelled_z2z4,
}
NON_CYCLIC = ["S3", "Heis2", "Heis3", "flip", "Z2 x Z4 relabelled"]
SIGN_S3 = [0, 1, 1, 0, 0, 1]        # of the permutations of 3 points, in lexicographic order


@lru_cache(maxsize=None)
def _group(name):
    return BUILDERS[name]()


@st.composite
def _groups(draw, non_cyclic=NON_CYCLIC, cyclic_up_to=12):
    """Z_n for a drawn n, or one of `non_cyclic`, each drawn as often as
    all the cyclic groups together."""
    name = draw(st.sampled_from(["Z_n", *non_cyclic]))
    return _group(f"Z{draw(st.integers(1, cyclic_up_to))}" if name == "Z_n" else name)


def _table(g):
    return np.asarray(g.table)


def _refusal(fn):
    """The message of the `ValidationError` that `fn` raises, or None."""
    try:
        fn()
    except ValidationError as exc:
        return str(exc)
    return None


def _first_edge(gens, members, fails):
    """The first (generator, member) pair, generators in walk order, for
    which `fails(g, s)` holds."""
    return next(((g, s) for g in gens for s in members if fails(g, s)), None)


def _pair(message, pattern):
    found = re.fullmatch(pattern, message)
    assert found, message
    return tuple(int(x) for x in found.groups())


def _cyclic(g, x):
    return np.flatnonzero(generating_set(g, [x])[3])


def _right_coset(g, members, pick):
    """(C, C x): C the cyclic subgroup of the walk's first generator of
    `members` and x = pick(members outside C), or None when C holds them all.
    Left multiplication by that generator keeps C x, so a change made on C x
    alone passes that generator's edges and only later generators catch it."""
    gens = generating_set(g, members)[0]
    cyclic = _cyclic(g, gens[0]) if gens else np.array([g.identity])
    outside = sorted(set(members) - set(cyclic.tolist()))
    return None if not outside else (cyclic, _table(g)[cyclic, pick(outside)])


def _twisted_powers(g, members, a, p):
    """The images of `members` under x -> a x^p a^-1."""
    table, powers = _table(g), np.array(members)
    for _ in range(p - 1):
        powers = table[powers, members]
    return table[table[a, powers], g.inv[a]].tolist()


def _coset_turn(g, members, pick):
    """The images of `members` under t x -> t c x on a right coset C x of the
    first generator's cyclic group C (`_right_coset`), c = pick(C), and the
    identity elsewhere: a bijection, multiplicative on that generator's
    edges, and a homomorphism only by chance."""
    image = dict(zip(members, members))
    coset = _right_coset(g, members, pick)
    if coset is not None:
        table, (cyclic, moved) = _table(g), coset
        x, c = moved[np.flatnonzero(cyclic == g.identity)[0]], pick(cyclic.tolist())
        for t, tx in zip(cyclic, moved):
            image[int(tx)] = int(table[table[t, c], x])
    return [image[s] for s in members]


def _rows(k, alpha, powers):
    """theta_h = alpha^powers[h] as action rows on K."""
    rows = []
    for power in powers:
        row = list(range(k.order))
        for _ in range(power):
            row = [alpha[x] for x in row]
        rows.append(row)
    return rows


# All-pairs oracles.  Each runs the routine, asserts that it refuses exactly
# when the oracle does and that a refusal names a failing pair, the first
# edge in walk order, and returns the refusal or None.


def _check_subgroup(g, members):
    table, inside = _table(g), set(members)
    closed = bool(members) and all(table[a, b] in inside for a in members for b in members)
    message = _refusal(lambda: make_subgroup(g, members))
    assert (message is None) == closed
    if message is None:
        sub = make_subgroup(g, members)
        assert sub.members == tuple(members) and "walk" in vars(sub)
    elif message.startswith("subgroup is not closed"):
        a, b, c = _pair(message, r"subgroup is not closed: (\d+)\*(\d+) = (\d+) is not a member")
        assert a in inside and b in inside and table[a, b] == c and c not in inside
        gens = generating_set(g, members)[0]
        assert (a, b) == _first_edge(gens, members, lambda x, y: table[x, y] not in inside)
    elif message.startswith("subgroup is missing the inverse"):
        (x,) = _pair(message, r"subgroup is missing the inverse of element (\d+)")
        assert x in inside and int(g.inv[x]) not in inside
    elif message == "subgroup does not contain the identity":
        assert g.identity not in inside
    else:
        assert message == "a subgroup needs at least the identity element" and not members
    return message


def _check_character(sub, phases):
    table, q = _table(sub.parent), dict(zip(sub.members, phases))

    def fails(s, t):
        return q[table[s, t]] != (q[s] + q[t]) % 1

    message = _refusal(lambda: make_character(sub, phases))
    assert _refusal(lambda: Character(sub, phases)) == message
    assert (message is None) == (not any(fails(s, t) for s in sub.members for t in sub.members))
    if message is not None:
        s, t = _pair(
            message,
            r"homomorphism law fails at pair \((\d+), (\d+)\): "
            r"phase\(\1\*\2\) != phase\(\1\) \+ phase\(\2\) mod 1",
        )
        assert fails(s, t)
        # with no generators (the trivial subgroup) the one pair is (e, e)
        gens = generating_set(sub.parent, sub.members)[0] or [sub.parent.identity]
        assert (s, t) == _first_edge(gens, sub.members, fails)
    return message


def _check_pullback(sub, theta):
    table, char = _table(sub.parent), enumerate_characters(sub)[-1]

    def fails(s, t):
        return theta[table[s, t]] != table[theta[s], theta[t]]

    bijective = sorted(theta.values()) == list(sub.members)
    holds = bijective and not any(fails(s, t) for s in sub.members for t in sub.members)
    message = _refusal(lambda: pullback(char, theta))
    assert (message is None) == holds
    if message is None:
        moved = pullback(char, theta)
        assert all(moved.phases[i] == char.phases[sub.members.index(theta[s])]
                   for i, s in enumerate(sub.members))
    elif not bijective:
        assert message == "map is not a bijection of the subgroup onto itself"
    else:
        s, t = _pair(message, r"map is not multiplicative at pair \((\d+), (\d+)\)")
        assert fails(s, t)
        gens = generating_set(sub.parent, sub.members)[0]
        assert (s, t) == _first_edge(gens, sub.members, fails)
    return message


def _check_semidirect(h, k, rows):
    hmul, kmul, arr = _table(h), _table(k), np.array(rows)
    elements, acting = range(k.order), range(h.order)

    def row_fails(r):
        return lambda x, y: arr[r, kmul[x, y]] != kmul[arr[r, x], arr[r, y]]

    def composition_fails(x, y):
        return not np.array_equal(arr[hmul[x, y]], arr[x][arr[y]])

    bijective = [sorted(row) == list(elements) for row in rows]
    broken = [r for r in acting if any(row_fails(r)(x, y) for x in elements for y in elements)]
    identity = rows[h.identity] == list(elements)
    composes = not any(composition_fails(x, y) for x in acting for y in acting)
    message = _refusal(lambda: semidirect(h, k, rows))
    assert (message is None) == (all(bijective) and identity and not broken and composes)
    assert _refusal(lambda: semidirect(h, k, arr)) == message    # the same rows as an int array
    if message is None:
        _check_fiber_quotients(semidirect(h, k, rows))
        return None
    if not all(bijective):
        assert message == f"action row {bijective.index(False)} is not a bijection of K"
    elif not identity:
        assert message == "the identity of H must act as the identity map on K"
    elif broken:
        r, x, y = _pair(message, r"action row (\d+) is not multiplicative at pair \((\d+), (\d+)\)")
        assert r == broken[0] and row_fails(r)(x, y)
        assert (x, y) == _first_edge(generating_set(k, elements)[0], elements, row_fails(r))
    else:
        x, y = _pair(message, r"action rows do not compose like H at pair \((\d+), (\d+)\)")
        assert composition_fails(x, y)
        assert (x, y) == _first_edge(generating_set(h, acting)[0], acting, composition_fails)
    return message


def _check_fiber_quotients(sd):
    """`quotient` by each normal subgroup of the product inside its K fiber
    (K, and each cyclic subgroup of K, lifted) gives the cosets that the
    generic path gives on the same table with no split."""
    g = sd.product
    plain = make_from_table(g.table.tolist())
    in_k = {tuple(range(sd.k.order))}
    in_k |= {tuple(np.flatnonzero(generating_set(sd.k, [x])[3]).tolist()) for x in range(sd.k.order)}
    for members in sorted(in_k):
        lifted = lift_subgroup(sd, make_subgroup(sd.k, members))
        if is_normal(g, lifted):
            got, want = quotient(g, lifted), quotient(plain, make_subgroup(plain, lifted.members))
            assert (got.reps.tolist(), got.proj.tolist()) == (want.reps.tolist(), want.proj.tolist()), members


def _all_pairs_characters(sub):
    """Every character of `sub` as its numerators over |N|, in lexicographic
    order: each generator g of its walk takes every phase j / ord(g), the
    words extend that to all members (the phases add, whatever the order of
    the factors), and a vector is kept when phase(s t) = phase(s) + phase(t)
    holds on all |N|^2 pairs.  Every character is among the candidates."""
    ms, n = np.array(sub.members), sub.order
    gens, words = generating_set(sub.parent, ms)[:2]
    steps = [range(0, n, n // sub.parent.element_order(g)) for g in gens]
    grid = list(itertools.product(*steps))
    phases = np.array(grid, dtype=np.int64).reshape(len(grid), len(gens)) @ words[ms].T % n
    at = np.searchsorted(ms, sub.parent.multiply(ms[:, None], ms))
    return sorted(row.tolist() for row in phases if (row[at] == (row[:, None] + row) % n).all())


def _product_characters(*orders):
    """The characters of `make_product` over cyclic groups of these orders,
    by the closed form chi_u(x) = sum of u_i x_i / d_i mod 1 on the digits x_i
    of an index, as numerators over the order, in lexicographic order."""
    n, digits = math.prod(orders), np.indices(orders).reshape(len(orders), -1)
    scaled = digits.T * (n // np.array(orders))        # u_i n / d_i, one row per u
    return sorted(row.tolist() for row in scaled @ digits % n)


def _check_enumeration(sub, want, twins=None):
    """`enumerate_characters(sub)` lists `want`, each character stored over
    |N|; those at positions `twins` (all by default) equal and hash like
    `make_character` and `Character` on the same phases, and their complex
    values are `phase_to_complex` of each phase, bit for bit."""
    chars = enumerate_characters(sub)
    assert [char.numerators.tolist() for char in chars] == want
    assert {char.denominator for char in chars} == {sub.order}
    for char in chars[twins] if twins is not None else chars:
        for twin in (make_character(sub, char.phases), Character(sub, char.phases)):
            assert twin == char and hash(twin) == hash(char)
        exact = np.array([phase_to_complex(q) for q in char.phases], dtype=complex)
        assert char.complex_values.tobytes() == exact.tobytes()


@settings(max_examples=150, deadline=None)
@given(g=_groups(), data=st.data())
def test_enumeration_lists_the_all_pairs_characters_in_order(g, data):
    sub = data.draw(_subgroups(g))
    _check_enumeration(sub, _all_pairs_characters(sub))


def _wh16(members):
    sd = weyl_heisenberg_finite(16, 16)
    return lift_subgroup(sd, make_subgroup(sd.k, members))


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_subgroup(_group("Heis3"), [0]),
        lambda: _wh16(range(16)),
        lambda: _wh16(range(256)),
    ],
    ids=["trivial", "WH(16,16) center", "WH(16,16) K"],
)
def test_enumeration_at_larger_orders(build):
    sub = build()
    _check_enumeration(sub, _all_pairs_characters(sub))


def test_enumeration_of_z2_x_z512_by_the_closed_form():
    # a separating prefix of 513 columns: the Z512 part alone leaves pairs tied
    sub = full_subgroup(make_product(make_cyclic(2), make_cyclic(512)))
    _check_enumeration(sub, _product_characters(2, 512), twins=slice(None, None, 97))


def test_enumeration_of_z4_x_z4_x_z8_by_both_oracles():
    sub = full_subgroup(make_product(make_product(make_cyclic(4), make_cyclic(4)), make_cyclic(8)))
    want = _all_pairs_characters(sub)
    assert _product_characters(4, 4, 8) == want
    _check_enumeration(sub, want)


def _eager_numerators(sub):
    """The numerators of every character, one row each, as enumeration built
    them all at once before it built each on first access: the accepted
    generator phases times the words, mod |N|."""
    gens, words, relations, at = sub.walk
    if not gens.size:
        return np.zeros((1, sub.order), dtype=np.int64)
    den, r = sub.order, gens.size
    candidates = characters._solutions(relations, den)
    delta = (words[at] - words - np.eye(r, dtype=np.int64)[:, None]).reshape(r * den, r)
    delta = delta[np.lexsort(delta.T)]
    distinct = np.concatenate((delta[:1], delta[1:][(delta[1:] != delta[:-1]).any(axis=1)]))
    accepted = candidates[(candidates @ distinct.T % den == 0).all(axis=1)]
    return accepted @ words.T % den


def _check_dual(sub, picks):
    """Characters read at the indices `picks` (negative ones too), then all
    by iteration, have the eager rows, over |N|, in their order, and each
    index gives one object however it is reached."""
    want = _eager_numerators(sub)
    chars = enumerate_characters(sub)
    assert len(chars) == len(want)
    for i in picks:
        assert chars[i] is chars[i]
        assert chars[i].numerators.tolist() == want[i].tolist()
        assert chars[i].denominator == sub.order
    got = list(chars)
    assert [char.numerators.tolist() for char in got] == want.tolist()
    assert {char.denominator for char in got} == {sub.order}
    assert all(got[i] is chars[i] for i in picks)
    assert all(not char.numerators.flags.writeable for char in got)


@settings(max_examples=150, deadline=None)
@given(g=_groups(), data=st.data())
def test_the_dual_reads_the_eager_rows_in_any_order(g, data):
    sub = data.draw(_subgroups(g))
    n = len(_eager_numerators(sub))
    _check_dual(sub, data.draw(st.lists(st.integers(-n, n - 1), max_size=6)))


def test_the_dual_reads_the_eager_rows_on_the_corpus():
    for entry in builtin_corpus():
        for sub in (entry.normal, full_subgroup(entry.group)):
            _check_dual(sub, [-1, 0, -1])


def test_the_dual_builds_each_character_on_first_access(monkeypatch):
    k = _wh16(range(256))
    k.walk
    # the eager (256 x 256) matrix of numerators alone was 512 KiB
    assert _peak_mb(lambda: enumerate_characters(k)) < 1 / 16
    built = []
    make = characters._character

    def counted(*args):
        built.append(args[1])
        return make(*args)

    monkeypatch.setattr(characters, "_character", counted)
    chars = enumerate_characters(k)
    assert len(chars) == 256 and not built
    first = chars[17]
    assert chars[17] is first and chars[17 - 256] is first and len(built) == 1
    assert chars[-1] is chars[255] and len(built) == 2
    for bad in (256, -257, 10**30):
        with pytest.raises(IndexError):
            chars[bad]
    with pytest.raises(TypeError):
        chars["1"]
    assert len(built) == 2
    every = list(chars)
    assert len(built) == 256 and every[17] is first
    cuts = (slice(None), slice(250, None), slice(-3, 300), slice(None, None, -7), slice(9, 2),
            slice(300, None))
    for cut in cuts:
        assert chars[cut] == every[cut] and all(a is b for a, b in zip(chars[cut], every[cut]))
    assert len(built) == 256


def test_the_dual_pickles():
    sd = weyl_heisenberg_finite(4, 4)
    chars = enumerate_characters(lift_subgroup(sd, make_subgroup(sd.k, range(16))))
    fifth = chars[5]
    back = pickle.loads(pickle.dumps(chars))
    assert len(back) == 16 and back[5] == fifth and back[5] is back[5]
    assert list(back) == list(chars)
    assert not back.accepted.flags.writeable and not back[5].numerators.flags.writeable
    assert not back[6].numerators.flags.writeable


def test_is_abelian_agrees_with_the_transpose_oracle():
    corpus = [entry.group for entry in builtin_corpus()]
    for g in [*corpus, *(build() for build in BUILDERS.values())]:
        got = g.is_abelian           # before the oracle reads a product's table
        assert got == np.array_equal(_table(g), _table(g).T)


def test_is_abelian_leaves_the_product_table_unbuilt():
    product = weyl_heisenberg_finite(4, 4).product
    assert not product.is_abelian
    assert "table" not in vars(product)


def test_group_center_agrees_with_the_transpose_oracle():
    corpus = [entry.group for entry in builtin_corpus()]
    for g in [*corpus, *(build() for build in BUILDERS.values())]:
        got = group_center(g).members      # before the oracle reads a product's table
        central = (_table(g) == _table(g).T).all(axis=1)
        assert got == tuple(np.flatnonzero(central).tolist())


def test_group_center_leaves_the_product_table_unbuilt():
    product = weyl_heisenberg_finite(4, 4).product
    assert group_center(product).members == (0, 1, 2, 3)
    assert "table" not in vars(product)


def _picker(draw):
    return lambda options: draw(st.sampled_from(options))


@st.composite
def _member_sets(draw, g):
    """A subgroup generated by a few drawn elements, or a cyclic subgroup C
    with a right coset or two C x, perhaps with their inverses, then with a
    few elements, alone or with their inverses, toggled in or out, so that
    subgroups and sets failing each check come up."""
    if draw(st.booleans()):
        seeds = draw(st.lists(st.integers(0, g.order - 1), max_size=3))
        members = set(np.flatnonzero(generating_set(g, seeds)[3]).tolist())
    else:
        cyclic = _cyclic(g, draw(st.integers(0, g.order - 1)))
        xs = draw(st.lists(st.integers(0, g.order - 1), min_size=1, max_size=2))
        members = {*cyclic.tolist(), *_table(g)[np.ix_(cyclic, xs)].ravel().tolist()}
        if draw(st.booleans()):
            members |= set(g.inv[sorted(members)].tolist())
    if draw(st.booleans()):
        for x in draw(st.lists(st.integers(0, g.order - 1), min_size=1, max_size=2)):
            members ^= {x, int(g.inv[x])} if draw(st.booleans()) else {x}
    return sorted(members)


@st.composite
def _subgroups(draw, g):
    seeds = draw(st.lists(st.integers(0, g.order - 1), max_size=3))
    return make_subgroup(g, np.flatnonzero(generating_set(g, seeds)[3]).tolist())


@settings(max_examples=200, deadline=None)
@given(g=_groups(), data=st.data())
def test_make_subgroup_accepts_exactly_the_subgroups(g, data):
    _check_subgroup(g, data.draw(_member_sets(g)))


@st.composite
def _phase_vectors(draw, sub):
    """A character of `sub`, one phase of it changed, the phases on a right
    coset of the first generator's cyclic group shifted, or arbitrary phases."""
    kind = draw(st.sampled_from(["character", "changed", "coset", "arbitrary"]))
    if kind == "arbitrary":
        return [Fraction(draw(st.integers(0, 11)), 12) for _ in sub.members]
    chars = enumerate_characters(sub)
    phases = list(chars[draw(st.integers(0, len(chars) - 1))].phases)
    shift = Fraction(draw(st.integers(1, 5)), draw(st.integers(2, 6)))
    coset = _right_coset(sub.parent, sub.members, _picker(draw))
    if kind == "coset" and coset is not None:
        changed = coset[1].tolist()
    else:
        changed = [draw(st.sampled_from(sub.members))] if kind != "character" else []
    for x in changed:
        i = sub.members.index(x)
        phases[i] = (phases[i] + shift) % 1
    return phases


@settings(max_examples=200, deadline=None)
@given(g=_groups(), data=st.data())
def test_make_character_accepts_exactly_the_characters(g, data):
    sub = data.draw(_subgroups(g))
    _check_character(sub, data.draw(_phase_vectors(sub)))


@st.composite
def _maps(draw, sub):
    """s -> a s^p a^-1 for a member a, an automorphism when p is prime to
    the order and the subgroup is abelian, with two images swapped or one
    replaced, or a `_coset_turn`, so that non-bijections and
    non-homomorphisms come up, some failing only on later generators."""
    members = list(sub.members)
    kind = draw(st.sampled_from(["as drawn", "swap", "replace", "coset"]))
    if kind == "coset":
        return dict(zip(members, _coset_turn(sub.parent, members, _picker(draw))))
    a, p = draw(st.sampled_from(members)), draw(st.integers(1, 5))
    image = dict(zip(members, _twisted_powers(sub.parent, members, a, p)))
    s, t = draw(st.sampled_from(members)), draw(st.sampled_from(members))
    if kind == "swap":
        image[s], image[t] = image[t], image[s]
    elif kind == "replace":
        image[s] = t
    return image


@settings(max_examples=200, deadline=None)
@given(g=_groups(), data=st.data())
def test_pullback_accepts_exactly_the_automorphisms(g, data):
    sub = data.draw(_subgroups(g))
    _check_pullback(sub, data.draw(_maps(sub)))


@st.composite
def _actions(draw, h, k):
    """theta_h = alpha^(t c(h)) for alpha: k -> a k^p a^-1 and c the identity
    of Z_m or the sign of S3, a valid action exactly when alpha is an
    automorphism whose order fits; then with a row changed, a row replaced by
    a `_coset_turn`, or c shifted on a right coset of the cyclic group of H's
    first generator, so that every check fails, some only on later generators."""
    elements = list(range(k.order))
    alpha = _twisted_powers(k, elements, draw(st.sampled_from(elements)), draw(st.integers(1, 4)))
    t = draw(st.integers(0, 3))
    powers = [t * c for c in (SIGN_S3 if h is _group("S3") else range(h.order))]
    kind = draw(st.sampled_from(["as drawn", "swap", "another row", "turned row", "coset"]))
    coset = _right_coset(h, list(range(h.order)), _picker(draw))
    if kind == "coset" and coset is not None:
        for x in coset[1]:
            powers[x] += draw(st.integers(1, 3))
    rows = _rows(k, alpha, powers)
    r, i, j = (draw(st.integers(0, n - 1)) for n in (h.order, k.order, k.order))
    if kind == "swap":
        rows[r][i], rows[r][j] = rows[r][j], rows[r][i]
    elif kind == "another row":
        rows[r] = list(rows[draw(st.integers(0, h.order - 1))])
    elif kind == "turned row":
        rows[r] = _coset_turn(k, elements, _picker(draw))
    return rows


@settings(max_examples=200, deadline=None)
@given(k=_groups(), h=_groups(non_cyclic=["S3"], cyclic_up_to=4), data=st.data())
def test_semidirect_accepts_exactly_the_actions(k, h, data):
    _check_semidirect(h, k, data.draw(_actions(h, k)))


# Pinned cases that pass the first generator's edges and fail a later one's.


def _named_generator(message):
    found = re.search(r"closed: (\d+)\*|pair \((\d+), ", message)
    return int(found.group(1) or found.group(2))


def _first_generator(g, members):
    return generating_set(g, members)[0][0]


def _first(options):
    return options[0]


def _last(options):
    return options[-1]


def test_closure_fails_past_the_first_generator():
    # three right cosets of {e, (0, 0, 1)} in Heis2, closed under inverses
    g, members = _group("Heis2"), list(range(6))
    message = _check_subgroup(g, members)
    assert message is not None and _named_generator(message) != _first_generator(g, members)


def test_the_phase_law_fails_past_the_first_generator():
    # 1/2 on one of the four right cosets of the first generator's group
    g = _group("Heis2")
    sub = full_subgroup(g)
    _, coset = _right_coset(g, sub.members, _first)
    message = _check_character(sub, [Fraction(1, 2) if s in coset else 0 for s in sub.members])
    assert message is not None and _named_generator(message) != _first_generator(g, sub.members)


def test_multiplicativity_fails_past_the_first_generator():
    g = _group("Z2 x Z4 relabelled")
    sub = full_subgroup(g)
    message = _check_pullback(sub, dict(zip(sub.members, _coset_turn(g, sub.members, _last))))
    assert message is not None and _named_generator(message) != _first_generator(g, sub.members)


def test_an_action_row_fails_past_the_first_generator():
    k = _group("Z2 x Z4 relabelled")
    elements = list(range(k.order))
    message = _check_semidirect(make_cyclic(2), k, [elements, _coset_turn(k, elements, _last)])
    assert message.startswith("action row 1 is not multiplicative")
    assert _named_generator(message) != _first_generator(k, elements)


def test_the_composition_fails_past_the_first_generator():
    # the sign of S3 plus one on a right coset of {e, (0 2 1)}, acting on Z3 by inversion
    s3, z3 = _group("S3"), make_cyclic(3)
    _, coset = _right_coset(s3, list(range(6)), _first)
    powers = [c + (x in coset) for x, c in enumerate(SIGN_S3)]
    message = _check_semidirect(s3, z3, _rows(z3, [0, 2, 1], powers))
    assert message.startswith("action rows do not compose")
    assert _named_generator(message) != _first_generator(s3, range(6))


def _peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_semidirect_checks_in_linear_memory():
    # the |K|^2 check per action row peaked at 10.1 MB here
    h, k = make_cyclic(32), make_product(make_cyclic(32), make_cyclic(32))
    action = _shear_action(32, 32).tolist()
    assert _peak_mb(lambda: semidirect(h, k, action)) < 2


def test_make_character_checks_in_linear_memory():
    # the |N|^2 pairs in row blocks peaked at 7.7 MB here
    z = make_cyclic(4096)
    phases = [Fraction(j, 4096) for j in range(4096)]
    assert _peak_mb(lambda: make_character(z, phases)) < 3


def test_enumeration_holds_no_phase_matrix():
    # the |N| r |N| edge checks in row blocks and the Fraction tuples peaked at
    # 40 MB here, and the (characters x |N|) matrix of numerators at 8.4 MB
    sub = full_subgroup(make_product(make_cyclic(32), make_cyclic(32)))
    sub.walk
    assert _peak_mb(lambda: enumerate_characters(sub)) < 0.5


def test_one_walk_serves_every_reader_of_a_subgroup(monkeypatch):
    sd = weyl_heisenberg_finite(4, 4)
    g = sd.product
    center = lift_subgroup(sd, make_subgroup(sd.k, range(4)))
    k = lift_subgroup(sd, make_subgroup(sd.k, range(16)))
    f, h = random_function(g, random.Random(1)), random_function(g, random.Random(2))
    sd.dual_grid   # K's own coordinates come from a walk of K, not of a subgroup

    def walked_again(*args):
        raise AssertionError("a subgroup was walked a second time")

    monkeypatch.setattr(groups, "generating_set", walked_again)
    for sub in (center, k):
        assert is_normal(g, sub)
        char = enumerate_characters(sub)[1]
        make_character(sub, char.phases)
        pullback(char, {s: s for s in sub.members})
        psi = t_xi(h, char, quot=quotient(g, sub))
        module_action(f, psi)
        assert psi.quotient.fiber_action is not None
    assert "table" not in vars(g)


def test_one_walk_serves_every_reader_of_a_whole_group(monkeypatch):
    g = make_from_table(make_product(make_cyclic(4), make_cyclic(6)).table.tolist())
    h, k = make_cyclic(2), make_cyclic(3)
    flip = ((0, 1, 2), (0, 2, 1))
    semidirect(h, k, flip)    # Light's test walked g; this walks each factor

    def walked_again(*args):
        raise AssertionError("a group was walked a second time")

    monkeypatch.setattr(groups, "generating_set", walked_again)
    chars = enumerate_characters(g)
    for char in chars[5:8]:
        assert make_character(g, char.phases).phases == char.phases
    assert np.prod(cyclic_coordinates(g)[0]) == 24
    assert full_subgroup(g).walk[0].tolist() == g.walk[0].tolist()
    semidirect(h, k, flip)
    # arrays only: a kept Subgroup would tie the group into a reference cycle
    assert all(isinstance(part, np.ndarray) for part in vars(g)["walk"])


def _lifted_walks():
    """(name, sd, subgroup of K) for the corpus products' K subgroups, the
    flip group with both identities at index 1, and WH(16,16)'s center and K."""
    for entry in builtin_corpus():
        if entry.sd is not None:
            yield entry.name, entry.sd, entry.normal_in_k
            yield f"{entry.name} all of K", entry.sd, full_subgroup(entry.sd.k)
    h, k = make_from_table([[1, 0], [0, 1]]), make_from_table([[2, 0, 1], [0, 1, 2], [1, 2, 0]])
    moved = semidirect(h, k, ((2, 1, 0), (0, 1, 2)))
    yield "identities at 1", moved, full_subgroup(k)
    sd = weyl_heisenberg_finite(16, 16)
    for size in (16, 256):
        yield f"WH(16,16) {size}", sd, make_subgroup(sd.k, range(size))


def test_a_lifted_subgroup_carries_the_walk_a_fresh_walk_finds():
    for name, sd, sub in _lifted_walks():
        lifted = lift_subgroup(sd, sub)
        fresh = Subgroup(sd.product, lifted.members).walk     # generating_set on the product
        assert len(lifted.walk) == len(fresh) == 4, name
        for got, want in zip(lifted.walk, fresh):
            assert got.dtype == want.dtype and np.array_equal(got, want), name
            assert not got.flags.writeable, name
    assert "table" not in vars(sd.product)


def test_hashing_leaves_the_product_table_unbuilt():
    sd = weyl_heisenberg_finite(4, 4)
    center = lift_subgroup(sd, make_subgroup(sd.k, range(4)))
    char = enumerate_characters(center)[1]
    quot = quotient(sd.product, center)
    hash(char), hash(center), hash(quot), hash(trivial_character(sd.product))
    assert "table" not in vars(sd.product)


def test_equal_subgroups_of_equal_groups_hash_equal():
    one, two = weyl_heisenberg_finite(4, 4), weyl_heisenberg_finite(4, 4)
    a, b = (lift_subgroup(sd, make_subgroup(sd.k, range(4))) for sd in (one, two))
    qa, qb = quotient(one.product, a), quotient(two.product, b)
    ca, cb = enumerate_characters(a)[3], enumerate_characters(b)[3]
    assert a.parent is not b.parent
    assert (hash(a), hash(qa), hash(ca)) == (hash(b), hash(qb), hash(cb))
    assert (a, qa, ca) == (b, qb, cb)
    assert len({a, b, make_subgroup(one.product, range(4))}) == 1


@pytest.mark.parametrize("phase", [Fraction(1, 2), Fraction(1, 3)])
def test_the_trivial_subgroup_takes_only_the_zero_phase(phase):
    e = make_subgroup(make_cyclic(5), [0])
    assert make_character(e, [0]).phases == (0,)
    with pytest.raises(ValidationError, match=r"pair \(0, 0\)"):
        make_character(e, [phase])


def _records(q):
    """Members, reps and proj of q and of each `fiber` below it, outermost first."""
    return [] if q is None else [(q.normal.members, q.reps.tolist(), q.proj.tolist()), *_records(q.fiber)]


def _check_fiber_record(sd):
    """`quotient` by each normal subgroup of the product inside its K fiber
    keeps K / N as `quotient(K, N_K)` gives it, down to the record that
    keeps when K is a product; the same quotient of the table read back
    with no split keeps none."""
    g = sd.product
    plain = make_from_table(g.table.tolist())
    in_k = {tuple(range(sd.k.order))}
    in_k |= {tuple(np.flatnonzero(generating_set(sd.k, [x])[3]).tolist()) for x in range(sd.k.order)}
    for members in sorted(in_k):
        sub = make_subgroup(sd.k, members)
        lifted = lift_subgroup(sd, sub)
        if is_normal(g, lifted):
            got, want = quotient(g, lifted).fiber, quotient(sd.k, sub)
            assert got.parent is sd.k, members
            assert got.normal.members == members and _records(got) == _records(want), members
            assert quotient(plain, make_subgroup(plain, lifted.members)).fiber is None


@settings(max_examples=200, deadline=None)
@given(k=_groups(), h=_groups(non_cyclic=["S3"], cyclic_up_to=4), data=st.data())
def test_fiber_quotients_keep_k_mod_n(k, h, data):
    rows = data.draw(_actions(h, k))
    if _refusal(lambda: semidirect(h, k, rows)) is None:
        _check_fiber_record(semidirect(h, k, rows))
