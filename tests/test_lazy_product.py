"""A product built by `semidirect` multiplies from its factors and builds its
dense table only when something reads all of it.  A direct product is the
same construction under the identity action, with its table read at once.

Every routine that goes through `FiniteGroup.multiply` must give the same
results and the same errors on a fresh product as on one whose table was
read first, and `multiply` must agree with the table on every pair.
`quotient`, which takes the coset minima along N's generators, must give
what all |G| |N| products give, and leave both tables unbuilt; for N inside
the K fiber it takes them in K, and must give what the same table read back
with no split gives.  A product pickles with its split.
"""

import gc
import pickle
import random
import tracemalloc
import weakref
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covmod import (
    FiniteGroup,
    conv_fast_full_k,
    conv_fast_wh_center,
    conv_fast_wh_full,
    convolve,
    enumerate_characters,
    group_center,
    heisenberg_finite,
    is_normal,
    lift_subgroup,
    make_cyclic,
    make_from_table,
    make_product,
    make_subgroup,
    module_action,
    quotient,
    random_function,
    semidirect,
    symmetric_3,
    t_xi,
    weyl_heisenberg_finite,
)
from covmod.characters import ENUMERATION_LIMIT
from covmod.errors import NormalityError, ValidationError
from covmod import groups
from covmod.groups import full_subgroup, generating_set
from covmod.jsonio import group_id
from covmod.semidirect import SemidirectGroup
from covmod.verify import FAST_GRID, builtin_corpus


def _s3_on_v4():
    v4 = make_product(make_cyclic(2), make_cyclic(2))
    perms = sorted(permutations(range(3)))
    return semidirect(symmetric_3(), v4, [[0] + [p[i] + 1 for i in range(3)] for p in perms])


def _flip_with_identities_at_1():
    h = make_from_table([[1, 0], [0, 1]])
    k = make_from_table([[2, 0, 1], [0, 1, 2], [1, 2, 0]])
    return semidirect(h, k, ((2, 1, 0), (0, 1, 2)))


PRODUCTS = {
    **{f"WH({m},{r})": (lambda m=m, r=r: weyl_heisenberg_finite(m, r)) for m, r in FAST_GRID},
    "Heis2": lambda: heisenberg_finite(2),
    "Heis3": lambda: heisenberg_finite(3),
    "S3 x| V4": _s3_on_v4,
    "flip": lambda: semidirect(make_cyclic(2), make_cyclic(3), ((0, 1, 2), (0, 2, 1))),
    "flip, identities at 1": _flip_with_identities_at_1,
    "Z2 x S3": lambda: semidirect(make_cyclic(2), symmetric_3(), [list(range(6))] * 2),
}


DIRECT_PRODUCTS = {
    "Z2 x Z4": lambda: make_product(make_cyclic(2), make_cyclic(4)),
    "S3 x Z3": lambda: make_product(symmetric_3(), make_cyclic(3)),
    "Z4 x S3": lambda: make_product(make_cyclic(4), symmetric_3()),
    "Heis2 x Z2": lambda: make_product(heisenberg_finite(2).product, make_cyclic(2)),
    "Z2 x Z2 x Z2": lambda: make_product(make_product(make_cyclic(2), make_cyclic(2)), make_cyclic(2)),
    "S3 x S3": lambda: make_product(symmetric_3(), symmetric_3()),   # both factors labelled
}


def _written_out(a, b):
    """A x B entry by entry, (x, y) at x |B| + y: the table, inverses,
    identity and labels that `make_product` must give."""
    nb = b.order
    table = [[a.table[xa, ya] * nb + b.table[xb, yb] for ya in range(a.order) for yb in range(nb)]
             for xa in range(a.order) for xb in range(nb)]
    inv = [a.inv[xa] * nb + b.inv[xb] for xa in range(a.order) for xb in range(nb)]
    labels = None
    if a.labels is not None and b.labels is not None:
        labels = tuple(f"({la},{lb})" for la in a.labels for lb in b.labels)
    return table, inv, a.identity * nb + b.identity, labels


@pytest.mark.parametrize("name", DIRECT_PRODUCTS)
def test_make_product_is_the_identity_action_semidirect_product(name):
    g = DIRECT_PRODUCTS[name]()
    sd = g.split
    assert isinstance(sd, SemidirectGroup) and sd.product is g
    assert np.array_equal(sd.action, np.broadcast_to(np.arange(sd.k.order), sd.action.shape))
    assert "table" in vars(g)   # read at construction
    table, inv, identity, labels = _written_out(sd.h, sd.k)
    assert g.table.tolist() == table and g.table.dtype == np.int32
    assert g.inv.tolist() == inv
    assert (g.identity, g.labels) == (identity, labels)
    x = np.arange(g.order)
    assert np.array_equal(sd.multiply(x[:, None], x), g.table)
    assert [int(g.multiply(a, b)) for a in x for b in x] == g.table.ravel().tolist()
    copy = make_from_table(g.table.tolist(), g.labels)
    assert copy == g and copy.split is None


def test_a_dropped_product_is_freed_without_the_collector():
    # the product holds its split strongly and the split holds it weakly, so
    # no reference cycle keeps a product or its table alive
    builds = (lambda: weyl_heisenberg_finite(4, 4).product,
              lambda: make_product(make_cyclic(8), make_cyclic(8)))
    gc.collect()
    gc.disable()
    try:
        for build in builds:
            g = build()
            g.table
            sd = g.split
            assert sd.product is g and g.split is sd
            product, table = weakref.ref(g), weakref.ref(g.table)
            del g, sd
            assert product() is None and table() is None
    finally:
        gc.enable()
    sd = weyl_heisenberg_finite(2, 2)
    first = weakref.ref(sd.product)
    assert first() is None and sd.product == weyl_heisenberg_finite(2, 2).product


def _outcome(fn):
    """What a call returns, or the type and message of what it raises."""
    try:
        return "ok", fn()
    except Exception as exc:  # every error must match, whatever its type
        return "error", type(exc).__name__, str(exc)


def _quotient_parts(q):
    return (q.reps.tolist(), q.proj.tolist(), q.table.table.tolist(), q.table.inv.tolist(),
            q.table.identity, q.grid.tolist())


def _results(g, candidates):
    """Everything the routines on `multiply` give for each candidate member set."""
    out = []
    for members in candidates:
        sub = _outcome(lambda: make_subgroup(g, members))
        gens = generating_set(g, members)
        row = [sub[:1] + (sub[1].members,) if sub[0] == "ok" else sub,
               (gens[0], gens[1].tolist(), gens[2].tolist(), gens[3].tolist())]
        if sub[0] == "ok":
            s = sub[1]
            row.append(is_normal(g, s))
            row.append(_outcome(lambda: _quotient_parts(quotient(g, s))))
            if s.order <= ENUMERATION_LIMIT:
                row.append([c.phases for c in enumerate_characters(s)])
        out.append(row)
    return out


def _candidates(g, rng):
    """The K fiber, the trivial group, the whole group, the center, every
    cyclic subgroup (normal or not, inside K or not) and some sets that are
    not closed."""
    nk = g.split.k.order
    base = g.split.h.identity * nk
    cyclic = [np.flatnonzero(generating_set(g, [x])[3]).tolist() for x in range(g.order)]
    loose = []
    for _ in range(8):
        x, y = rng.randrange(g.order), rng.randrange(g.order)
        loose.append(sorted({g.identity, x, int(g.inv[x]), y, int(g.inv[y])}))
    return [list(range(base, base + nk)), [g.identity], list(range(g.order)),
            *cyclic, *loose]


@pytest.mark.parametrize("name", PRODUCTS)
def test_multiply_is_the_table_on_every_pair(name):
    g = PRODUCTS[name]().product
    x = np.arange(g.order)
    got = g.multiply(x[:, None], x)
    assert "table" not in vars(g)
    assert np.array_equal(got, g.table)
    assert [int(g.multiply(a, b)) for a in x for b in x] == g.table.ravel().tolist()


@pytest.mark.parametrize("name", PRODUCTS)
def test_a_fresh_product_gives_what_its_table_gives(name):
    fresh, read = PRODUCTS[name]().product, PRODUCTS[name]().product
    read.table
    center = group_center(read).members
    candidates = [*_candidates(read, random.Random(name)), list(center)]
    got = _results(fresh, candidates)
    assert "table" not in vars(fresh)
    assert got == _results(read, candidates)
    assert fresh == read


@pytest.mark.parametrize("name", PRODUCTS)
def test_normality_from_generators_is_conjugation_by_every_element(name):
    g = PRODUCTS[name]().product
    table = g.table
    for x in range(g.order):
        members = np.flatnonzero(generating_set(g, [x])[3])
        inside = np.zeros(g.order, dtype=bool)
        inside[members] = True
        every = inside[table[table[:, members], g.inv[:, None]]].all()
        assert is_normal(g, make_subgroup(g, members.tolist())) == every


def _by_inversion(k):
    return semidirect(make_cyclic(2), k, [list(range(k.order)), k.inv.tolist()])


@settings(max_examples=25, deadline=None)
@given(
    orders=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3),
    data=st.data(),
)
def test_inversion_products_agree_fresh_and_read(orders, data):
    k = make_cyclic(1)
    for n in orders:
        k = make_product(k, make_cyclic(n))
    order = data.draw(st.permutations(range(k.order)))   # the identity can land anywhere
    at = np.argsort(order)
    k = make_from_table(at[k.table[np.ix_(order, order)]].tolist())
    fresh, read = _by_inversion(k).product, _by_inversion(k).product
    read.table
    x = np.arange(fresh.order)
    assert np.array_equal(fresh.multiply(x[:, None], x), read.table)
    candidates = _candidates(read, random.Random(str(orders)))
    assert _results(fresh, candidates) == _results(read, candidates)
    assert "table" not in vars(fresh)


def test_t_xi_reuses_the_subgroups_quotient():
    sd = weyl_heisenberg_finite(4, 4)
    k = lift_subgroup(sd, make_subgroup(sd.k, range(16)))
    char = enumerate_characters(k)[5]
    f = random_function(sd.product, random.Random("reuse"))
    first, second = t_xi(f, char), t_xi(f, char)
    assert first.quotient is second.quotient is k.quotient
    assert np.array_equal(first.section, t_xi(f, char, quot=quotient(sd.product, k)).section)
    off_k = make_subgroup(sd.product, np.flatnonzero(generating_set(sd.product, [16])[3]).tolist())
    for _ in range(2):
        with pytest.raises(NormalityError):
            off_k.quotient


def test_the_library_path_at_order_4096_leaves_the_table_unbuilt():
    # the dense table alone is 64 MiB; the parent traced 80 MB here
    tracemalloc.start()
    try:
        sd = weyl_heisenberg_finite(16, 16)
        g = sd.product
        center = lift_subgroup(sd, make_subgroup(sd.k, range(16)))
        k = lift_subgroup(sd, make_subgroup(sd.k, range(256)))
        qc, qk = quotient(g, center), quotient(g, k)
        xc, xk = enumerate_characters(center)[1], enumerate_characters(k)[17]
        rng = random.Random("order-4096")
        f, h = random_function(g, rng), random_function(g, rng)
        pc, pk = t_xi(h, xc, quot=qc), t_xi(h, xk, quot=qk)
        module_action(f, pc)
        module_action(f, pk)
        convolve(f, h)
        conv_fast_wh_center(sd, f, pc, int(xc.phases[1] * 16))
        conv_fast_wh_full(sd, f, pk, int(xk.phases[16] * 16), int(xk.phases[1] * 16))
        conv_fast_full_k(sd, f, pk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "table" not in vars(g)
    assert peak < 32 * 2**20


def test_the_fingerprint_of_a_product_leaves_the_table_unbuilt():
    # building the dense table for the rows' text took 174 MB RSS
    product = weyl_heisenberg_finite(16, 16).product
    tracemalloc.start()
    try:
        digest = group_id(product)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "table" not in vars(product)
    assert peak < 8 * 2**20
    dense = FiniteGroup(product.order, product.split.dense_table(), product.inv, product.identity)
    assert digest == group_id(dense)


def _coset_minima(g, members):
    """reps, proj and G/N's table, inverses and identity from all |G| |N|
    products, the induced group read off every product of G."""
    x = np.arange(g.order)
    smallest = g.multiply(x[:, None], np.array(members)).min(axis=1)
    reps = np.flatnonzero(smallest == x)
    proj = np.searchsorted(reps, smallest)
    on_cosets = proj[g.multiply(x[:, None], x)]
    table = np.full((reps.size, reps.size), -1)
    table[proj[:, None], proj] = on_cosets
    assert (table[proj[:, None], proj] == on_cosets).all()   # well defined on cosets
    inv = np.full(reps.size, -1)
    inv[proj] = proj[g.inv]
    return (reps.tolist(), proj.tolist(), table.tolist(), inv.tolist(),
            int(proj[g.identity]))


def _parts(q):
    return q.reps.tolist(), q.proj.tolist(), q.table.table.tolist(), q.table.inv.tolist(), q.table.identity


def test_quotient_is_the_coset_minima_on_the_verify_corpus():
    for entry in builtin_corpus():
        expected = _coset_minima(entry.group, entry.normal.members)
        assert _parts(quotient(entry.group, entry.normal)) == expected, entry.name
        assert _parts(entry.quot) == expected, entry.name


@pytest.mark.parametrize("name", PRODUCTS)
def test_quotient_is_the_coset_minima_on_every_normal_subgroup(name):
    # the candidates hold the K fiber, the trivial group and the whole group:
    # Heis3 / Heis3, S3 x| V4 / V4 and S3 x| V4 / S3 x| V4 among them
    g = PRODUCTS[name]().product
    normal = 0
    for members in _candidates(g, random.Random(name)):
        try:
            sub = make_subgroup(g, members)
        except ValidationError:
            continue
        if not is_normal(g, sub):
            with pytest.raises(NormalityError):
                quotient(g, sub)
            continue
        normal += 1
        expected = _coset_minima(g, sub.members)
        q = quotient(g, sub)
        assert (q.reps.tolist(), q.proj.tolist()) == expected[:2]
        assert "table" not in vars(q)
        assert _parts(q) == expected
    assert normal >= 3 or g.order == 1
    assert "table" not in vars(g)


def _peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_quotient_runs_in_linear_memory():
    # all |G| |N| products in row blocks and an eager G/N table peaked at
    # 4.2 MiB (WH(16,16) by K) and 16.7 MiB (WH(32,32) by its center)
    sd = weyl_heisenberg_finite(16, 16)
    k = lift_subgroup(sd, make_subgroup(sd.k, range(256)))
    assert _peak_mib(lambda: quotient(sd.product, k)) < 1.5
    sd = weyl_heisenberg_finite(32, 32)
    center = lift_subgroup(sd, make_subgroup(sd.k, range(32)))
    assert _peak_mib(lambda: quotient(sd.product, center)) < 6


def test_a_quotient_keeps_its_cosets_as_two_read_only_index_arrays():
    # as tuples of ints the WH(32,32) center quotient held 1.05 MiB; the two
    # intp arrays of its 32,768 elements and 1,024 cosets hold 0.27 MiB
    sd = weyl_heisenberg_finite(32, 32)
    center = lift_subgroup(sd, make_subgroup(sd.k, range(32)))
    center.walk   # kept by the subgroup, not by the quotient
    tracemalloc.start()
    try:
        q = quotient(sd.product, center)
        held = tracemalloc.get_traced_memory()[0] / 2**20
    finally:
        tracemalloc.stop()
    assert held < 0.5
    for record in (q, q.fiber):
        for arr in (record.reps, record.proj):
            assert isinstance(arr, np.ndarray) and arr.dtype == np.intp and not arr.flags.writeable
    assert (q.reps.size, q.proj.size) == (1024, 32768)


def _coset_minima_groups(monkeypatch):
    """The groups `quotient` takes its coset minima in, recorded call by call."""
    seen, minima = [], groups._coset_minima

    def spy(group, gens):
        seen.append(group)
        return minima(group, gens)

    monkeypatch.setattr(groups, "_coset_minima", spy)
    return seen


def _in_k(group, sd):
    """Whether `group` is K or, when K is a product, a K factor below it."""
    while sd is not None:
        if group is sd.k:
            return True
        sd = sd.k.split
    return False


def _innermost(q):
    """The last K/N record below q, the one `quotient`'s generic body built:
    it takes coset minima unless it is one coset."""
    return q if q.fiber is None else _innermost(q.fiber)


def _table_route(g, members):
    """reps and proj of `quotient` on g's table read back with no split."""
    plain = make_from_table(g.table.tolist())
    assert plain.split is None
    q = quotient(plain, make_subgroup(plain, members))
    return q.reps.tolist(), q.proj.tolist()


def _subgroups_of_k(k):
    """K, the trivial group and every cyclic subgroup of K, as member tuples."""
    found = {tuple(range(k.order)), (k.identity,)}
    found |= {tuple(np.flatnonzero(generating_set(k, [x])[3]).tolist()) for x in range(k.order)}
    return sorted(found)


def test_fiber_quotients_match_the_table_route_on_the_corpus(monkeypatch):
    seen = _coset_minima_groups(monkeypatch)
    checked = 0
    for entry in builtin_corpus():
        sd = entry.sd
        if sd is None:
            continue
        for members in [entry.normal_in_k.members, *_subgroups_of_k(sd.k)]:
            lifted = lift_subgroup(sd, make_subgroup(sd.k, members))
            if not is_normal(sd.product, lifted):
                continue
            seen.clear()
            q = quotient(sd.product, lifted)
            assert q.fiber is not None, (entry.name, members)   # the fiber route ran
            assert len(seen) == (_innermost(q).order > 1) and all(_in_k(x, sd) for x in seen), (entry.name, members)
            assert (q.reps.tolist(), q.proj.tolist()) == _table_route(sd.product, lifted.members), (entry.name, members)
            checked += 1
    assert checked >= 20


def test_a_subgroup_made_on_the_product_takes_the_fiber_route(monkeypatch):
    # H's identity at index 1 puts the K fiber at 3..5 of the flip group and
    # at 4..7 of Z2 x Z4, where N = {(e, 0), (e, 2)}; WH(2,4)'s center is
    # found by group_center, not lifted
    seen = _coset_minima_groups(monkeypatch)
    moved = _flip_with_identities_at_1()
    z2z4 = make_product(moved.h, make_cyclic(4)).split
    wh = weyl_heisenberg_finite(2, 4)
    for sd, sub in ((moved, make_subgroup(moved.product, range(3, 6))),
                    (z2z4, make_subgroup(z2z4.product, (4, 6))),
                    (wh, group_center(wh.product)),
                    (wh, make_subgroup(wh.product, range(8)))):
        seen.clear()
        q = quotient(sd.product, sub)
        assert q.fiber is not None   # the fiber route ran
        assert len(seen) == (_innermost(q).order > 1) and all(_in_k(x, sd) for x in seen)
        assert (q.reps.tolist(), q.proj.tolist()) == _table_route(sd.product, sub.members)


def test_a_normal_subgroup_outside_the_fiber_keeps_the_generic_path(monkeypatch):
    # H x {e} in Z2 x Z3 and the whole of Heis2: each runs in the product
    # itself, where G/G is one coset and takes no coset minima
    seen = _coset_minima_groups(monkeypatch)
    z2z3, heis2 = make_product(make_cyclic(2), make_cyclic(3)), heisenberg_finite(2).product
    for g, members in ((z2z3, (0, 3)), (heis2, range(8))):
        sub = make_subgroup(g, members)
        seen.clear()
        q = quotient(g, sub)
        assert seen == ([g] if sub.order < g.order else [])
        assert q.fiber is None
        assert (q.reps.tolist(), q.proj.tolist()) == _table_route(g, sub.members)


def test_a_product_pickles_with_its_split():
    for sd in (weyl_heisenberg_finite(4, 4), _s3_on_v4()):
        g = sd.product
        back = pickle.loads(pickle.dumps(g))
        assert "table" not in vars(back) and back.split.product is back
        assert not back.inv.flags.writeable and not back.split.action.flags.writeable
        q = quotient(back, lift_subgroup(back.split, full_subgroup(back.split.k)))
        assert q.fiber_action is not None
        want = quotient(g, lift_subgroup(sd, full_subgroup(sd.k)))
        assert (q.reps.tolist(), q.proj.tolist()) == (want.reps.tolist(), want.proj.tolist())
        assert back == g
    read = make_product(make_cyclic(2), make_cyclic(3))
    back = pickle.loads(pickle.dumps(read))
    assert back == read and back.split.product is back and not back.table.flags.writeable
