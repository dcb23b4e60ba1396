import hashlib
import math
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covmod import (
    DomainMismatchError,
    conv_fast_full_k,
    conv_fast_wh_center,
    conv_fast_wh_full,
    cov_norm,
    enumerate_characters,
    make_character,
    module_action,
    pullback,
    t_xi,
    ExponentError,
    FiniteGroup,
    GroupFunction,
    MeasureError,
    NormalityError,
    ValidationError,
    counting_measure,
    delta_function,
    group_center,
    heisenberg_finite,
    is_normal,
    lp_norm,
    make_cyclic,
    make_from_table,
    make_product,
    make_subgroup,
    quotient,
    random_function,
    weil_measure,
    weil_residual,
    symmetric_3,
    weyl_heisenberg_finite,
    CovariantFunction,
    CovmodError,
    MeasureTriple,
    convolve,
    from_section,
    full_module_action,
    project_trivial,
    trivial_character,
)
from covmod import draws, groups
from covmod.groups import cyclic_coordinates, generating_set
from covmod.verify import builtin_corpus
from covmod.jsonio import (
    covariant_from_json,
    covariant_to_json,
    function_from_json,
    function_to_json,
    group_id,
    group_text,
    group_to_json,
    read_group,
)


def test_cyclic_table_oracle(z4):
    assert z4.order == 4
    assert z4.identity == 0
    assert z4.mul[3][2] == 1
    assert z4.inv[1] == 3
    assert z4.inv[0] == 0
    assert z4.is_abelian


def test_cyclic_rejects_bad_order():
    with pytest.raises(ValidationError):
        make_cyclic(0)


def test_product_of_coprime_cyclics_is_cyclic():
    g = make_product(make_cyclic(2), make_cyclic(3))
    assert g.order == 6
    assert max(g.element_order(x) for x in range(6)) == 6
    # packing is (a, b) -> a * |B| + b
    assert g.mul[1 * 3 + 2][0 * 3 + 1] == 1 * 3 + 0


def test_symmetric_3_oracle(s3):
    assert s3.order == 6
    assert not s3.is_abelian
    assert s3.label(0) == "012"
    # (102) o (021): apply right first
    assert s3.mul[2][1] == 3
    assert s3.mul[1][2] == 4
    assert group_center(s3).members == (0,)


def test_make_from_table_rejects_missing_inverse():
    with pytest.raises(ValidationError):
        make_from_table([[0, 1], [1, 1]])


def test_make_from_table_rejects_non_square():
    with pytest.raises(ValidationError):
        make_from_table([[0, 1], [1]])


def test_make_from_table_rejects_out_of_range():
    with pytest.raises(ValidationError):
        make_from_table([[0, 1], [1, 2]])


def test_out_of_range_entry_is_named_in_row_order():
    # the first bad entry of a row-by-row scan, with its value
    table = [[0, 1, 9], [8, 2, 0], [2, 0, 1]]
    with pytest.raises(ValidationError, match=re.escape("entry mul(0,2) = 9 is not an element of 0..2")):
        make_from_table(table)
    table[0][2] = 2**40
    with pytest.raises(ValidationError, match=re.escape(f"entry mul(0,2) = {2**40} is not")):
        make_from_table(table)


def test_make_from_table_rejects_broken_row():
    table = [list(row) for row in make_cyclic(4).mul]
    table[1][2], table[1][3] = table[1][3], table[1][2]
    with pytest.raises(ValidationError):
        make_from_table(table)


def test_make_from_table_rejects_one_corrupted_entry_at_order_1024():
    table = [list(row) for row in weyl_heisenberg_finite(8, 16).product.mul]
    # Identity and inverses stay intact; a fixed sample of 200,000 random
    # triples (numpy seed 0) does not meet this entry.
    assert table[2][3] == 5
    table[2][3] = 4
    with pytest.raises(ValidationError, match="associativity fails") as info:
        make_from_table(table)
    triple = re.search(r"triple \((\d+), (\d+), (\d+)\)", str(info.value))
    x, y, z = map(int, triple.groups())
    assert table[table[x][y]][z] != table[x][table[y][z]]


def test_associativity_witness_does_not_depend_on_block_size(monkeypatch):
    # swapping 40*3 and 40*5 in WH(4,4) keeps the identity and the inverses;
    # the first failing product is in row 40, past the first block of 1 or 10 rows
    g = weyl_heisenberg_finite(4, 4).product
    table = g.table.tolist()
    table[40][3], table[40][5] = table[40][5], table[40][3]
    # 40*0 = 41 leaves 0 a left identity only; moving 0 out of 40's inverse's
    # column leaves 40 and its inverse one-sided inverses only
    no_identity = g.table.tolist()
    no_identity[40][0], no_identity[40][1] = no_identity[40][1], no_identity[40][0]
    no_inverse = g.table.tolist()
    at = no_inverse[40].index(0)
    to = 2 if at == 1 else 1
    no_inverse[40][to], no_inverse[40][at] = no_inverse[40][at], no_inverse[40][to]
    text = group_text(g)
    rows = "".join("|" + ",".join(map(str, row)) for row in g.table.tolist())
    digest = hashlib.sha256(f"covmod-group-v1:64{rows}".encode()).hexdigest()[:16]
    for block in (1 << 18, 1 << 16, 640, 64):
        monkeypatch.setattr(groups, "_BLOCK", block)
        with pytest.raises(ValidationError) as err:
            make_from_table(table)
        assert str(err.value) == (
            "associativity fails at triple (40, 2, 1): (40*2)*1 = 43 but 40*(2*1) = 47"
        )
        with pytest.raises(ValidationError, match="^table has no two-sided identity element$"):
            make_from_table(no_identity)
        with pytest.raises(ValidationError, match=f"^element {min(40, at)} has no two-sided inverse$"):
            make_from_table(no_inverse)
        # the reader's blocks of rows, and the writer's and the fingerprint's
        read, canonical = read_group(text.encode())
        assert np.array_equal(read.table, g.table) and np.array_equal(read.inv, g.inv)
        assert read.fingerprint == digest and canonical == text.encode()
        fresh = FiniteGroup(g.order, g.table, g.inv, g.identity)
        assert fresh.fingerprint == digest and group_text(fresh) == text


def _self_inverse_loop(n):
    """x * x = e and x * y = y otherwise: each greedy generator reaches only
    itself, so the walk needs n - 1 of them, more than any group of order n."""
    return [[y if x == 0 else x if y == 0 else 0 if x == y else y for y in range(n)]
            for x in range(n)]


@pytest.mark.parametrize("table, message", [
    # the powers of 1 stay at 1 and never come back to the identity
    ([[0, 1, 2], [1, 1, 0], [2, 0, 1]], "(2, 1, 1): (2*1)*1 = 1 but 2*(1*1) = 0"),
    (_self_inverse_loop(8), "(1, 2, 1): (1*2)*1 = 1 but 1*(2*1) = 0"),
])
def test_generating_set_ends_on_tables_that_are_not_groups(table, message):
    with pytest.raises(ValidationError) as err:
        make_from_table(table)
    assert str(err.value) == f"associativity fails at triple {message}"


def _walk_one_power_at_a_time(group, members):
    """`generating_set` as it walked before pointer doubling, one product per
    power of each generator: the oracle of the doubling walk."""
    ms = groups._distinct(group.order, np.fromiter(members, dtype=np.intp))
    gens, powers, orders = [], [], []
    words = np.zeros((group.order, 0), dtype=np.int64)
    reached = np.zeros(group.order, dtype=bool)
    reached[group.identity] = True
    while not reached[ms].all():
        g = int(ms[reached[ms].argmin()])
        gens.append(g)
        words = np.concatenate((words, np.zeros((group.order, 1), dtype=np.int64)), axis=1)
        span = np.flatnonzero(reached)
        at = np.searchsorted(span, group.identity)
        level, cosets = group.multiply(span, g), []
        while not reached[level[at]]:
            reached[level] = True
            cosets.append(level)
            level = group.multiply(level, g)
        powers.append(int(level[at]))
        orders.append(len(cosets) + 1)
        cosets = np.array(cosets)
        words[cosets] = words[span]
        words[cosets, -1] = np.arange(1, len(cosets) + 1)[:, None]
        frontier = cosets.ravel()
        while frontier.size:
            found = []
            for c, x in enumerate(gens):
                step = group.multiply(frontier, x)
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


def _unchecked(table):
    """A table as a FiniteGroup with none of the group laws checked; its
    identity is the first two-sided one, which the walk's tables all have."""
    arr = np.array(table)
    e = int(np.flatnonzero((arr == np.arange(len(arr))).all(axis=1))[0])
    return FiniteGroup(len(arr), arr, np.zeros(len(arr), dtype=np.intp), e)


def _assert_same_walk(group, members):
    got, want = generating_set(group, members), _walk_one_power_at_a_time(group, members)
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("table", [
    [[0, 1, 2], [1, 1, 0], [2, 0, 1]],
    _self_inverse_loop(8),
], ids=["powers stuck at 1", "self-inverse loop"])
def test_the_doubling_walk_matches_the_one_power_walk_on_tables_that_are_not_groups(table):
    g = _unchecked(table)
    for members in (range(len(table)), [1], [len(table) - 1, 2]):
        _assert_same_walk(g, members)


@st.composite
def _tables_with_identity(draw):
    """An n x n table with a two-sided identity e and every other entry
    drawn: mostly not a group, sometimes one."""
    n = draw(st.integers(1, 7))
    e = draw(st.integers(0, n - 1))
    entries = st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)
    table = np.array(draw(entries)).reshape(n, n)
    table[e], table[:, e] = np.arange(n), np.arange(n)
    return table.tolist()


@settings(max_examples=200, deadline=None)
@given(table=_tables_with_identity(), data=st.data())
def test_the_doubling_walk_matches_the_one_power_walk_on_drawn_tables(table, data):
    members = data.draw(st.lists(st.integers(0, len(table) - 1), max_size=4))
    _assert_same_walk(_unchecked(table), members)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 24), d=st.integers(1, 6), data=st.data())
def test_the_doubling_walk_matches_the_one_power_walk_on_drawn_groups(n, d, data):
    g = data.draw(st.sampled_from([
        make_cyclic(n), make_product(make_cyclic(d), make_cyclic(n)), symmetric_3(),
        heisenberg_finite(3).product, weyl_heisenberg_finite(2, 4).product,
    ]))
    members = data.draw(st.lists(st.integers(0, g.order - 1), max_size=4))
    _assert_same_walk(g, members)


def test_the_doubling_walk_matches_the_one_power_walk_on_the_corpus():
    for entry in builtin_corpus():
        g = entry.group
        for members in (range(g.order), entry.normal.members, group_center(g).members):
            _assert_same_walk(g, members)
        # the whole-group walk, which passes its members as an index array
        want = _walk_one_power_at_a_time(g, range(g.order))
        assert g.walk[0].tolist() == want[0]
        for a, b in zip(g.walk[1:], want[1:3]):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def test_the_walk_of_a_cyclic_group_takes_logarithmically_many_products(monkeypatch):
    g, calls = make_cyclic(4096), []
    multiply = FiniteGroup.multiply

    def counted(self, x, y):
        calls.append(np.size(x))
        return multiply(self, x, y)

    monkeypatch.setattr(FiniteGroup, "multiply", counted)
    gens, _, relations, reached = generating_set(g, range(g.order))
    # the one-power walk took 4096 calls of one product each
    assert gens == [1] and relations.tolist() == [[4096]] and reached.all()
    assert len(calls) <= 2 * math.log2(g.order) + 4


def test_associativity_check_memory_is_linear():
    # two whole-table temporaries per generator peaked at 201 MB (tracemalloc)
    g = weyl_heisenberg_finite(16, 16).product
    g.table  # the product builds its table on first read; trace the check alone
    tracemalloc.start()
    try:
        groups._check_associative(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_table_checks_hold_blocks_beside_the_table():
    # whole-table bool and intp temporaries peaked at 3.34 MiB
    table = weyl_heisenberg_finite(8, 8).product.table
    tracemalloc.start()
    try:
        groups.checked_group(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2**20


def test_generating_set_is_greedy():
    g = weyl_heisenberg_finite(8, 8).product
    assert generating_set(g, range(g.order))[0] == [1, 8, 64]


def _dependent_z2z4():
    """Z2 x Z4 with (1,1) at index 1 and (0,1) at 2, whose greedy generators
    [1, 2] both have order 4, so their exponents alone are not coordinates."""
    z2z4, order = make_product(make_cyclic(2), make_cyclic(4)), [0, 5, 1, 2, 3, 4, 6, 7]
    return make_from_table(np.argsort(order)[z2z4.table[np.ix_(order, order)]].tolist())


_PRESENTED = {
    "Z12": lambda: make_cyclic(12),
    "Z2 x Z4": _dependent_z2z4,
    "Z4 x Z4": lambda: weyl_heisenberg_finite(4, 4).k,
    "S3": symmetric_3,
    "WH(4,4)": lambda: weyl_heisenberg_finite(4, 4).product,
}


def _sign(label):
    return sum(a > b for i, a in enumerate(label) for b in label[i + 1 :]) % 2


# the 1-dimensional characters of the non-abelian cases, written out: the
# sign of S3, and e((a h + b l) / 4) at x = (h, l, t) of WH(4,4)
_CHARACTERS = {
    "S3": lambda g: [[Fraction(_sign(g.label(x)), 2) for x in range(6)]],
    "WH(4,4)": lambda g: [[Fraction(a * (x // 16) + b * (x // 4 % 4), 4) for x in range(64)]
                          for a in range(4) for b in range(4)],
}


@pytest.mark.parametrize("name", sorted(_PRESENTED))
def test_generating_set_presents_the_group(name):
    g = _PRESENTED[name]()
    gens, words, relations, reached = generating_set(g, range(g.order))
    r = len(gens)
    assert reached.all() and words.shape == (g.order, r) and relations.shape == (r, r)
    # row j: m_j at column j, the least power of g_j inside span(gens[:j]),
    # and minus that power's word before it
    for j, x in enumerate(gens):
        spanned, powers = generating_set(g, gens[:j])[3], [x]
        while not spanned[powers[-1]]:
            powers.append(g.table[powers[-1], x])
        assert relations[j, j] == len(powers) and not relations[j, j + 1 :].any()
        assert (words[powers[-1]] + relations[j] == np.eye(r, dtype=int)[j] * len(powers)).all()
    m = math.prod(np.diagonal(relations).tolist())
    assert m == g.order if g.is_abelian else m <= g.order
    # each word is its element, and each relation holds: multiplied out and
    # on the coordinates in an abelian group, on the characters of the others
    if g.is_abelian:
        product = np.full(g.order, g.identity)
        for j, x in enumerate(gens):
            for k in range(words[:, j].max()):
                product = np.where(words[:, j] > k, g.table[product, x], product)
        assert (product == np.arange(g.order)).all()
        d, coords = cyclic_coordinates(g)
        assert not (relations @ coords[gens] % d).any()
    else:
        for phases in _CHARACTERS[name](g):
            char = make_character(g, phases)
            on_gens = [char.phases[x] for x in gens]
            assert [sum(n * q for n, q in zip(row, on_gens)) % 1
                    for row in words.tolist()] == list(char.phases)
            assert not any(sum(n * q for n, q in zip(row, on_gens)) % 1
                           for row in relations.tolist())


def test_cyclic_coordinates_are_an_isomorphism():
    shapes = {}
    for name, g in [("Z1", make_cyclic(1)), ("Z12", make_cyclic(12)), ("Z2 x Z4", _dependent_z2z4()),
                    ("Z4 x Z4", weyl_heisenberg_finite(4, 4).k)]:
        d, coords = cyclic_coordinates(g)
        shapes[name] = sorted(d.tolist())
        assert len(set(map(tuple, coords.tolist()))) == g.order == math.prod(d.tolist())
        assert not ((coords[g.table] - coords[:, None] - coords) % d).any()   # additive
    assert shapes == {"Z1": [], "Z12": [12], "Z2 x Z4": [2, 4], "Z4 x Z4": [4, 4]}


def test_subgroup_requires_closure(z4):
    with pytest.raises(ValidationError):
        make_subgroup(z4, (0, 1, 2))
    with pytest.raises(ValidationError):
        make_subgroup(z4, (1, 3))


@pytest.mark.parametrize("members, message", [
    (5, "subgroup members must be a list of element indices"),
    ([0, 2.0, True], "subgroup member 2.0 is not an element index"),
    ([0, 2, True], "subgroup member True is not an element index"),
    ([0, np.int64(2)], f"subgroup member {np.int64(2)!r} is not an element index"),
    ([], "a subgroup needs at least the identity element"),
    ([0, 7, -3, 5, -1], "member -3 is outside the group 0..3"),
    ([0, 9, 2**70, 4, 2], "member 4 is outside the group 0..3"),
    ([2, 2], "subgroup does not contain the identity"),
    ([2, 0, 1, 0], "subgroup is missing the inverse of element 1"),
], ids=["not iterable", "float", "bool", "numpy int", "empty", "negative", "past the end",
        "no identity", "no inverse"])
def test_make_subgroup_names_the_first_bad_member(z4, members, message):
    with pytest.raises(ValidationError) as err:
        make_subgroup(z4, members)
    assert str(err.value) == message


def test_subgroup_closure_witness_does_not_depend_on_block_size():
    # row 0 closes; 2*3 = 5, in the second row, is the first product outside
    # {0, 2, 3, 4}
    z6 = make_cyclic(6)
    with pytest.raises(ValidationError) as err:
        make_subgroup(z6, (0, 2, 3, 4))
    assert str(err.value) == "subgroup is not closed: 2*3 = 5 is not a member"


def test_subgroup_closure_check_memory_is_linear():
    # checking all 2**24 pairs at once peaked at 80 MB (tracemalloc)
    g = weyl_heisenberg_finite(16, 16).product
    tracemalloc.start()
    try:
        make_subgroup(g, range(g.order))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_subgroup_members_sorted(z4):
    sub = make_subgroup(z4, (2, 0))
    assert sub.members == (0, 2)
    assert sub.order == 2


def test_quotient_z6_oracle():
    z6 = make_cyclic(6)
    n = make_subgroup(z6, (0, 2, 4))
    q = quotient(z6, n)
    assert q.reps.tolist() == [0, 1]
    assert tuple(q.proj) == (0, 1, 0, 1, 0, 1)
    assert q.table.mul == ((0, 1), (1, 0))


@pytest.mark.parametrize("make", [
    lambda: make_cyclic(1),
    lambda: make_cyclic(6),
    symmetric_3,
    lambda: make_product(make_cyclic(16), make_cyclic(16)),
    lambda: weyl_heisenberg_finite(2, 4).product,
])
def test_a_quotient_by_the_whole_group_is_one_coset(make):
    g = make()
    full = groups.full_subgroup(g)
    q = quotient(g, full)
    for got, want in zip((q.reps, q.proj), groups._coset_minima(g, full.walk[0])):
        assert np.array_equal(got, want)
        assert got.dtype == np.intp and not got.flags.writeable


def test_quotient_rejects_non_normal(s3):
    sub = make_subgroup(s3, (0, 1))
    assert not is_normal(s3, sub)
    with pytest.raises(NormalityError):
        quotient(s3, sub)


def test_alternating_subgroup_is_normal(s3, a3):
    assert is_normal(s3, a3)
    q = quotient(s3, a3)
    assert q.order == 2


def test_weil_counting_exact(z4, z4_evens, z4_quot):
    rng = random.Random("weil")
    measure = counting_measure(z4_quot)
    for _ in range(20):
        f = random_function(z4, rng)
        assert weil_residual(f, z4_quot, measure) <= 1e-12 * lp_norm(f, 1)


def test_weil_scaled_measure(z4, z4_evens, z4_quot):
    m = weil_measure(z4, z4_evens, z4_quot, wG_scale=2.0, wN_scale=0.5)
    assert m.wQ.tolist() == [4.0, 4.0]
    f = random_function(z4, random.Random("scaled"))
    assert weil_residual(f, z4_quot, m) <= 1e-12 * lp_norm(f, 1)


def test_weil_measure_rejects_nonpositive(z4, z4_evens, z4_quot):
    with pytest.raises(MeasureError):
        weil_measure(z4, z4_evens, z4_quot, wG_scale=0.0)


@pytest.mark.parametrize("scales, message", [
    ((10**400, 1.0), "wG_scale is too large for a float"),
    ((1.0, "x"), "wN_scale must be a real number, got 'x'"),
    ((True, 1.0), "wG_scale must be a real number, got True"),   # not a scale of 1.0
])
def test_weil_measure_refuses_scales_that_are_not_floats(z4, z4_evens, z4_quot, scales, message):
    with pytest.raises(MeasureError, match=message):
        weil_measure(z4, z4_evens, z4_quot, *scales)


@pytest.mark.parametrize("scales, family", [
    ((math.inf, 1.0), "wG"),
    ((1e308, 1e-308), "wQ"),   # wG / wN overflows
])
def test_weil_measure_rejects_non_finite_weights(z4, z4_evens, z4_quot, scales, family):
    with pytest.raises(MeasureError, match=f"{family} must be finite, got inf at element 0"):
        weil_measure(z4, z4_evens, z4_quot, *scales)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_weights_refuse_non_finite_entries(z4, bad):
    # convolve(f, f, [1, 1, 1, inf]) returned nan+infj with a RuntimeWarning
    f = random_function(z4, random.Random("non-finite"))
    with pytest.raises(MeasureError, match=f"weights must be finite, got {bad} at element 3"):
        convolve(f, f, [1.0, 1.0, 1.0, bad])
    with pytest.raises(MeasureError, match=f"weights must be finite, got {bad} at element 3"):
        lp_norm(f, 2, [1.0, 1.0, 1.0, bad])
    with pytest.raises(MeasureError, match="wG must be finite"):
        MeasureTriple([1.0, 1.0, 1.0, bad], [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(MeasureError, match="wN must be finite"):
        MeasureTriple([1.0] * 4, [bad, 1.0], [1.0, 1.0])


def test_lp_norm_oracle(z4):
    f = GroupFunction(z4, (3 + 0j, 4j, 0j, 0j))
    assert lp_norm(f, 1) == 7.0
    assert lp_norm(f, 2) == 5.0
    assert math.isclose(lp_norm(f, 3), 91.0 ** (1.0 / 3.0), rel_tol=1e-15)
    for p in (0.5, math.inf, math.nan):
        with pytest.raises(ExponentError):
            lp_norm(f, p)


@pytest.mark.parametrize("p", [1100, 2000, 2100])
def test_lp_norm_at_large_exponents(z4, p):
    # unscaled, 0.5 ** 1100 underflows to zero and 2.0 ** 2000 overflows;
    # 1.41 is nearest 2 ** 0, so no power-of-two scale keeps 1.41 ** 2100 finite
    for v in (0.5, 1.41):
        flat = GroupFunction(z4, (v,) * 4)
        assert math.isclose(lp_norm(flat, p), v * 4.0 ** (1.0 / p), rel_tol=1e-15)
    assert lp_norm(GroupFunction(z4, (2, 1, 0, 0.5)), p) == 2.0


def test_lp_norm_weight_length_mismatch(z4):
    f = delta_function(z4, 0)
    with pytest.raises(MeasureError):
        lp_norm(f, 2, weights=(1.0, 1.0))


def test_delta_function_bounds(z4):
    for bad in (4, -1, True, 2.0):   # True set every value to 1
        with pytest.raises(DomainMismatchError, match="is not an element index of 0..3"):
            delta_function(z4, bad)
    assert delta_function(z4, 2).values.tolist() == [0j, 0j, 1 + 0j, 0j]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    d=st.integers(min_value=1, max_value=12),
)
def test_quotient_projection_is_homomorphism(n, d):
    if n % d != 0:
        d = 1
    g = make_cyclic(n)
    sub = make_subgroup(g, range(0, n, n // d) if d > 1 else (0,))
    q = quotient(g, sub)
    for x in range(n):
        for y in range(n):
            assert q.proj[g.mul[x][y]] == q.table.mul[q.proj[x]][q.proj[y]]


def _quotient_of_z6() -> FiniteGroup:
    z6 = make_cyclic(6)
    return quotient(z6, make_subgroup(z6, (0, 3))).table


CONSTRUCTORS = {
    "cyclic": lambda: make_cyclic(6),
    "product": lambda: make_product(make_cyclic(2), make_cyclic(3)),
    "table": lambda: make_from_table([[0, 1, 2], [1, 2, 0], [2, 0, 1]]),
    "semidirect": lambda: heisenberg_finite(2).product,
    "quotient": _quotient_of_z6,
}


@pytest.mark.parametrize("build", CONSTRUCTORS.values(), ids=CONSTRUCTORS.keys())
def test_table_is_read_only_int32_and_matches_mul(build):
    g = build()
    assert g.table.dtype == np.int32
    assert g.table.shape == (g.order, g.order)
    assert not g.table.flags.writeable
    with pytest.raises(ValueError):
        g.table[0, 0] = g.table[0, 1]
    assert g.table.tolist() == [list(row) for row in g.mul]


def test_equal_tables_hash_equal_across_routes():
    z4 = make_cyclic(4)
    pairs = [
        (weyl_heisenberg_finite(2, 2).product, heisenberg_finite(2).product),
        (make_from_table([list(row) for row in z4.mul]), z4),
        (make_product(make_cyclic(2), make_cyclic(1)), make_cyclic(2)),
        (quotient(z4, make_subgroup(z4, (0,))).table, z4),
    ]
    for a, b in pairs:
        assert a.mul == b.mul
        assert hash(a.mul) == hash(b.mul)
        assert a == b and hash(a) == hash(b)


def test_no_route_builds_the_tuple_table():
    sd = weyl_heisenberg_finite(4, 4)
    g = sd.product
    center = make_subgroup(g, range(4))
    fiber = make_subgroup(g, range(16))
    q_center, q_fiber = quotient(g, center), quotient(g, fiber)
    xc = make_character(center, enumerate_characters(center)[1].phases)
    xk = make_character(fiber, enumerate_characters(fiber)[5].phases)
    assert pullback(xk, sd.action[1]).domain is fiber
    rng = random.Random(0)
    f, h = random_function(g, rng), random_function(g, rng)
    pc, pk = t_xi(h, xc, quot=q_center), t_xi(h, xk, quot=q_fiber)
    module_action(f, pc)
    module_action(f, pk)
    conv_fast_wh_center(sd, f, pc, int(xc.phases[1] * 4))
    conv_fast_wh_full(sd, f, pk, int(xk.phases[4] * 4), int(xk.phases[1] * 4))
    conv_fast_full_k(sd, f, pk)
    group_id(g)
    group_to_json(g)
    small = make_from_table([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    for group in (g, sd.h, sd.k, q_center.table, q_fiber.table, small):
        assert "mul" not in group.__dict__


@pytest.mark.parametrize("order", [1, 2, 7, 64])
@pytest.mark.parametrize("seed", [0, 1, 42, "routes"])
def test_random_function_is_the_gauss_stream(order, seed, assert_gauss_stream):
    """The values are the accepted polar candidates of the SplitMix64 stream
    keyed by 64 bits of the rng, in order, and exactly those bits are used."""
    ours, theirs = random.Random(seed), random.Random(seed)
    f = random_function(make_cyclic(order), ours)
    assert_gauss_stream(f.values, theirs.getrandbits(64))
    assert ours.getstate() == theirs.getstate()


def test_the_words_and_accept_pattern_are_the_reference_bit_for_bit(gauss_candidates):
    key = random.Random("words").getrandbits(64)
    stream = list(islice(gauss_candidates(key), 600))
    words = [w for pair, _ in stream for w in pair]
    assert draws._words(key, 0, len(words)).tolist() == words
    # a block that starts mid-stream holds the same words
    assert draws._words(key, 2 * 17 + 1, 60).tolist() == words[2 * 17 + 1 : 2 * 17 + 61]
    # candidate by candidate, one accepted value or none
    pattern = [len(draws._polar(key, j, 1)) for j in range(len(stream))]
    assert pattern == [int(value is not None) for _, value in stream]
    assert 0 < sum(pattern) < len(stream)


def test_a_short_first_block_continues_the_stream(assert_gauss_stream):
    # 149 candidates are drawn first for 100 values; at this seed only 99 of
    # them are accepted, so the rest come from the next block of the counter
    ours, theirs = random.Random("short:939"), random.Random("short:939")
    key = theirs.getrandbits(64)
    assert len(draws._polar(key, 0, 100 * 4 // 3 + 16)) < 100
    (f,) = draws._draws(ours, 4, 25)
    assert f.shape == (4, 25)
    assert_gauss_stream(f, key)
    assert ours.getstate() == theirs.getstate()


def test_draws_have_standard_gaussian_moments():
    # 10^5 values at a fixed seed; each bound is about five standard errors
    # of its statistic (about six for the tail share)
    (z,) = draws._draws(random.Random("moments"), 1, 100_000)
    parts = (z[0].real, z[0].imag)
    for x in parts:
        assert abs(x.mean()) < 0.016   # standard error 1/sqrt(n) = 0.0032
        assert abs(x.var() - 1) < 0.023   # standard error sqrt(2/n) = 0.0045
        # P(|x| > 3) = 0.0027, standard error 0.00016
        assert abs(np.mean(np.abs(x) > 3) - 0.0027) < 0.001
    assert abs(np.corrcoef(*parts)[0, 1]) < 0.016   # standard error 0.0032


def _assert_frozen_vector(arr, dtype, length):
    assert type(arr) is np.ndarray and arr.dtype == dtype and arr.shape == (length,)
    assert not arr.flags.writeable


def test_every_route_stores_read_only_arrays():
    sd = weyl_heisenberg_finite(4, 4)
    g = sd.product
    center, fiber = make_subgroup(g, range(4)), make_subgroup(g, range(16))
    q_center, q_fiber = quotient(g, center), quotient(g, fiber)
    xc, xk = enumerate_characters(center)[1], enumerate_characters(fiber)[5]
    rng = random.Random("routes")
    f, h = random_function(g, rng), random_function(g, rng)
    pc, pk = t_xi(h, xc, quot=q_center), t_xi(h, xk, quot=q_fiber)
    triv = t_xi(h, trivial_character(center), quot=q_center)
    functions = [
        f,
        delta_function(g, 3),
        convolve(f, h),
        full_module_action(f, pc),
        pc.full(),
        f + h,
        f - h,
        (2 - 1j) * f,
        project_trivial(triv),
        function_from_json(function_to_json(f), g),
    ]
    for fn in functions:
        _assert_frozen_vector(fn.values, np.complex128, fn.group.order)
    sections = [
        pc,
        pk,
        module_action(f, pc),
        from_section((1, 2.5, 3j) + (0,) * 13, xc, q_center),
        pc + pc,
        pc - pc,
        0.5j * pc,
        conv_fast_wh_center(sd, f, pc, int(xc.phases[1] * 4)),
        conv_fast_wh_full(sd, f, pk, int(xk.phases[4] * 4), int(xk.phases[1] * 4)),
        conv_fast_full_k(sd, f, pk),
        covariant_from_json(covariant_to_json(pc), g),
    ]
    for psi in sections:
        _assert_frozen_vector(psi.section, np.complex128, psi.quotient.order)
    m = weil_measure(g, center, q_center, wG_scale=2.0)
    for w, n in ((m.wG, 64), (m.wN, 4), (m.wQ, 16)):
        _assert_frozen_vector(w, np.float64, n)
    for char in (xc, xk):
        _assert_frozen_vector(char.complex_values, np.complex128, char.domain.order)
        assert type(char.value(char.domain.members[1])) is complex
    # a construction copies the caller's array, which stays writable and its own
    source = f.values.copy()
    made, psi = GroupFunction(g, source), CovariantFunction(q_center, xc, source[:16])
    source[:] = 7.0
    assert np.array_equal(made.values, f.values) and np.array_equal(psi.section, f.values[:16])


MALFORMED = {
    "2-D": lambda n: np.ones((n, 2)),
    "wrong length": lambda n: [1.0] * (n + 1),
    "wrong length array": lambda n: np.ones(n + 1, dtype=complex),
    "strings": lambda n: ["1"] * n,
    "bools": lambda n: [True] * n,
    "None": lambda n: [None] * n,
    "ragged": lambda n: [[1.0]] * (n - 1) + [[1.0, 2.0]],
}


@pytest.mark.parametrize("kind, bad", MALFORMED.items(), ids=MALFORMED.keys())
def test_malformed_values_raise_package_errors(z4, z4_evens, z4_quot, kind, bad):
    char = enumerate_characters(z4_evens)[1]
    delta = delta_function(z4, 0)
    builders = [
        lambda: GroupFunction(z4, bad(4)),
        lambda: CovariantFunction(z4_quot, char, bad(2)),
        lambda: from_section(bad(2), char, z4_quot),
        lambda: lp_norm(delta, 2, weights=bad(4)),
        lambda: convolve(delta, delta, measure=bad(4)),
    ]
    # a length error is a domain mismatch, also for an array of the target dtype
    expected = DomainMismatchError if kind.startswith("wrong length") else CovmodError
    for build in builders[:3]:
        with pytest.raises(expected):
            build()
    if not kind.startswith("wrong length"):  # a triple's families have no length of their own
        builders.append(lambda: MeasureTriple(bad(4), (1.0,) * 2, (1.0,) * 2))
    for build in builders:
        with pytest.raises(CovmodError):
            build()
    with pytest.raises(CovmodError):
        MeasureTriple((1.0,) * 4, (1j,) * 2, (1.0,) * 2)  # complex weights


@pytest.mark.parametrize(
    "sizes, message",
    [
        ((6, 2, 2), "got 2 wN weights where 3 are needed"),
        ((6, 3, 5), "got 5 wQ weights where 2 are needed"),
        ((5, 3, 2), "got 5 wG weights where 6 are needed"),
    ],
)
def test_measure_families_of_the_wrong_length_raise_measure_errors(sizes, message):
    z6 = make_cyclic(6)
    normal = make_subgroup(z6, (0, 2, 4))
    quot = quotient(z6, normal)
    f = delta_function(z6, 1)
    measure = MeasureTriple(*([1.0] * n for n in sizes))
    with pytest.raises(MeasureError, match=message):
        weil_residual(f, quot, measure)
    if sizes[1] != normal.order:  # t_xi reads the wN family alone
        with pytest.raises(MeasureError, match=message):
            t_xi(f, enumerate_characters(normal)[1], measure, quot)
    if sizes[2] != quot.order:  # cov_norm reads the wQ family alone
        with pytest.raises(MeasureError, match=message):
            cov_norm(t_xi(f, enumerate_characters(normal)[1], quot=quot), 2, measure)
