import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covmod import characters
from covmod import (
    DomainMismatchError,
    ResourceError,
    ValidationError,
    char_conj,
    char_inner,
    char_mul,
    enumerate_characters,
    full_subgroup,
    heisenberg_finite,
    make_character,
    make_cyclic,
    make_from_table,
    make_product,
    make_subgroup,
    pullback,
    symmetric_3,
    trivial_character,
)
from covmod.groups import generating_set

F = Fraction


def test_z4_enumeration_oracle(z4):
    chars = enumerate_characters(z4)
    assert len(chars) == 4
    assert chars[0].is_trivial
    assert chars[1].phases == (F(0), F(1, 4), F(1, 2), F(3, 4))
    assert chars[1].value(3) == -1j
    assert chars[2].value(1) == -1 + 0j


def test_value_rejects_non_member(z4_evens):
    char = enumerate_characters(z4_evens)[1]
    assert char.value(2) == char.value(np.intp(2)) == -1 + 0j
    with pytest.raises(DomainMismatchError):
        char.value(1)


@pytest.mark.parametrize("s", [False, 2.0, -2, 4], ids=["bool", "float", "negative", "past-the-end"])
def test_value_refuses_what_is_not_an_element_index(z4_evens, s):
    # False and 2.0 answered as if given 0 and 2
    char = enumerate_characters(z4_evens)[1]
    with pytest.raises(DomainMismatchError, match=re.escape(f"element {s!r} is not an element index of 0..3")):
        char.value(s)


def test_enumeration_is_lexicographic(z4):
    chars = enumerate_characters(z4)
    vectors = [c.phases for c in chars]
    assert vectors == sorted(vectors)


def test_klein_four_has_four_characters():
    g = make_product(make_cyclic(2), make_cyclic(2))
    assert len(enumerate_characters(g)) == 4


def test_s3_has_two_characters(s3):
    # the abelianization of the full permutation group on 3 points is Z_2
    assert len(enumerate_characters(s3)) == 2


def test_a3_has_three_characters(s3, a3):
    chars = enumerate_characters(a3)
    assert len(chars) == 3
    for c in chars:
        assert c.value(0) == 1 + 0j


def test_make_character_rejects_non_homomorphism(z4):
    with pytest.raises(ValidationError):
        make_character(full_subgroup(z4), [F(0), F(1, 2), F(1, 2), F(0)])


def test_make_character_rejects_wrong_order_phase(z4, z4_evens):
    # element 2 squares to the identity, so its phase must be a half-integer
    with pytest.raises(ValidationError):
        make_character(z4_evens, [F(0), F(1, 3)])


@pytest.mark.parametrize("phase", [F(1, 3), F(1, 2**70)])
def test_make_character_names_the_pair_where_an_order_is_broken(phase):
    # 1 + 1 = 0 in Z2, so phase(1) must be a half-integer; the law check says where
    with pytest.raises(ValidationError, match=r"pair \(1, 1\)"):
        make_character(make_cyclic(2), [F(0), phase])


def test_make_character_rejects_length_mismatch(z4, z4_evens):
    with pytest.raises(ValidationError):
        make_character(z4_evens, [F(0)])


@pytest.mark.parametrize(
    "entry",
    [math.nan, math.inf, -math.inf, None, 1 + 0j, [1], True, "1/2"],
    ids=["nan", "inf", "-inf", "None", "complex", "list", "bool", "str"],
)
def test_both_constructors_refuse_a_malformed_phase_by_index(entry):
    z2 = full_subgroup(make_cyclic(2))
    for construct in (make_character, characters.Character):
        with pytest.raises(ValidationError) as err:
            construct(z2, [0, entry])
        assert str(err.value) == (
            f"phase 1 must be a rational number or a finite float, got {entry!r}"
        )


def test_phases_may_be_ints_rationals_or_finite_floats():
    z2 = full_subgroup(make_cyclic(2))
    want = make_character(z2, [F(0), F(1, 2)])
    for phases in ([0, 0.5], [np.int64(2), np.float64(-0.5)], [F(3), F(5, 2)]):
        assert make_character(z2, phases) == want == characters.Character(z2, phases)


def test_orthogonality_certificate_exact():
    z6 = make_cyclic(6)
    chars = enumerate_characters(z6)
    for i, a in enumerate(chars):
        for j, b in enumerate(chars):
            got = char_inner(a, b)
            assert isinstance(got, int)
            assert got == (6 if i == j else 0)


def test_char_inner_rejects_different_domains(z4, z4_evens):
    a = trivial_character(full_subgroup(z4))
    b = trivial_character(z4_evens)
    with pytest.raises(DomainMismatchError):
        char_inner(a, b)


def test_char_algebra(z4):
    chars = enumerate_characters(z4)
    c = chars[1]
    assert char_mul(c, char_conj(c)).is_trivial
    assert char_mul(c, c).phases == chars[2].phases


def test_pullback_by_group_automorphism(z4):
    chars = enumerate_characters(z4)
    inv_map = [z4.inv[x] for x in range(4)]
    moved = pullback(chars[1], inv_map)
    assert moved.phases == chars[3].phases


def test_pullback_rejects_non_bijection(z4):
    with pytest.raises(ValidationError):
        pullback(enumerate_characters(z4)[1], [0, 0, 2, 3])


def test_pullback_witness_does_not_depend_on_block_size():
    # swapping 4 and 5 keeps row 0 and 1*0 .. 1*2; 1*3 = 4 is sent to 5, not 1 + 3
    char = enumerate_characters(make_cyclic(6))[1]
    with pytest.raises(ValidationError) as err:
        pullback(char, [0, 1, 2, 3, 5, 4])
    assert str(err.value) == "map is not multiplicative at pair (1, 3)"


def test_pullback_check_memory_is_linear():
    # checking all 2**24 pairs at once peaked at 321 MB (tracemalloc)
    z = make_cyclic(4096)
    char = characters.Character(full_subgroup(z), tuple(F(j, 4096) for j in range(4096)))
    tracemalloc.start()
    try:
        moved = pullback(char, range(4096))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert moved.phases == char.phases
    assert peak < 16 * 2**20


@pytest.mark.parametrize(
    "theta, member",
    [([0, 1], 2), ([0, 1.9, 2, 3], 1), ([0, True, 2, 3], 1), ([0, "a", 2, 3], 1)],
    ids=["short", "float", "bool", "string"],
)
def test_pullback_names_the_member_without_an_index_image(z4, theta, member):
    with pytest.raises(ValidationError, match=rf"member {member}\b"):
        pullback(enumerate_characters(z4)[1], theta)


def test_heisenberg_action_shifts_fiber_characters():
    sd = heisenberg_finite(3)
    m = 3
    k_full = full_subgroup(sd.k)
    for z in range(m):
        for nu in range(m):
            phases = [F(z * y + nu * s, m) % 1 for y in range(m) for s in range(m)]
            char = make_character(k_full, phases)
            for x in range(m):
                moved = pullback(char, sd.action[x])
                want = [
                    F(((z + nu * x) % m) * y + nu * s, m) % 1
                    for y in range(m)
                    for s in range(m)
                ]
                assert list(moved.phases) == want


def test_homomorphism_witness_does_not_depend_on_block_size():
    # phase(1) + phase(4) = 5/6, but 1 + 4 = 5 carries phase 1/6
    z6 = make_cyclic(6)
    phases = [0, F(1, 6), F(1, 3), F(1, 2), F(2, 3), F(1, 6)]
    with pytest.raises(ValidationError, match=r"pair \(1, 4\)"):
        make_character(z6, phases)


def test_a_solution_of_the_relations_that_fails_an_edge_is_dropped():
    # S3's walk takes two transpositions, each of order 2 over the span before
    # it; the relations allow phase 0 or 1/2 on each, but only equal phases
    # give the trivial and the sign character
    sub = full_subgroup(symmetric_3())
    gens, words, relations, _ = sub.walk
    candidates = characters._solutions(relations, 6)
    assert candidates.tolist() == [[0, 0], [0, 3], [3, 0], [3, 3]]
    for p in ([0, 3], [3, 0]):
        phases = [F(int(j), 6) for j in np.array(p) @ words.T % 6]
        with pytest.raises(ValidationError, match="homomorphism law fails"):
            make_character(sub, phases)
    sign = (0, 1, 1, 0, 0, 1)
    assert [c.phases for c in enumerate_characters(sub)] == [(0,) * 6, tuple(F(s, 2) for s in sign)]


def test_enumeration_rejects_assignments_on_a_nonabelian_group():
    # Three generators of order 3 give 27 assignments; only the 9 that factor
    # through the abelianization Z3 x Z3 are homomorphisms.
    g = heisenberg_finite(3).product
    chars = enumerate_characters(g)
    assert len(chars) == 9
    phases = [c.phases for c in chars]
    assert all(a < b for a, b in zip(phases, phases[1:]))
    for c in chars:
        assert make_character(g, c.phases) == c


def test_enumeration_tries_only_solutions_of_the_relations(monkeypatch):
    # Z2 x Z64 with (1,1) at index 1 and (0,1) at 2: greedy generators [1, 2]
    # of order 64 each, whose 4096 phase assignments hold 128 characters
    z2z64 = make_product(make_cyclic(2), make_cyclic(64))
    order = [0, 65, 1] + [x for x in range(128) if x not in (0, 65, 1)]
    g = make_from_table(np.argsort(order)[z2z64.table[np.ix_(order, order)]].tolist())
    assert generating_set(g, range(g.order))[0] == [1, 2]
    tried, solve = [], characters._solutions

    def counted(*args):
        out = solve(*args)
        tried.append(len(out))
        return out

    monkeypatch.setattr(characters, "_solutions", counted)
    chars = enumerate_characters(g)
    assert tried == [g.order]
    # the dual of Z2 x Z64 written out: (a, b) -> e(x a / 2 + y b / 64)
    dual = sorted(
        tuple((F(x * (e // 64), 2) + F(y * (e % 64), 64)) % 1 for e in order)
        for x in range(2)
        for y in range(64)
    )
    assert [c.phases for c in chars] == dual


def test_enumeration_limit_guard():
    with pytest.raises(ResourceError):
        enumerate_characters(make_cyclic(1025))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=1, max_value=12))
def test_cyclic_character_count_and_law(n):
    g = make_cyclic(n)
    chars = enumerate_characters(g)
    assert len(chars) == n
    for c in chars:
        for s in range(n):
            for t in range(n):
                assert (
                    c.phases[g.mul[s][t]] == (c.phases[s] + c.phases[t]) % 1
                )
