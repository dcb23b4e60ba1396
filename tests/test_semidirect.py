import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from covmod import (
    DiscretizationError,
    DomainMismatchError,
    NormalityError,
    ValidationError,
    conv_fast_full_k,
    conv_fast_wh_center,
    conv_fast_wh_full,
    delta_factor,
    delta_function,
    enumerate_characters,
    from_section,
    full_module_action,
    full_subgroup,
    group_center,
    heisenberg_finite,
    induced_semidirect,
    lift_character,
    lift_subgroup,
    make_character,
    make_cyclic,
    make_from_table,
    make_subgroup,
    module_action,
    quotient,
    random_function,
    section_residual,
    semidirect,
    symmetric_3,
    t_xi,
    trivial_character,
    weyl_heisenberg_finite,
)
from covmod.jsonio import group_from_text, group_text
from covmod.semidirect import _shear_action, _shear_numerators, _wh_parameters

F = Fraction


@pytest.fixture(scope="module")
def flip():
    # the symmetric group on 3 points as Z_2 acting on Z_3 by inversion
    return semidirect(make_cyclic(2), make_cyclic(3), ((0, 1, 2), (0, 2, 1)))


def test_heisenberg_packing_oracle():
    sd = heisenberg_finite(2)
    assert sd.product.order == 8
    assert sd.pair_index(1, 1 * 2 + 0) == 6
    assert sd.split_index(6) == (1, 2)
    # (1,1,0) squared is (0,0,1): the shear leaves a central residue
    assert sd.product.mul[6][6] == 1


def test_heisenberg_center():
    for m in (2, 3):
        sd = heisenberg_finite(m)
        assert group_center(sd.product).members == tuple(range(m))


def test_wh_action_oracle():
    sd = weyl_heisenberg_finite(2, 4)
    # theta_1(l, t) = (l, t + 2 l)
    assert sd.action[1][1 * 4 + 0] == 1 * 4 + 2
    assert sd.action[1][0 * 4 + 3] == 0 * 4 + 3


def test_product_split_is_the_semidirect_group():
    sd = weyl_heisenberg_finite(2, 4)
    assert sd.product.split is sd
    assert sd.action.dtype == np.int32 and sd.action.shape == (2, 8)
    with pytest.raises(ValueError):
        sd.action[1, 0] = 1
    # a table document carries the table alone: the group read back has no split
    back = group_from_text(group_text(sd.product))
    assert back == sd.product and back.split is None


def test_wh_square_case_is_heisenberg():
    assert weyl_heisenberg_finite(2, 2).product.mul == heisenberg_finite(2).product.mul
    assert weyl_heisenberg_finite(3, 3).product.mul == heisenberg_finite(3).product.mul


def test_wh_requires_divisibility():
    with pytest.raises(DiscretizationError):
        weyl_heisenberg_finite(2, 3)
    assert weyl_heisenberg_finite(3, 6).product.order == 54


SHEAR_SIZES = [(1, 1), (2, 2), (2, 4), (4, 4), (3, 9), (4, 8)]


@pytest.mark.parametrize("m, r", SHEAR_SIZES)
def test_the_recognizer_accepts_every_shear_group(m, r):
    assert _wh_parameters(weyl_heisenberg_finite(m, r)) == (m, r)
    # every (y, n) character's integer numerators against the Fraction formula
    for y in range(m):
        for n in range(r):
            want = [(F(y * l, m) + F(n * t, r)) % 1 for l in range(m) for t in range(r)]
            assert [F(v, m * r) for v in _shear_numerators(m, r, y, n).tolist()] == want


def _relabelled_k(m, r, swap=(1, 2)):
    """WH(m, r) with the two K elements of `swap` exchanged, by default (0, 1)
    and (0, 2): the same group under other indices."""
    sd = weyl_heisenberg_finite(m, r)
    p = np.arange(m * r)
    p[list(swap)] = swap[::-1]               # an involution, its own inverse
    k = make_from_table(p[sd.k.table[np.ix_(p, p)]].tolist())
    return semidirect(sd.h, k, p[sd.action[:, p]].tolist())


@pytest.mark.parametrize(
    "build, message",
    [
        # Z2 x Z4 with the trivial action: (1, 0) is not sheared
        (
            lambda: semidirect(make_cyclic(2), weyl_heisenberg_finite(2, 4).k, [list(range(8))] * 2),
            "the action differs from the shear group's at entry (1, 4): 4 where 6 is expected",
        ),
        (lambda: _relabelled_k(2, 4), "K differs from the shear group's at entry (1, 1): 0 where 2 is expected"),
        # (1, 2) and (1, 3), elements 10 and 11, swapped: the first entry that
        # differs, (1, 9), lies in neither edge column, 1 or 8, and is named
        (
            lambda: _relabelled_k(4, 8, (10, 11)),
            "K differs from the shear group's at entry (1, 9): 11 where 10 is expected",
        ),
        # S3 as Z2 acting on Z3 by inversion
        (
            lambda: semidirect(make_cyclic(2), make_cyclic(3), ((0, 1, 2), (0, 2, 1))),
            "K does not factor as Z_m x Z_r",
        ),
    ],
)
def test_the_recognizer_names_the_part_that_differs(build, message):
    sd = build()
    with pytest.raises(DomainMismatchError, match=re.escape(message)):
        _wh_parameters(sd)
    with pytest.raises(DomainMismatchError, match=re.escape(message)):
        sd.shear_parameters


def test_the_recognizer_reads_k_on_generator_edges_only():
    # against a second Z_64 x Z_64 table and its mask, one call peaked at
    # 82.4 MiB traced; the edges x -> x 1 and x -> x 64 are 2 |K| entries, and
    # the action's (64, 4096) comparison is what remains
    sd = weyl_heisenberg_finite(64, 64)
    assert _wh_parameters(sd) == (64, 64)
    tracemalloc.start()
    try:
        assert _wh_parameters(sd) == (64, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"a second call peaked at {peak / 2**20:.1f} MiB"


def test_central_quotient_of_heis2_is_klein_four():
    sd = heisenberg_finite(2)
    center = make_subgroup(sd.product, range(2))
    q = quotient(sd.product, center)
    assert q.order == 4
    assert all(q.table.element_order(x) <= 2 for x in range(4))


def test_semidirect_rejects_non_bijective_row():
    with pytest.raises(ValidationError):
        semidirect(make_cyclic(2), make_cyclic(3), ((0, 1, 2), (0, 0, 2)))


@pytest.mark.parametrize(
    "action, where",
    [
        (((0, 1, 2), (0, 2.9, 1)), "entry (1,1)"),
        (((0, 1, 2), (0, "2", 1)), "entry (1,1)"),
        (((0, 1, 2), (True, 2, 1)), "entry (1,0)"),
        (((0, 1, 2), 5), "row 1"),
    ],
)
def test_semidirect_names_malformed_action_entries(action, where):
    with pytest.raises(ValidationError, match=re.escape(where)):
        semidirect(make_cyclic(2), make_cyclic(3), action)


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint16, np.uint64])
def test_semidirect_takes_an_integer_array_as_its_rows(dtype):
    m, r = 4, 8
    rows = _shear_action(m, r)
    from_array = semidirect(make_cyclic(m), weyl_heisenberg_finite(m, r).k, rows.astype(dtype))
    from_lists = semidirect(make_cyclic(m), weyl_heisenberg_finite(m, r).k, rows.tolist())
    assert from_array.action.dtype == from_lists.action.dtype == np.int32
    assert np.array_equal(from_array.action, from_lists.action)
    assert not from_array.action.flags.writeable
    assert from_array.product == from_lists.product


def test_semidirect_copies_the_array_it_is_given():
    rows = np.array([[0, 1, 2], [0, 2, 1]], dtype=np.int32)
    sd = semidirect(make_cyclic(2), make_cyclic(3), rows)
    rows[1] = [0, 1, 2]
    assert sd.action.tolist() == [[0, 1, 2], [0, 2, 1]] and rows.flags.writeable


@pytest.mark.parametrize("dtype", [bool, float, complex, object])
def test_semidirect_refuses_an_array_of_other_entries(dtype):
    rows = np.array([[0, 1], [0, 1]]).astype(dtype)
    with pytest.raises(ValidationError, match="an action array must have integer entries"):
        semidirect(make_cyclic(2), make_cyclic(2), rows)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[0, 1, 2], [0, 0, 2]], "action row 1 is not a bijection of K"),
        ([[0, 1, 2], [0, 3, 1]], "action entry (1,1) = 3 is not an element of 0..2"),
        ([[0, 1, 2], [-1, 2, 1]], "action entry (1,0) = -1 is not an element of 0..2"),
        ([[0, 1, 2, 0], [0, 2, 1, 0]], "action row 0 has length 4, expected 3"),
        ([[0, 1, 2]], "action has 1 rows for |H| = 2"),
        ([0, 1, 2], "action has 3 rows for |H| = 2"),
        (7, "the action must be a list of rows"),
        ([[0, 1, 2], [0, 1, 2]], None),
    ],
)
def test_a_malformed_array_is_named_as_its_rows_are(rows, message):
    def refusal(action):
        try:
            semidirect(make_cyclic(2), make_cyclic(3), action)
        except ValidationError as exc:
            return str(exc)
        return None

    assert refusal(rows) == refusal(np.array(rows)) == message


def test_semidirect_rejects_non_multiplicative_row():
    # a bijection fixing the identity that is not an automorphism of Z_4
    with pytest.raises(ValidationError):
        semidirect(make_cyclic(2), make_cyclic(4), ((0, 1, 2, 3), (0, 1, 3, 2)))


def test_semidirect_rejects_non_composing_action():
    inv3 = (0, 2, 1)
    ident = (0, 1, 2)
    with pytest.raises(ValidationError):
        semidirect(make_cyclic(4), make_cyclic(3), (ident, inv3, inv3, inv3))


def test_flip_group_is_symmetric_3(flip, s3):
    orders = sorted(flip.product.element_order(x) for x in range(6))
    assert orders == sorted(s3.element_order(x) for x in range(6))
    assert not flip.product.is_abelian


def test_delta_factor_is_one(flip):
    sub = full_subgroup(flip.k)
    assert [delta_factor(flip, sub, h) for h in range(2)] == [1.0, 1.0]


def test_delta_factor_rejects_non_invariant():
    sd = weyl_heisenberg_finite(2, 4)
    # {(0,0), (1,0)} is a subgroup of K but the shear moves (1,0) to (1,2)
    sub = make_subgroup(sd.k, (0, 4))
    with pytest.raises(NormalityError, match="row 1 moves 4 to 6$"):
        delta_factor(sd, sub, 1)


def test_lift_subgroup_and_character(flip):
    sub = full_subgroup(flip.k)
    lifted = lift_subgroup(flip, sub)
    assert lifted.members == (0, 1, 2)
    char = enumerate_characters(sub)[1]
    up = lift_character(flip, char)
    assert up.domain.members == (0, 1, 2)
    assert up.phases == char.phases


def test_induced_semidirect_matches_quotient():
    sd = heisenberg_finite(3)
    center_k = make_subgroup(sd.k, range(3))
    lifted = lift_subgroup(sd, center_k)
    q = quotient(sd.product, lifted)
    induced = induced_semidirect(sd, center_k)
    assert q.table.mul == induced.product.mul
    q_full = full_subgroup(induced.k)
    assert [delta_factor(induced, q_full, h) for h in range(3)] == [1.0, 1.0, 1.0]


def test_fast_center_kernel_concrete():
    sd = weyl_heisenberg_finite(2, 4)
    center = make_subgroup(sd.product, range(4))
    q = quotient(sd.product, center)
    char = make_character(center, [F(0), F(1, 4), F(1, 2), F(3, 4)])
    rng = random.Random("fastc")
    for _ in range(10):
        f = random_function(sd.product, rng)
        psi = t_xi(random_function(sd.product, rng), char, quot=q)
        fast = conv_fast_wh_center(sd, f, psi, 1)
        slow = module_action(f, psi)
        assert section_residual(fast, slow) <= 1e-12


def test_fast_center_rejects_wrong_index():
    sd = weyl_heisenberg_finite(2, 4)
    center = make_subgroup(sd.product, range(4))
    q = quotient(sd.product, center)
    char = make_character(center, [F(0), F(1, 4), F(1, 2), F(3, 4)])
    psi = from_section((0j,) * q.order, char, q)
    f = delta_function(sd.product, 0)
    with pytest.raises(DomainMismatchError):
        conv_fast_wh_center(sd, f, psi, 3)


def test_fast_center_rejects_non_central_covariance(flip):
    sub = full_subgroup(flip.k)
    lifted = lift_subgroup(flip, sub)
    q = quotient(flip.product, lifted)
    psi = from_section((0j,) * q.order, trivial_character(lifted), q)
    f = delta_function(flip.product, 0)
    with pytest.raises(DomainMismatchError):
        conv_fast_wh_center(flip, f, psi, 0)


def test_fast_full_fiber_on_flip_group(flip):
    sub = full_subgroup(flip.k)
    lifted = lift_subgroup(flip, sub)
    q = quotient(flip.product, lifted)
    rng = random.Random("fastk")
    for char in enumerate_characters(lifted):
        for _ in range(10):
            f = random_function(flip.product, rng)
            psi = t_xi(random_function(flip.product, rng), char, quot=q)
            fast = conv_fast_full_k(flip, f, psi)
            slow = module_action(f, psi)
            assert section_residual(fast, slow) <= 1e-12


def test_fast_full_fiber_with_identities_off_zero():
    # the flip group again, with both identities at index 1, so that the
    # anchor and output tables of conv_fast_full_k are not all zero
    h = make_from_table([[1, 0], [0, 1]])
    k = make_from_table([[2, 0, 1], [0, 1, 2], [1, 2, 0]])
    sd = semidirect(h, k, ((2, 1, 0), (0, 1, 2)))
    lifted = lift_subgroup(sd, full_subgroup(sd.k))
    q = quotient(sd.product, lifted)
    rng = random.Random("moved")
    for char in enumerate_characters(lifted):
        for _ in range(10):
            f = random_function(sd.product, rng)
            psi = from_section(random_function(q.table, rng).values, char, q)
            assert section_residual(conv_fast_full_k(sd, f, psi), module_action(f, psi)) <= 1e-12


def test_fast_full_fiber_with_a_non_abelian_k():
    # Z2 acting on S3 by conjugation with the transposition (01): K has no
    # fiber route, so the entry point falls back to the table route
    s3 = symmetric_3()
    t = s3.labels.index("102")
    conj = [int(s3.table[s3.table[t, x], t]) for x in range(6)]
    sd = semidirect(make_cyclic(2), s3, [list(range(6)), conj])
    lifted = lift_subgroup(sd, full_subgroup(sd.k))
    q = quotient(sd.product, lifted)
    assert q.fiber_action is None
    rng = random.Random("non-abelian K")
    for char in enumerate_characters(lifted):
        for _ in range(5):
            f = random_function(sd.product, rng)
            psi = from_section(random_function(q.table, rng).values, char, q)
            want = full_module_action(f, psi).values[list(q.reps)]
            assert np.abs(conv_fast_full_k(sd, f, psi).section - want).max() <= 1e-12


def test_fast_wh_full_fiber_kernel():
    sd = weyl_heisenberg_finite(2, 4)
    lifted = lift_subgroup(sd, full_subgroup(sd.k))
    q = quotient(sd.product, lifted)
    y, n = 1, 3
    phases = [
        (F(y * ell, 2) + F(n * t, 4)) % 1 for ell in range(2) for t in range(4)
    ]
    char = make_character(lifted, phases)
    rng = random.Random("fastw")
    for _ in range(10):
        f = random_function(sd.product, rng)
        psi = t_xi(random_function(sd.product, rng), char, quot=q)
        fast = conv_fast_wh_full(sd, f, psi, y, n)
        slow = module_action(f, psi)
        assert section_residual(fast, slow) <= 1e-12
    with pytest.raises(DomainMismatchError):
        conv_fast_wh_full(sd, delta_function(sd.product, 0), psi, y, n - 1)


def test_semidirect_labels():
    sd = semidirect(make_cyclic(2), make_cyclic(3), ((0, 1, 2), (0, 2, 1)))
    assert sd.product.label(sd.pair_index(1, 2)) is not None


def _covariant(sd, members, index=0):
    """A zero section covariant for the index-th character of the normal
    subgroup `members` of the product."""
    normal = make_subgroup(sd.product, members)
    quot = quotient(sd.product, normal)
    return from_section((0j,) * quot.order, enumerate_characters(normal)[index], quot)


# each entry point on WH(2,4), packed (x, l, t) = 8 x + 4 l + t: the call for
# character index 0, its covariance subgroup, and a normal subgroup of the
# same order with other members, {(x, 0, t)} and {(x, 0, 2s)}
ENTRY_POINTS = {
    "full_k": (lambda sd, f, psi: conv_fast_full_k(sd, f, psi), range(8), [0, 1, 2, 3, 8, 9, 10, 11]),
    "wh_center": (lambda sd, f, psi: conv_fast_wh_center(sd, f, psi, 0), range(4), [0, 2, 8, 10]),
    "wh_full": (lambda sd, f, psi: conv_fast_wh_full(sd, f, psi, 0, 0), range(8), [0, 1, 2, 3, 8, 9, 10, 11]),
}


def _psi_on_another_group(sd, fiber, other):
    return sd, delta_function(sd.product, 0), _covariant(weyl_heisenberg_finite(2, 4), fiber)


def _f_on_another_group(sd, fiber, other):
    return sd, delta_function(weyl_heisenberg_finite(2, 4).product, 0), _covariant(sd, fiber)


def _other_members(sd, fiber, other):
    return sd, delta_function(sd.product, 0), _covariant(sd, other)


def _wrong_index(sd, fiber, other):
    return sd, delta_function(sd.product, 0), _covariant(sd, fiber, 1)


def _not_a_shear_group(sd, fiber, other):
    flip = semidirect(make_cyclic(2), make_cyclic(3), ((0, 1, 2), (0, 2, 1)))
    return flip, delta_function(flip.product, 0), _covariant(flip, range(3))


@pytest.mark.parametrize(
    "entry, refused",
    [
        *((name, case) for name in ENTRY_POINTS for case in (_psi_on_another_group, _f_on_another_group, _other_members)),
        *((name, case) for name in ("wh_center", "wh_full") for case in (_wrong_index, _not_a_shear_group)),
    ],
)
def test_entry_points_refuse_what_they_do_not_serve(entry, refused):
    call, fiber, other = ENTRY_POINTS[entry]
    sd = weyl_heisenberg_finite(2, 4)
    call(sd, delta_function(sd.product, 0), _covariant(sd, fiber))   # the inputs it serves
    inputs = refused(sd, fiber, other)
    with pytest.raises(DomainMismatchError):
        call(*inputs)
