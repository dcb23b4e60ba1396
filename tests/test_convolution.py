import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covmod import (
    DomainMismatchError,
    GroupFunction,
    convolve,
    counting_measure,
    covariance_residual,
    delta_function,
    enumerate_characters,
    from_section,
    full_module_action,
    group_center,
    heisenberg_finite,
    lift_subgroup,
    make_cyclic,
    make_from_table,
    make_product,
    make_subgroup,
    module_action,
    project_trivial,
    quotient,
    quotient_convolve,
    random_function,
    section_residual,
    semidirect,
    symmetric_3,
    t_xi,
    trivial_character,
    verify_module_axioms,
    weyl_heisenberg_finite,
)
from covmod.convolution import _convolve_at, _module_action
from covmod.covariant import _on_group
from covmod.groups import _draws, generating_set
from covmod.jsonio import group_from_json, group_to_json
from covmod.verify import builtin_corpus


def _max_gap(a: GroupFunction, b: GroupFunction) -> float:
    return max(abs(x - y) for x, y in zip(a.values, b.values, strict=True))


def test_delta_convolution_follows_table(z4, s3):
    assert convolve(delta_function(z4, 1), delta_function(z4, 1)).values.tolist() == [
        0j,
        0j,
        1 + 0j,
        0j,
    ]
    # nonabelian order: the left factor acts first
    out = convolve(delta_function(s3, 2), delta_function(s3, 1))
    assert out.values.tolist().index(1 + 0j) == s3.mul[2][1] == 3
    out = convolve(delta_function(s3, 1), delta_function(s3, 2))
    assert out.values.tolist().index(1 + 0j) == s3.mul[1][2] == 4


def test_identity_delta_is_neutral(s3):
    f = random_function(s3, random.Random("neutral"))
    assert convolve(delta_function(s3, 0), f).values.tolist() == f.values.tolist()


def test_convolve_rejects_group_mismatch(z4, s3):
    with pytest.raises(DomainMismatchError):
        convolve(delta_function(z4, 0), delta_function(s3, 0))


def test_explicit_weights_scale_linearly(z4):
    rng = random.Random("w")
    f, g = random_function(z4, rng), random_function(z4, rng)
    plain = convolve(f, g)
    halved = convolve(f, g, measure=(0.5,) * 4)
    assert all(h == 0.5 * p for h, p in zip(halved.values, plain.values))


def test_module_action_matches_blind_route(s3, a3):
    rng = random.Random("agree")
    q = quotient(s3, a3)
    for char in enumerate_characters(a3):
        for _ in range(10):
            f = random_function(s3, rng)
            psi = t_xi(random_function(s3, rng), char, quot=q)
            blind = full_module_action(f, psi)
            direct = module_action(f, psi)
            assert covariance_residual(blind, char) <= 1e-12
            for i, r in enumerate(q.reps):
                assert abs(blind.values[r] - direct.section[i]) <= 1e-12


def test_trivial_character_descends_to_quotient(z4, z4_evens, z4_quot):
    rng = random.Random("descend")
    triv = trivial_character(z4_evens)
    f = random_function(z4, rng)
    psi = from_section(
        [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)], triv, z4_quot
    )
    lhs = project_trivial(module_action(f, psi))
    rhs = quotient_convolve(
        project_trivial(t_xi(f, triv, quot=z4_quot)), project_trivial(psi)
    )
    assert _max_gap(lhs, rhs) <= 1e-12


def test_verify_module_axioms_report(z4_quot, z4_evens):
    char = enumerate_characters(z4_evens)[1]
    report = verify_module_axioms(z4_quot, char, trials=10, seed=7)
    assert report["passed"]
    # The norm bound and the t_xi intertwining law have standalone checks in
    # covmod.verify (check_norm_bound, check_txi_homomorphism).
    assert set(report["laws"]) == {"associativity", "bilinearity", "output_covariance"}
    assert all(v <= report["tol"] for v in report["laws"].values())


def test_verify_module_axioms_zero_trials(z4_quot, z4_evens):
    char = trivial_character(z4_evens)
    report = verify_module_axioms(z4_quot, char, trials=0)
    assert report["passed"]


def test_section_residual_requires_same_shape(z4_quot, z4_evens):
    chars = enumerate_characters(z4_evens)
    a = from_section((1 + 0j, 0j), chars[0], z4_quot)
    b = from_section((1 + 0j, 0j), chars[1], z4_quot)
    with pytest.raises(DomainMismatchError):
        section_residual(a, b)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
def test_convolution_is_associative(n, data):
    g = make_cyclic(n)
    ints = st.integers(min_value=-3, max_value=3)
    fs = []
    for _ in range(3):
        values = data.draw(
            st.lists(ints, min_size=n, max_size=n).map(
                lambda vs: tuple(complex(v) for v in vs)
            )
        )
        fs.append(GroupFunction(g, values))
    f, h, k = fs
    left = convolve(convolve(f, h), k)
    right = convolve(f, convolve(h, k))
    assert _max_gap(left, right) <= 1e-9


def test_quotient_convolve_uses_measure(z4_quot):
    phi = GroupFunction(z4_quot.table, (1 + 0j, 2 + 0j))
    psi = GroupFunction(z4_quot.table, (1j, 0j))
    plain = quotient_convolve(phi, psi)
    weighted = quotient_convolve(phi, psi, measure=counting_measure(z4_quot))
    assert plain.values.tolist() == weighted.values.tolist()


def _wh22_center():
    g = weyl_heisenberg_finite(2, 2).product
    return g, group_center(g)


@pytest.mark.parametrize("name", ["S3/A3", "WH(2,2)/center"])
def test_kernels_match_defining_sums(name, s3, a3):
    g, normal = (s3, a3) if name == "S3/A3" else _wh22_center()
    quot = quotient(g, normal)
    mul, inv, n = g.mul, g.inv, g.order
    rng = random.Random(name)
    f, h = random_function(g, rng), random_function(g, rng)

    # (f * h)(x) = sum over y of f(y) h(y^-1 x)
    want = [sum(f.values[y] * h.values[mul[inv[y]][x]] for y in range(n)) for x in range(n)]
    assert max(abs(a - b) for a, b in zip(convolve(f, h).values, want)) <= 1e-12

    for char in enumerate_characters(normal):
        # t_xi(h)(r) = sum over s in N of h(r s) conj(xi(s))
        psi = t_xi(h, char, quot=quot)
        want = [
            sum(h.values[mul[r][s]] * char.value(s).conjugate() for s in normal.members)
            for r in quot.reps
        ]
        assert max(abs(a - b) for a, b in zip(psi.section, want)) <= 1e-12
        full = psi.full().values
        assert max(abs(full[x] - psi.value_at(x)) for x in range(n)) <= 1e-12

        # (f * psi)(r) = sum over y of f(y) psi(y^-1 r)
        acted = module_action(f, psi)
        want = [
            sum(f.values[y] * psi.value_at(mul[inv[y]][r]) for y in range(n))
            for r in quot.reps
        ]
        assert max(abs(a - b) for a, b in zip(acted.section, want)) <= 1e-12


def _relabelled(group, order):
    """`group` rebuilt by `make_from_table` with order[i] as element i."""
    at = np.argsort(order)
    return make_from_table(at[group.table[np.ix_(order, order)]].tolist())


def _by_inversion(k):
    """Z2 acting on an abelian K by k -> k^-1."""
    return semidirect(make_cyclic(2), k, [list(range(k.order)), k.inv.tolist()]).product


def _fiber_route_groups():
    """Every semidirect product of the corpus, larger shear groups, the flip
    group with both identities at index 1, and K of every grid shape: trivial,
    two axes under a trivial H, three axes, axes of mixed lengths, and a K
    whose greedy generators are dependent."""
    groups = {e.name.split("/")[0]: e.group for e in builtin_corpus() if e.sd is not None}
    for m in (4, 8, 16):
        groups[f"WH({m},{m})"] = weyl_heisenberg_finite(m, m).product
    h = make_from_table([[1, 0], [0, 1]])
    k = make_from_table([[2, 0, 1], [0, 1, 2], [1, 2, 0]])
    groups["flip, identities at 1"] = semidirect(h, k, ((2, 1, 0), (0, 1, 2))).product
    groups["trivial K"] = semidirect(make_cyclic(3), make_cyclic(1), [[0]] * 3).product
    z2 = make_cyclic(2)
    z3z2 = make_product(make_cyclic(3), z2)   # its grid Z2 x Z3 lists K in another order
    groups["trivial H"] = semidirect(make_cyclic(1), z3z2, [list(range(6))]).product
    # Z3 cycling the coordinates (a, b, c) of Z2^3, packed as 4a + 2b + c
    cube = make_product(make_product(z2, z2), z2)
    shift = [4 * (x & 1) + (x >> 1) for x in range(8)]
    groups["Z3 on Z2^3"] = semidirect(
        make_cyclic(3), cube, [list(range(8)), shift, [shift[x] for x in shift]]
    ).product
    groups["Z2 on Z6 x Z3"] = _by_inversion(make_product(make_cyclic(6), make_cyclic(3)))
    # Z2 x Z4 with (1,1) at index 1 and (0,1) at 2: greedy generators [1, 2]
    # of orders [4, 4] span a grid of 16 points over 8 elements
    z2z4 = _relabelled(make_product(z2, make_cyclic(4)), [0, 5, 1, 2, 3, 4, 6, 7])
    assert generating_set(z2z4, range(8))[0] == [1, 2]
    groups["Z2 on Z2 x Z4, dependent generators"] = _by_inversion(z2z4)
    return groups


def _assert_fiber_route_matches(name, g, rng, weighted):
    f, h = random_function(g, rng), random_function(g, rng)
    w = [rng.uniform(0.25, 4.0) for _ in range(g.order)] if weighted else None
    wf = f.values if w is None else np.array(w) * f.values
    want = _convolve_at(g, wf, h.values, range(g.order))
    got = convolve(f, h, measure=w).values
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name
    assert "dual_grid" in g.split.__dict__, name   # the route ran


@pytest.mark.parametrize("weighted", [False, True])
def test_fiber_route_matches_the_table_route(weighted):
    rng = random.Random(f"fiber-route:{weighted}")
    for name, g in _fiber_route_groups().items():
        _assert_fiber_route_matches(name, g, rng, weighted)


def test_fiber_route_at_order_32768_runs_in_linear_memory():
    # WH(32,32), whose dense table would be 4 GiB: the fiber sum holds O(|H| |K|),
    # and the oracle is t_xi(f * h) = f . t_xi(h) on the center
    sd = weyl_heisenberg_finite(32, 32)
    g = sd.product
    center = lift_subgroup(sd, make_subgroup(sd.k, range(32)))
    quot = quotient(g, center)
    xi = enumerate_characters(center)[1]
    rng = random.Random("order-32768")
    f, h = random_function(g, rng), random_function(g, rng)
    tracemalloc.start()
    try:
        fh = convolve(f, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak / 2**20
    want = module_action(f, t_xi(h, xi, quot=quot))
    assert section_residual(t_xi(fh, xi, quot=quot), want) <= 1e-12 * np.abs(want.section).max()
    assert "table" not in vars(g)


@settings(max_examples=25, deadline=None)
@given(
    orders=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3),
    data=st.data(),
)
def test_fiber_route_on_relabelled_products_of_cyclic_groups(orders, data):
    k = make_cyclic(1)
    for n in orders:
        k = make_product(k, make_cyclic(n))
    order = data.draw(st.permutations(range(k.order)))   # the identity can land anywhere
    g = _by_inversion(_relabelled(k, order))
    weighted = data.draw(st.booleans())
    _assert_fiber_route_matches(orders, g, random.Random(str(orders)), weighted)


@settings(max_examples=25, deadline=None)
@given(
    orders=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3),
    data=st.data(),
)
def test_module_action_route_on_relabelled_products_of_cyclic_groups(orders, data):
    k = make_cyclic(1)
    for n in orders:
        k = make_product(k, make_cyclic(n))
    k = _relabelled(k, data.draw(st.permutations(range(k.order))))
    g = _by_inversion(k)
    # inversion keeps every subgroup of K, so the one generated by x is normal
    x = data.draw(st.integers(min_value=0, max_value=k.order - 1))
    normal = make_subgroup(g, np.flatnonzero(generating_set(k, [x])[3]).tolist())
    quot = quotient(g, normal)
    char = data.draw(st.sampled_from(enumerate_characters(normal)))
    assert quot.fiber_action.tables(char) is not None
    f, s = _draws(random.Random(str(orders)), 2, g.order, quot.order)
    want = _convolve_at(g, f, _on_group(s, char, quot), quot.reps)
    assert np.abs(_module_action(f, s, char, quot) - want).max() <= 1e-12 * np.abs(want).max()


def test_groups_without_an_abelian_fiber_keep_the_table_route():
    non_abelian = semidirect(make_cyclic(2), symmetric_3(), [list(range(6))] * 2).product
    from_document = group_from_json(group_to_json(weyl_heisenberg_finite(4, 4).product))
    rng = random.Random("table-route")
    for g in (non_abelian, from_document):
        f, h = random_function(g, rng), random_function(g, rng)
        want = _convolve_at(g, f.values, h.values, range(g.order))
        assert convolve(f, h).values.tobytes() == want.tobytes()
    assert "dual_grid" not in non_abelian.split.__dict__
    assert from_document.split is None


DIRECT_PRODUCTS = {
    "Z2 x Z4": lambda: make_product(make_cyclic(2), make_cyclic(4)),
    "S3 x Z3": lambda: make_product(symmetric_3(), make_cyclic(3)),
    "Z4 x S3": lambda: make_product(make_cyclic(4), symmetric_3()),
    "Heis2 x Z2": lambda: make_product(heisenberg_finite(2).product, make_cyclic(2)),
    "Z2 x Z2 x Z2": lambda: make_product(make_product(make_cyclic(2), make_cyclic(2)), make_cyclic(2)),
}


@pytest.mark.parametrize("name", DIRECT_PRODUCTS)
def test_direct_products_take_the_fiber_route_when_the_second_factor_is_abelian(name):
    g = DIRECT_PRODUCTS[name]()
    sd = g.split
    rng = random.Random(f"direct:{name}")
    f, h = random_function(g, rng), random_function(g, rng)
    want = _convolve_at(g, f.values, h.values, range(g.order))
    assert np.abs(convolve(f, h).values - want).max() <= 1e-12 * np.abs(want).max()
    assert ("dual_grid" in vars(sd)) == sd.k.is_abelian
    # the second factor, normal in the product
    normal = lift_subgroup(sd, make_subgroup(sd.k, range(sd.k.order)))
    quot = quotient(g, normal)
    for char in enumerate_characters(normal):
        route = quot.fiber_action
        assert (route is not None and route.tables(char) is not None) == sd.k.is_abelian
        psi = from_section(random_function(quot.table, rng).values, char, quot)
        want = _convolve_at(g, f.values, psi.full().values, quot.reps)
        got = module_action(f, psi).section
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), char.phases
