"""The module action's fiber-Fourier route against the table route.

On a quotient of H x| K with K abelian by an N inside K, `module_action`
works through the characters of K above xi; `_convolve_at` at the coset
representatives is the table route it must agree with, to 1e-12 relative,
over a leading trial axis of 0, 1 and 3 trials.
"""

import gc
import random
import tracemalloc
import weakref
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from covmod import (
    Character,
    ValidationError,
    conv_fast_wh_full,
    enumerate_characters,
    from_section,
    full_module_action,
    lift_subgroup,
    make_character,
    make_cyclic,
    make_from_table,
    make_product,
    make_subgroup,
    module_action,
    phase_to_complex,
    quotient,
    random_function,
    section_residual,
    semidirect,
    symmetric_3,
    t_xi,
    weil_measure,
    weyl_heisenberg_finite,
)
from covmod.convolution import _convolve_at, _module_action
from covmod.covariant import _on_group
from covmod.groups import _draws
from covmod.verify import FAST_GRID, builtin_corpus

TRIALS = (0, 1, 3)


def _s3_on_v4():
    """S3 permuting the three nonzero elements of Z2 x Z2: a non-abelian H,
    and a K on two cyclic axes."""
    v4 = make_product(make_cyclic(2), make_cyclic(2))
    perms = sorted(permutations(range(3)))
    return semidirect(symmetric_3(), v4, [[0] + [p[i] + 1 for i in range(3)] for p in perms])


def _flip_with_identities_at_1():
    h = make_from_table([[1, 0], [0, 1]])
    k = make_from_table([[2, 0, 1], [0, 1, 2], [1, 2, 0]])
    return semidirect(h, k, ((2, 1, 0), (0, 1, 2)))


def _cases():
    """(name, split product, members of N in K) for every quotient tested."""
    for entry in builtin_corpus():
        if entry.sd is not None:
            yield entry.name, entry.sd, entry.normal_in_k.members
    for m, r in FAST_GRID:
        sd = weyl_heisenberg_finite(m, r)
        yield f"WH({m},{r})/center", sd, range(r)
        yield f"WH({m},{r})/K", sd, range(m * r)
    s3v4 = _s3_on_v4()
    yield "S3 x| V4 / K", s3v4, range(4)
    yield "S3 x| V4 / e", s3v4, [0]
    wh44 = weyl_heisenberg_finite(4, 4)
    yield "WH(4,4)/e", wh44, [0]                      # |K/N| = |K|
    yield "WH(4,4)/K", wh44, range(16)                # N = K
    yield "WH(2,4)/{(0,0),(0,2)}", weyl_heisenberg_finite(2, 4), [0, 2]
    flip = _flip_with_identities_at_1()
    yield "flip, identities at 1 / K", flip, range(3)
    yield "flip, identities at 1 / e", flip, [1]
    # the swap moves a character of 2K: H-orbits of two, |K/N| = 4
    yield "swap x| Z4 x Z4 / 2K", _swap_on_z4_squared(), [0, 2, 8, 10]


def _inversion(n):
    return semidirect(make_cyclic(2), make_cyclic(n), [list(range(n)), [-k % n for k in range(n)]])


def _swap_on_z4_squared():
    z4 = make_cyclic(4)
    swap = [4 * (k % 4) + k // 4 for k in range(16)]
    return semidirect(make_cyclic(2), make_product(z4, z4), [list(range(16)), swap])


CASES = list(_cases())


def _close(got: np.ndarray, want: np.ndarray, what: str) -> None:
    assert got.shape == want.shape, what
    if want.size:
        scale = max(float(np.abs(want).max()), 1e-300)
        assert float(np.abs(got - want).max()) <= 1e-12 * scale, what


def _quotient(sd, members):
    normal = lift_subgroup(sd, make_subgroup(sd.k, list(members)))
    return normal, quotient(sd.product, normal)


@pytest.mark.parametrize("name, sd, members", CASES, ids=[c[0] for c in CASES])
def test_route_matches_the_table_route(name, sd, members):
    normal, quot = _quotient(sd, members)
    group = sd.product
    route = quot.fiber_action
    assert route is not None, name
    rng = random.Random(f"fiber-action:{name}")
    for char in enumerate_characters(normal):
        assert route.tables(char) is not None, name
        for trials in TRIALS:
            f, s = _draws(rng, trials, group.order, quot.order)
            want = _convolve_at(group, f, _on_group(s, char, quot), quot.reps)
            _close(_module_action(f, s, char, quot), want, f"{name}, {trials} trials")


@pytest.mark.parametrize("scales", [(1.0, 1.0), (2.5, 0.5)])
def test_route_under_a_measure(scales):
    sd = weyl_heisenberg_finite(2, 4)
    normal, quot = _quotient(sd, range(4))
    group = sd.product
    rng = random.Random(f"fiber-measure:{scales}")
    explicit = [rng.uniform(0.25, 4.0) for _ in range(group.order)]
    for measure in (weil_measure(group, normal, quot, *scales), explicit):
        for char in enumerate_characters(normal):
            f = random_function(group, rng)
            psi = from_section(random_function(quot.table, rng).values, char, quot)
            want = full_module_action(f, psi, measure).values[list(quot.reps)]
            _close(module_action(f, psi, measure).section, want, f"{scales}")


def test_tables_are_lazy_cached_and_freed_with_the_quotient():
    sd = weyl_heisenberg_finite(4, 4)
    normal, quot = _quotient(sd, range(4))
    chars = enumerate_characters(normal)
    assert "fiber_action" not in quot.__dict__
    assert "dual_grid" not in sd.product.split.__dict__

    rng = random.Random("fiber-cache")
    f = random_function(sd.product, rng)
    psi = from_section(random_function(quot.table, rng).values, chars[1], quot)
    first = module_action(f, psi)
    route = quot.fiber_action
    tables = route.tables(chars[1])
    second = module_action(f, psi)
    assert quot.fiber_action is route and route.tables(chars[1]) is tables
    assert all(a is b for a, b in zip(route.tables(chars[1]), tables))
    assert np.array_equal(first.section, second.section)

    # a character dropped while the quotient lives takes its tables along
    dropped = make_character(normal, chars[2].phases)
    held = weakref.ref(route.tables(dropped)[0])
    assert len(route._by_character) == 2
    del dropped
    gc.collect()
    assert held() is None and len(route._by_character) == 1

    refs = [weakref.ref(route), weakref.ref(tables[0]), weakref.ref(tables[1])]
    del quot, psi, first, second, route, tables
    gc.collect()
    assert [r() for r in refs] == [None] * 3


@pytest.mark.parametrize(
    "phases",
    [
        (0, Fraction(1, 4), 0, 0),                       # not a homomorphism
        (0, Fraction(1, 3), Fraction(2, 3), 0),          # denominators that do not divide 4
    ],
)
def test_a_non_character_takes_the_table_route(phases):
    """No route, fiber or table, is left for a non-character: `Character`
    refuses it with `make_character`'s message before any table is built."""
    sd = weyl_heisenberg_finite(2, 4)
    normal, quot = _quotient(sd, range(4))
    with pytest.raises(ValidationError) as want:
        make_character(normal, phases)
    with pytest.raises(ValidationError) as got:
        Character(normal, phases)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("homomorphism law fails at pair (")
    assert all(quot.fiber_action.tables(c) is not None for c in enumerate_characters(normal))


@pytest.mark.parametrize(
    "order, phases",
    [
        (4, (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))),
        (3, (0, Fraction(1, 3), Fraction(2, 3))),
    ],
    ids=["over |N|", "over 3"],
)
def test_a_non_character_keeps_exact_values(order, phases):
    """Phases over 3 are no longer stored over an lcm on a group of order 4:
    they are refused there, and on Z3, where they form a character, they are
    stored over |N| = 3 like every other character, with bit-exact values."""
    domain = (
        _quotient(weyl_heisenberg_finite(2, 4), range(4))[0] if order == 4 else make_cyclic(3)
    )
    char = Character(domain, phases)
    exact = np.array([phase_to_complex(Fraction(q)) for q in phases], dtype=complex)
    assert char.denominator == domain.order == order
    assert char.complex_values.tobytes() == exact.tobytes()
    assert char.phases == tuple(Fraction(q) for q in phases)
    assert char == make_character(domain, phases)


def test_k_characters_build_fractions_only_when_read():
    # the route, the averaging and the entry point's check read the integer phases
    sd = weyl_heisenberg_finite(16, 16)
    normal, quot = _quotient(sd, range(256))
    chars = enumerate_characters(normal)
    char = chars[17]
    y, n = int(char.numerators[16]) // 16, int(char.numerators[1]) // 16
    rng = random.Random("fractions")
    f, h = random_function(sd.product, rng), random_function(sd.product, rng)
    psi = t_xi(h, char, quot=quot)
    want = module_action(f, psi)
    assert section_residual(conv_fast_wh_full(sd, f, psi, y, n), want) < 1e-9
    assert [c for c in chars if "phases" in vars(c)] == []
    assert char.phases[16] == Fraction(y, 16) and char.phases[1] == Fraction(n, 16)


def test_quotients_outside_the_route_keep_the_table_route():
    z2 = make_cyclic(2)
    direct = semidirect(z2, z2, [[0, 1], [0, 1]])          # N = H x {e} is not in K
    non_abelian = semidirect(z2, symmetric_3(), [list(range(6))] * 2)
    for group, members in ((direct.product, (0, 2)), (non_abelian.product, (0, 3, 4))):
        normal = make_subgroup(group, members)
        quot = quotient(group, normal)
        assert quot.fiber_action is None
        f, s = _draws(random.Random("outside"), 2, group.order, quot.order)
        for char in enumerate_characters(normal):
            want = _convolve_at(group, f, _on_group(s, char, quot), quot.reps)
            assert np.array_equal(_module_action(f, s, char, quot), want)


def test_route_broadcasts_leading_axes():
    sd = weyl_heisenberg_finite(2, 4)
    normal, quot = _quotient(sd, range(4))
    char = enumerate_characters(normal)[1]
    assert quot.fiber_action.tables(char) is not None
    fs, ss = _draws(random.Random("broadcast"), 3, sd.product.order, quot.order)
    f, s = fs[0], ss[0]
    one_f = _module_action(f, ss, char, quot)
    one_s = _module_action(fs, s, char, quot)
    stacked = _module_action(np.stack((fs, fs)), ss, char, quot)
    for i in range(3):
        _close(one_f[i], _module_action(f, ss[i], char, quot), "one f")
        _close(one_s[i], _module_action(fs[i], s, char, quot), "one section")
        _close(stacked[1, i], _module_action(fs[i], ss[i], char, quot), "stacked")


def test_characters_in_one_orbit_share_one_projection():
    """On WH(16,16) each central character is its own H-orbit, and the 256
    characters of the K fiber fall into 48 orbits.  The projection onto the
    characters above an orbit is built once for the quotient, so the tables
    of every character of both fibers fit in a few MB, where one projection
    per character would take several times that."""
    sd = weyl_heisenberg_finite(16, 16)
    fibers = [_quotient(sd, range(n)) for n in (16, 256)]
    chars = [enumerate_characters(normal) for normal, _ in fibers]
    gc.collect()
    tracemalloc.start()
    try:
        routes = [quot.fiber_action for _, quot in fibers]
        tables = [[route.tables(c) for c in cs] for route, cs in zip(routes, chars)]
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 8e6, held

    for (normal, _), route, cs, ts, orbits in zip(fibers, routes, chars, tables, (16, 48)):
        # the H-orbit of a character, read off its phases: xi o theta_a on N
        moved = sd.action[:, : normal.order]
        keys = [min(tuple(c.phases[i] for i in row) for row in moved) for c in cs]
        shared = {}
        for key, t in zip(keys, ts):
            assert shared.setdefault(key, t[-1]) is t[-1]   # one array for one orbit
        assert len(shared) == orbits
        assert len({id(p) for p in shared.values()}) == orbits  # and another for another
        assert len(route._by_orbit) == orbits

    # the per-character tables go with their characters; the projections stay
    del cs, ts, chars, tables
    gc.collect()
    for route, orbits in zip(routes, (16, 48)):
        assert not route._by_character and len(route._by_orbit) == orbits


@pytest.mark.parametrize(
    "sd, members",
    [
        (_inversion(256), [0, 128]),
        (_inversion(256), [0]),
        (weyl_heisenberg_finite(4, 4), range(0, 4, 2)),
        (_swap_on_z4_squared(), [0, 2, 8, 10]),
    ],
    ids=["inversion / order 2", "inversion / e", "WH(4,4) / (0,2t)", "swap / 2K"],
)
def test_projection_tables_grow_with_n_and_the_orbit_not_with_k(sd, members):
    """A small N leaves |K/N| close to |K|: the projection of f must not
    hold a table of |K| rows per character of U, only |N| rows per
    character of N in the orbit and one row of K / N per such character."""
    normal, quot = _quotient(sd, members)
    route = quot.fiber_action
    n, nkn = normal.order, quot.order // sd.h.order
    for char in enumerate_characters(normal):
        *_, (along_n, on_r) = route.tables(char)
        orbit = on_r.shape[0]
        assert orbit <= min(sd.h.order, n)
        assert along_n.shape == (2 * n, 2 * orbit) and on_r.shape == (orbit, nkn)
