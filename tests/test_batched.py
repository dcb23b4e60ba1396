"""The array functions behind `covmod verify` against the public 1-D API.

Every kernel that verify calls over a leading trial axis must give, trial by
trial, what the public function gives on one `GroupFunction` or
`CovariantFunction`; and the draw helper must give, bit for bit, the values of
drawing trial by trial and size by size from one numpy Generator seeded with
128 bits of the rng, and leave the rng as those 128 bits do.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from covmod import (
    FiniteGroup,
    GroupFunction,
    MeasureTriple,
    conv_fast_full_k,
    conv_fast_wh_center,
    convolve,
    counting_measure,
    cov_norm,
    covariance_residual,
    enumerate_characters,
    from_section,
    full_module_action,
    lp_norm,
    make_character,
    make_cyclic,
    make_product,
    make_subgroup,
    module_action,
    quotient,
    random_function,
    section_residual,
    semidirect,
    t_xi,
    weil_measure,
    weil_residual,
)
from covmod.convolution import (
    _convolve_at,
    _convolved,
    _covariance_gaps,
    _gaps,
    _module_action,
)
from covmod.covariant import _averaged, _on_group
from covmod.groups import _draws, _p_norms, _weil_gaps
from covmod.semidirect import lift_subgroup, weyl_heisenberg_finite
from covmod.verify import FAST_GRID, builtin_corpus

TRIALS = (0, 1, 3)


def _cases():
    """(name, group, normal members, sd or None, closed form) for every corpus
    entry and every FAST_GRID shear group, center and K fiber."""
    for entry in builtin_corpus():
        sd, in_k = entry.sd, entry.normal_in_k
        form = None
        if sd is not None and in_k is not None:
            if in_k.order == sd.k.order:
                form = "full_k"
            elif in_k.members == tuple(range(sd.k.order // sd.h.order)):
                form = "wh_center"
        yield entry.name, entry.group, entry.normal.members, sd, form
    for m, r in FAST_GRID:
        sd = weyl_heisenberg_finite(m, r)
        for label, fiber, form in (("center", r, "wh_center"), ("K", m * r, "full_k")):
            members = lift_subgroup(sd, make_subgroup(sd.k, range(fiber))).members
            yield f"WH({m},{r})/{label}", sd.product, members, sd, form


CASES = list(_cases())


def _table_copy(group: FiniteGroup) -> FiniteGroup:
    """The same group without its split, so `convolve` takes the table route."""
    return FiniteGroup(group.order, group.table, group.inv, group.identity, group.labels)


def _agree(batched: np.ndarray, stacked: np.ndarray, what: str) -> None:
    assert batched.shape == stacked.shape, what
    if stacked.size:
        scale = max(float(np.abs(stacked).max()), 1e-300)
        assert float(np.abs(batched - stacked).max()) <= 1e-12 * scale, what


def _stack(results, shape) -> np.ndarray:
    return np.array(results, dtype=complex).reshape((len(results),) + shape)


@pytest.mark.parametrize("route", ["as built", "table"])
@pytest.mark.parametrize("name, group, members, sd, form", CASES, ids=[c[0] for c in CASES])
def test_array_functions_match_the_public_path(name, group, members, sd, form, route):
    if route == "table":
        group, sd = _table_copy(group), None
        assert group.split is None
    normal = make_subgroup(group, members)
    quot = quotient(group, normal)
    chars = enumerate_characters(normal)
    char = chars[-1]
    measure = counting_measure(quot)
    n, q = group.order, quot.order
    rng = random.Random(f"batched:{name}:{route}")
    for trials in TRIALS:
        fs = [random_function(group, rng) for _ in range(trials)]
        gs = [random_function(group, rng) for _ in range(trials)]
        psis = [
            from_section(random_function(quot.table, rng).values, char, quot)
            for _ in range(trials)
        ]
        f = _stack([x.values for x in fs], (n,))
        g = _stack([x.values for x in gs], (n,))
        s = _stack([x.section for x in psis], (q,))
        tag = f"{name} ({route}), {trials} trials"

        _agree(
            _convolved(group, f, g),
            _stack([convolve(a, b).values for a, b in zip(fs, gs)], (n,)),
            f"convolve {tag}",
        )
        _agree(
            _averaged(f, char, quot),
            _stack([t_xi(a, char, quot=quot).section for a in fs], (q,)),
            f"t_xi {tag}",
        )
        full = _on_group(s, char, quot)
        _agree(full, _stack([p.full().values for p in psis], (n,)), f"full {tag}")
        _agree(
            _module_action(f, s, char, quot),
            _stack([module_action(a, p).section for a, p in zip(fs, psis)], (q,)),
            f"module_action {tag}",
        )
        _agree(
            _convolve_at(group, f, full, range(n)),
            _stack([full_module_action(a, p).values for a, p in zip(fs, psis)], (n,)),
            f"full_module_action {tag}",
        )
        _agree(
            _covariance_gaps(full, char),
            _stack([covariance_residual(p.full(), char) for p in psis], ()),
            f"covariance_residual {tag}",
        )
        back = [t_xi(p.full(), char, quot=quot) for p in psis]
        _agree(
            _gaps(_stack([b.section for b in back], (q,)), s),
            _stack([section_residual(b, p) for b, p in zip(back, psis)], ()),
            f"section_residual {tag}",
        )
        _agree(
            _weil_gaps(f, quot, measure),
            _stack([weil_residual(a, quot, measure) for a in fs], ()),
            f"weil_residual {tag}",
        )
        for p in (1, 2, 3):
            _agree(_p_norms(f, p), _stack([lp_norm(a, p) for a in fs], ()), f"lp_norm {p} {tag}")
            _agree(_p_norms(s, p), _stack([cov_norm(x, p) for x in psis], ()), f"cov_norm {p} {tag}")

        if sd is not None and form == "full_k":
            _agree(
                _module_action(f, s, char, quot),
                _stack([conv_fast_full_k(sd, a, x).section for a, x in zip(fs, psis)], (q,)),
                f"conv_fast_full_k {tag}",
            )
        if sd is not None and form == "wh_center":
            m, r = sd.shear_parameters
            k = int(char.phases[1] * r) if r > 1 else 0
            _agree(
                _module_action(f, s, char, quot),
                _stack([conv_fast_wh_center(sd, a, x, k).section for a, x in zip(fs, psis)], (q,)),
                f"conv_fast_wh_center {tag}",
            )


@pytest.mark.parametrize("sizes", [(4,), (6, 6, 1, 1), (27, 9), (1,)])
@pytest.mark.parametrize("trials", TRIALS)
def test_draws_are_the_sequential_stream(sizes, trials):
    ours, theirs = random.Random(f"draws:{sizes}"), random.Random(f"draws:{sizes}")
    arrays = _draws(ours, trials, *sizes)
    normals = np.random.default_rng(theirs.getrandbits(128))
    expected = [[] for _ in sizes]
    for _ in range(trials):
        for i, size in enumerate(sizes):
            expected[i].append(normals.standard_normal(2 * size).view(complex))
    assert len(arrays) == len(sizes)
    for got, want, size in zip(arrays, expected, sizes):
        assert got.shape == (trials, size) and got.dtype == complex
        assert got.tobytes() == _stack(want, (size,)).tobytes()
    assert ours.getstate() == theirs.getstate()


def test_no_trial_axis_gives_one_value():
    f = GroupFunction(make_cyclic(4), (1, 2j, -3, 0.5))
    assert _p_norms(f.values, 2).shape == ()
    assert _p_norms(f.values[None], 2).shape == (1,)


def test_one_function_against_a_trial_axis_broadcasts():
    group = make_cyclic(6)
    rng = random.Random("broadcast")
    f = random_function(group, rng)
    gs = [random_function(group, rng) for _ in range(3)]
    got = _convolve_at(group, f.values, _stack([g.values for g in gs], (6,)), range(6))
    _agree(got, _stack([convolve(f, g).values for g in gs], (6,)), "one f, three g")


def _swap_on_z4_squared():
    """Z2 swapping the two axes of Z4 x Z4."""
    z4 = make_cyclic(4)
    swap = [4 * (k % 4) + k // 4 for k in range(16)]
    return semidirect(make_cyclic(2), make_product(z4, z4), [list(range(16)), swap])


def _wh16_character(normal):
    """The (3, 1) character of WH(16,16)'s K fiber, (l, t) -> e((3 l + t) / 16):
    H moves it through all 16 characters (3 + h, 1), an H-orbit of |H|."""
    return make_character(normal, [Fraction(3 * l + t, 16) for l in range(16) for t in range(16)])


def _grid_cases():
    """(name, sd, members of N in K, whether `quot.grid` is in element order,
    characters or None for all of them): a center, where the grid is the
    elements in order, and K fibers and a swap product, where it is gathered."""
    wh44, wh16 = weyl_heisenberg_finite(4, 4), weyl_heisenberg_finite(16, 16)
    yield "WH(4,4)/center", wh44, range(4), True, None
    yield "WH(16,16)/center", wh16, range(16), True, None
    yield "WH(4,4)/K", wh44, range(16), False, None
    yield "swap x| Z4 x Z4 / 2K", _swap_on_z4_squared(), [0, 2, 8, 10], False, None
    yield "WH(16,16)/K, orbit 16", wh16, range(256), False, _wh16_character


GRID_CASES = list(_grid_cases())


def _grid_quotient(sd, members, in_order, chars):
    normal = lift_subgroup(sd, make_subgroup(sd.k, list(members)))
    quot = quotient(sd.product, normal)
    assert quot.in_order is in_order
    return normal, quot, enumerate_characters(normal) if chars is None else [chars(normal)]


def _scalar_averages(values: np.ndarray, char, quot, wN: np.ndarray) -> np.ndarray:
    """sum over s_j in N of wN[j] f(r_i s_j) conj(xi(s_j)), one coset at a time."""
    table = quot.parent.table
    out = np.empty(values.shape[:-1] + (quot.order,), dtype=complex)
    for i, r in enumerate(quot.reps):
        cols = [int(table[r, s]) for s in quot.normal.members]
        out[..., i] = values[..., cols] @ (wN * char.complex_values.conj())
    return out


@pytest.mark.parametrize("scales", [None, (2.5, 0.5), "explicit"])
@pytest.mark.parametrize(
    "name, sd, members, in_order, chars", GRID_CASES, ids=[c[0] for c in GRID_CASES]
)
def test_averaged_on_either_grid_against_a_scalar_sum(name, sd, members, in_order, chars, scales):
    normal, quot, chars = _grid_quotient(sd, members, in_order, chars)
    group = sd.product
    rng = random.Random(f"averaged:{name}:{scales}")
    if scales is None:
        measure, wN = None, np.ones(normal.order)
    elif scales == "explicit":
        wN = np.array([rng.uniform(0.25, 4.0) for _ in range(normal.order)])
        measure = MeasureTriple(np.ones(group.order), wN, np.ones(quot.order))
    else:
        measure = weil_measure(group, normal, quot, *scales)
        wN = measure.wN
    for char in chars:
        for shape in ((0,), (1,), (3,), (4, 3)):
            f = _draws(rng, int(np.prod(shape)), group.order)[0].reshape(shape + (group.order,))
            got = _averaged(f, char, quot, None if measure is None else measure.wN)
            _agree(got, _scalar_averages(f, char, quot, wN), f"{name} {shape}")
        one = random_function(group, rng)
        _agree(
            t_xi(one, char, measure, quot).section,
            _scalar_averages(one.values, char, quot, wN),
            f"t_xi {name}",
        )


BROADCAST_CASES = [(name, group, members, None) for name, group, members, _, _ in CASES] + [
    (name, sd.product, lift_subgroup(sd, make_subgroup(sd.k, list(members))).members, chars)
    for name, sd, members, _, chars in GRID_CASES
]


@pytest.mark.parametrize(
    "name, group, members, chars", BROADCAST_CASES, ids=[c[0] for c in BROADCAST_CASES]
)
def test_module_action_broadcasts_as_verify_calls_it(name, group, members, chars):
    """(4, T, |G|) values against (T, |G/N|) sections and the reverse, for
    T = 0, 1 and 3, as `verify_module_axioms` stacks them, against the
    table route at the representatives."""
    normal = make_subgroup(group, members)
    quot = quotient(group, normal)
    if chars is not None:
        chars = [chars(normal)]
        assert quot.fiber_action.tables(chars[0])[-1][1].shape[0] == 16   # o = |H|
    else:
        chars = enumerate_characters(normal)[-2:]
    rng = random.Random(f"broadcast:{name}")
    for char in chars:
        for trials in TRIALS:
            f, s = _draws(rng, 4 * trials, group.order, quot.order)
            f, s = f.reshape(4, trials, group.order), s.reshape(4, trials, quot.order)
            for wf, section in ((f, s[0]), (f[0], s)):
                want = _convolve_at(group, wf, _on_group(section, char, quot), quot.reps)
                assert want.shape == (4, trials, quot.order)
                _agree(_module_action(wf, section, char, quot), want, f"{name}, {trials} trials")


def test_fiber_convolve_at_h_64_matches_the_table_route():
    """Z64 x| Z17 by k -> 3^h k: 64 x 64 matrices in the batched sum."""
    action = [[pow(3, h, 17) * k % 17 for k in range(17)] for h in range(64)]
    sd = semidirect(make_cyclic(64), make_cyclic(17), action)
    group = sd.product
    rng = random.Random("convolve at |H| = 64")
    points = sorted(rng.sample(range(group.order), 48))
    for trials in TRIALS:
        f, g = _draws(rng, trials, group.order, group.order)
        _agree(
            _convolved(group, f, g)[..., points],
            _convolve_at(group, f, g, points),
            f"{trials} trials",
        )
