"""The array functions behind `covmod verify` against the public 1-D API.

Every kernel that verify calls over a leading trial axis must give, trial by
trial, what the public function gives on one `GroupFunction` or
`CovariantFunction`; and the draw helper must give, bit for bit, the values of
drawing trial by trial and size by size from one numpy Generator seeded with
128 bits of the rng, and leave the rng as those 128 bits do.
"""

import random

import numpy as np
import pytest

from covmod import (
    FiniteGroup,
    GroupFunction,
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
    make_cyclic,
    make_subgroup,
    module_action,
    quotient,
    random_function,
    section_residual,
    t_xi,
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
            m, r, _ = sd.shear_parameters
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
